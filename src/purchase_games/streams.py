"""Every random stream of a trial, and the seed words its generators are built from.

Trial i of a run with master seed M has seed ``mix_seed(M, i)``, and draws
each of its streams from ``PCG64(mix_seed(seed, k))``: the market's costs
from stream k = ``_COST_STREAM``, the tape's permutation from
``_TAPE_STREAM``, the Maker's draws from ``_MAKER_STREAM`` and the
Breaker's from ``_BREAKER_STREAM``.  Keying each stream on (seed, trial,
stream id) alone makes any stream of any trial computable on its own, in any
order and in any process.  Every generator of the program is built here.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

__all__ = ["mix_seed"]

_COST_STREAM, _TAPE_STREAM, _MAKER_STREAM, _BREAKER_STREAM = 0, 1, 101, 102
_TRIAL_STREAMS = np.array([_COST_STREAM, _TAPE_STREAM, _MAKER_STREAM, _BREAKER_STREAM],
                          dtype=np.uint64)[:, None]

_MASK64 = (1 << 64) - 1


def mix_seed(master: int, index: int) -> int:
    """Derive a 64-bit child seed from a master seed and an index.

    This is the splitmix64 finalizer applied to ``master + (index + 1) * phi``
    where phi is the 64-bit golden-ratio increment.  The construction is fixed
    forever: identical (master, index) pairs give identical child seeds on any
    platform, which is what makes parallel trial execution reproducible.
    """
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_seeds(master, index) -> np.ndarray:
    """``mix_seed`` elementwise over uint64 arrays; either argument may also
    be a Python int, reduced mod 2**64 first as ``mix_seed`` reduces its sum.
    uint64 arithmetic wraps mod 2**64, which is ``mix_seed``'s mask (numpy
    warns of that wrap on scalars, so the warning is silenced)."""
    master, index = (np.asarray(x % 2**64 if isinstance(x, int) else x, dtype=np.uint64)
                     for x in (master, index))
    with np.errstate(over="ignore"):
        z = master + (index + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _stream_seeds(master, trials, stream) -> np.ndarray:
    """The seed ``mix_seed(mix_seed(master, i), stream)`` of each trial i of
    the index array ``trials``; a column of streams gives a row of seeds per
    stream."""
    return _mix_seeds(_mix_seeds(master, np.asarray(trials, dtype=np.uint64)), stream)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@lru_cache(maxsize=4)
def _hash_constants(init: int, mult: int, calls: int) -> tuple:
    """The xor and multiply constants of ``calls`` successive hashmix calls
    of a hash started at ``init``, as read-only uint32 columns: call j xors
    with init * mult**j and multiplies by init * mult**(j+1), mod 2**32."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column[:-1], column[1:]


def _pcg64_seed_words(seeds: np.ndarray) -> np.ndarray:
    """What ``np.random.PCG64(s)`` seeds itself from, for each s of the uint64
    ``seeds``: row i is ``SeedSequence(seeds[i]).generate_state(4,
    np.uint64)``, and ``_seeded(row)`` is that generator.

    The hash runs on uint32 arrays, which wrap as its C code does: the
    4-word pool of every seed is one (4, k) array, so each mixing round is
    one broadcast hashmix of a source word against the other three.  A
    64-bit seed is two entropy words, and a seed under 2**32 is one, padded
    with the hash of 0 that a zero second word gives too.  The hash
    constants are derived from ``_INIT_*`` and ``_MULT_*`` on each call, and
    ``_seeded(words[0])`` is checked against ``PCG64(seeds[0]).state``, so a
    numpy that seeds otherwise raises RuntimeError instead of drawing other
    streams."""
    entropy = np.asarray(seeds, dtype=np.uint64)
    u32 = np.uint32

    def hashmix(value, xor, mult):
        value = (value ^ xor) * mult
        return value ^ (value >> u32(16))

    xor_a, mult_a = _hash_constants(_INIT_A, _MULT_A, 16)
    pool = np.zeros((4,) + entropy.shape, dtype=u32)
    pool[0] = entropy & np.uint64(0xFFFFFFFF)
    pool[1] = entropy >> np.uint64(32)
    pool = hashmix(pool, xor_a[:4], mult_a[:4])
    for src in range(4):
        dst, j = [i for i in range(4) if i != src], 4 + 3 * src
        hashed = hashmix(pool[src], xor_a[j:j + 3], mult_a[j:j + 3])
        mixed = u32(_MIX_MULT_L) * pool[dst] - u32(_MIX_MULT_R) * hashed
        pool[dst] = mixed ^ (mixed >> u32(16))
    xor_b, mult_b = _hash_constants(_INIT_B, _MULT_B, 8)
    words = hashmix(np.concatenate([pool, pool]), xor_b, mult_b)
    words = np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)
    if entropy.size:
        if (_seeded(words[0]).bit_generator.state
                != np.random.PCG64(int(entropy[0])).state):
            raise RuntimeError("numpy's PCG64 no longer seeds as _pcg64_seed_words assumes")
    return words


def _seeded(words: np.ndarray) -> np.random.Generator:
    """The generator PCG64 seeds from ``words``, a row of
    ``_pcg64_seed_words``, through ``_SeedWords``: the one route from
    precomputed seed words to a stream."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _fill_rows(rows: np.ndarray, words: np.ndarray, skip: int = 0) -> None:
    """Fill each row of the float64 array ``rows`` with the doubles of the
    stream ``_seeded`` from the same row of ``words``, starting after its
    first ``skip``."""
    for row, row_words in zip(rows, words):
        rng = _seeded(row_words)
        if skip:
            rng.bit_generator.advance(skip)
        rng.random(out=row)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 its four precomputed seed words, a
    contiguous uint64 row of ``_pcg64_seed_words``, whatever it is asked.
    It subclasses numpy's ``ISeedSequence`` rather than being registered as
    one: ``abc`` caches a subclass for PCG64's ``isinstance`` check, but
    never a registered class, whose check then runs in Python on every
    build."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


_seed_memo = threading.local()  # .table: ({seed: row}, words), or None


def _remember_seed_words(master, trials=()) -> None:
    """Until the next call, let ``_generator`` in the calling thread seed
    every stream of ``_TRIAL_STREAMS`` of each trial of ``master`` in the
    index array ``trials`` from its ``_pcg64_seed_words``; a call without
    trials forgets them."""
    _seed_memo.table = None
    if len(trials):
        seeds = _stream_seeds(master, trials, _TRIAL_STREAMS).ravel()
        _seed_memo.table = (dict(zip(seeds.tolist(), range(seeds.size))),
                            _pcg64_seed_words(seeds))


def _generator(seed: int) -> np.random.Generator:
    """A fresh ``Generator(PCG64(seed))``; every per-game stream is built
    here, from ``mix_seed(trial seed, stream id)``.  numpy seeds PCG64 from
    its seed sequence's ``generate_state(4, uint64)``, which hashes the
    seed, most of a build's time.  When the seed's words are remembered in
    the calling thread (``_remember_seed_words``), the generator is
    ``_seeded`` from them instead.  The words are a pure function of the
    seed, and ``_pcg64_seed_words`` checks that such a build reproduces
    ``PCG64(seed).state``, so both routes give the same stream bit for bit;
    the memo holds words, never a generator."""
    table = getattr(_seed_memo, "table", None)
    if table is not None:
        row = table[0].get(seed)
        if row is not None:
            return _seeded(table[1][row])
    return np.random.Generator(np.random.PCG64(seed))
