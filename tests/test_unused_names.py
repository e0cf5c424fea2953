"""tools/unused_names.py on a throwaway tree whose unread names are known, and
on src/, whose unread names are listed."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "unused_names.py"

MODULE = '''__all__ = ["used", "only_exported", "by_string"]


def used():
    return item()


def only_exported():
    pass


def by_string():
    pass


def tested_only():
    pass


def _private():
    pass


class Box:
    size = property(lambda self: 1)
    spare = property(lambda self: 2)

    def read(self):
        pass

    def unread(self):
        pass

    def item(self):
        pass

    @property
    def width(self):
        return 3


class _Hidden:
    def public_in_private(self):
        pass
'''

USER = '''from pkg.mod import Box, used

used()
getattr(Box(), "by_string")
Box().read()
print(Box().size)


def item():
    pass
'''

TEST = '''from pkg.mod import Box, tested_only

tested_only()
Box().unread()
print(Box().width, Box().spare)
'''


def test_lists_the_definitions_that_only_tests_or_all_name(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "user.py").write_text(USER)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(TEST)
    out = subprocess.run([sys.executable, str(TOOL), "pkg"], cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    lines = MODULE.splitlines()

    def row(qualified, text):
        return f"{Path('pkg') / 'mod.py'}:{lines.index(text) + 1}: {qualified}"

    assert out == [
        row("only_exported", "def only_exported():"),
        row("tested_only", "def tested_only():"),
        row("Box.spare", "    spare = property(lambda self: 2)"),
        row("Box.unread", "    def unread(self):"),
        row("Box.width", "    def width(self):"),
    ]


# The public names in src/ that no code outside the tests reads: library API
# that the README documents (file I/O, dump_market, View.my_labels,
# SlowTurns, eval_schedules_on_grid) and the clique plan's two reports.  A
# new public name that nothing calls fails here until it gets a caller or is
# listed.
SRC_UNREAD = {
    "box_game.py": ["save_scripted_ordering", "load_scripted_ordering"],
    "clique_game.py": ["CliquePlan.identity_residuals", "CliquePlan.feasibility_report"],
    "engine.py": ["dump_market", "View.my_labels", "SlowTurns"],
    "item_game.py": ["save_schedule", "load_schedule"],
    "oracle.py": ["eval_schedules_on_grid"],
}


def test_src_has_no_unread_public_names_beyond_the_listed_ones():
    out = subprocess.run([sys.executable, str(TOOL), "src/"], cwd=TOOL.parents[1],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    unread = {}
    for row in out:
        where, qualified = row.split(": ", 1)
        unread.setdefault(Path(where.rpartition(":")[0]).name, []).append(qualified)
    assert unread == SRC_UNREAD
