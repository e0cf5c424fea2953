import pytest

from purchase_games import engine

# Positions in a first candidate window small enough that the edge games at
# test sizes build each stage in several windows.
SMALL_WINDOW = 2 ** 6


@pytest.fixture
def first_window(request, monkeypatch):
    """Cuts ``engine._FIRST_WINDOW`` to the test's ``first_window``
    parameter, if it has one that is not None."""
    window = getattr(request, "param", None)
    if window is not None:
        monkeypatch.setattr(engine, "_FIRST_WINDOW", window)
    return window
