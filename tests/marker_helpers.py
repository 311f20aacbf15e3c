"""Marker rows held as tuples of positions, for the reference checks."""

from typing import NamedTuple


class PositionRows(NamedTuple):
    """Marker rows over [lo, hi], row k the sorted positions ``rows[k-1]``,
    read through the ``row``/``gaps``/``lo``/``hi`` interface of
    MarkerSystem.  A row may be empty or start anywhere."""

    rows: tuple
    gaps: tuple
    lo: int
    hi: int

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def row(self, k):
        return iter(self.rows[k - 1])


def position_rows(ms):
    """The rows of a MarkerSystem, every marker held."""
    rows = tuple(tuple(ms.row(k)) for k in range(1, ms.row_count + 1))
    return PositionRows(rows, ms.gaps, ms.lo, ms.hi)


def reference_check_congruency(ms):
    """Whether every marker of row k+1 is a marker of row k, for each k,
    with a set of each lower row."""
    for k in range(1, ms.row_count):
        lower = set(ms.row(k))
        if any(p not in lower for p in ms.row(k + 1)):
            return False
    return True
