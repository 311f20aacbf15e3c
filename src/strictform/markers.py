"""Hierarchical marker systems with two gap sizes per row.

Positions are absolute: a marker at position n is the cut between columns n
and n+1.  Row k uses a base gap l_k, so interior gaps are l_k or l_k+1, and
every marker of row k+1 must also be a marker of row k (congruency).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import partial
from itertools import (
    accumulate, chain, compress, dropwhile, islice, repeat, takewhile,
)
from operator import eq, ge, gt, sub
from pathlib import Path
from typing import Iterator, Sequence

from ._value import Value, _set

# gaps of a top-row run of check_balanced, and positions that write_mrk
# joins at a time
_CHUNK = 8192


class NoDecomposition(ValueError):
    """The gap cannot be split into pieces of length l and l+1."""


class GapDecomposition(Value):
    """p = a*l + b*(l+1) with both counts positive."""

    __slots__ = ("a", "b", "l")

    def __init__(self, a, b, l):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "l", l)


class MarkerSystem(Value):
    """Marker rows over the column range [lo, hi], each stored as its first
    position and its gap lengths.

    Row k holds the marker ``starts[k-1]`` and then one marker per entry of
    ``lengths[k-1]``, each that many columns after the one before; an empty
    row has the start None and no lengths.  A row costs one 8-byte tuple
    slot per marker: the lengths of a built row repeat two int objects,
    where a tuple of positions holds an int object and a slot per marker,
    36 bytes.  Positions are computed as they are read (``row``);
    ``from_positions`` builds a system from rows of sorted positions.
    ``cuts`` reads a row's markers inside a window, and ``flags`` marks them
    with one byte per column, as an ``.arr`` file does.

    ``gaps[k-1]`` is the base gap l_k of row k.  ``balance_windows`` records,
    per row, the interval length at which the constructor guarantees the
    balanced-frequency condition (None for hand-built systems).
    ``patterns[k-1]``, for each row k below the top, pairs each gap length
    of row k+1 with the row-k gap lengths it splits into, so that row k is
    the patterns of row k+1's gaps in turn (None for hand-built systems;
    ``check_balanced`` reads it).
    """

    __slots__ = (
        "starts", "lengths", "gaps", "lo", "hi", "balance_windows", "patterns",
    )

    def __init__(
        self, starts, lengths, gaps, lo, hi, balance_windows=None, patterns=None
    ):
        _set(self, "starts", starts)
        _set(self, "lengths", lengths)
        _set(self, "gaps", gaps)
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "balance_windows", balance_windows)
        _set(self, "patterns", patterns)
        if not len(starts) == len(lengths) == len(gaps):
            raise ValueError("one base gap per row required")
        for start, steps in zip(starts, lengths):
            if start is None and steps:
                raise ValueError("an empty row has no gap lengths")
            if min(steps, default=1) < 1:
                raise ValueError("positions must be sorted and distinct")

    @classmethod
    def from_positions(cls, rows, gaps, lo, hi, balance_windows=None):
        """The system whose row k holds the sorted positions ``rows[k-1]``."""
        starts = tuple(row[0] if row else None for row in rows)
        lengths = tuple(tuple(map(sub, row[1:], row)) for row in rows)
        return cls(starts, lengths, gaps, lo, hi, balance_windows)

    @property
    def row_count(self) -> int:
        return len(self.starts)

    def row(self, k: int) -> Iterator[int]:
        """The positions of row k, in order, computed as they are read."""
        return accumulate(self.lengths[k - 1], initial=self.starts[k - 1])

    # the one place that decides which markers a window spans
    def cuts(self, k: int, origin: int, columns: int) -> list[int]:
        """The row-k markers that cut a window of ``columns`` columns at
        ``origin``."""
        inside = dropwhile(partial(gt, origin), self.row(k))
        return list(takewhile(partial(ge, origin + columns - 1), inside))

    def flags(self, k: int, origin: int, columns: int) -> bytes:
        """Row k over the window of ``cuts``: byte j is 1 iff a marker sits
        right after column ``origin + j`` (``|`` in an ``.arr`` file)."""
        row = bytearray(columns)
        for p in self.cuts(k, origin, columns):
            row[p - origin] = 1
        return bytes(row)


def _best_split(p: int, l: int, cross: int, key) -> GapDecomposition:
    """The split p = a*l + b*(l+1), a and b positive, minimizing key(a, b)
    over the lattice neighbours of b = cross and the two lattice ends.

    Solutions form the lattice b = (p mod l) + t*l; each caller's key is
    unimodal along it, so its optimum is among those candidates.
    """
    if l < 2:
        raise ValueError("base gap must be at least 2")
    if p < 2 * l + 1:
        raise NoDecomposition(f"gap {p} too short for pieces {l},{l + 1}")
    b_lo = p % l or l
    b_hi = (p - l) // (l + 1)  # largest b leaving a >= 1
    if b_hi < b_lo:
        raise NoDecomposition(f"gap {p} has no positive split for l={l}")
    b_hi = b_lo + ((b_hi - b_lo) // l) * l
    near = b_lo + ((cross - b_lo) // l) * l
    pairs = [
        ((p - b * (l + 1)) // l, b)
        for b in (near, near + l, b_lo, b_hi)
        if b_lo <= b <= b_hi
    ]
    a, b = min(pairs, key=lambda pair: key(*pair))
    return GapDecomposition(a, b, l)


def decompose_gap(p: int, l: int) -> GapDecomposition:
    """Split p into a pieces of length l and b of length l+1, both positive,
    choosing the counts that minimize |a/b - 1| (ties go to the larger a).

    a/b is decreasing in b, so |a/b - 1| is unimodal and the optimum sits at
    a lattice neighbour of the crossing b = p/(2l+1).
    """
    return _best_split(
        p, l, p // (2 * l + 1), lambda a, b: (Fraction(abs(a - b), b), b)
    )


def _decompose_balanced(p: int, l: int) -> GapDecomposition:
    """Split p = a*l + b*(l+1) minimizing |a*l - b*(l+1)| (mass balance).

    Used when refining a coarse gap: near-equal column shares keep the short
    and long densities strictly above the balanced-frequency thresholds
    1/(3l) and 1/(3(l+1)), which the count-ratio optimum does not guarantee.
    Mass is balanced at b = p / (2(l+1)).
    """
    return _best_split(
        p,
        l,
        p // (2 * (l + 1)),
        lambda a, b: (abs(a * l - b * (l + 1)), Fraction(abs(a - b), b), b),
    )


def _split_steps(p: int, l: int) -> tuple[int, ...]:
    """The gap lengths of the balanced split of a gap of length p: a steps
    of l, then b steps of l+1."""
    d = _decompose_balanced(p, l)
    return (l,) * d.a + (l + 1,) * d.b


def check_two_gaps(ms: MarkerSystem, k: int) -> bool:
    l = ms.gaps[k - 1]
    return set(ms.lengths[k - 1]) <= {l, l + 1}


def check_balanced(ms: MarkerSystem, k: int, window: int) -> bool:
    """True iff every length-``window`` interval inside [lo, hi] fully contains
    at least window/(3 l_k) gaps of length l_k and window/(3 (l_k+1)) gaps of
    length l_k+1.  Only gaps with both endpoints inside the interval count.
    ``ms`` must be built (``patterns`` set): its rows run from lo to hi,
    and row k is row k+1 with each gap expanded through its pattern.

    Each length g is checked on its own, as the m-th gap of that length,
    m = ceil(window / (3 g)).  The length-g gaps inside [t, t + window] are
    those whose left ends lie in [t, t + window - g], consecutive entries of
    the sorted left ends ``left``.  Among the starts whose first entry is
    left[q + 1], the earliest, left[q] + 1, is the tightest, and it holds m
    gaps iff left[q + m] - left[q] <= window + 1 - g.

    The row is read in runs of its coarse row: row k+1 with each gap read
    as its pattern, or at the top row the row itself.  With c the shortest
    coarse gap and r = window // c + 2, the r - 1 coarse gaps after the one
    an interval starts in span more than ``window``.  So the run of r coarse
    gaps from there decides every start in its first gap, wherever the run
    occurs, and below the top row only the distinct runs are checked.  At
    the top row a run is ``_CHUNK`` gaps plus r - 1, checked at the starts
    in its first ``_CHUNK`` gaps, so no run holds the row.  The row's last
    run reaches hi and is checked at all of its starts up to hi - window.

    A run counts from its first marker P, a coarse marker: its ``left``
    begins with P - 1, whose start is P itself.  In the first run P is lo,
    the earliest start of all.  In a later run P is an extra start, but an
    interval from P lies inside [lo, hi] all the same, so checking it fails
    no balanced row and the verdict stays exact.
    """
    l = ms.gaps[k - 1]
    if window < 3 * (l + 1):
        raise ValueError("interval too short to constrain both gap lengths")
    if ms.patterns is None:
        raise ValueError("balance is checked on built systems only")
    if ms.hi - ms.lo < window:
        return True  # no interval fits; vacuously balanced
    if k < ms.row_count:
        coarse, step, pattern = ms.lengths[k], 1, dict(ms.patterns[k - 1])
    else:
        coarse, step, pattern = ms.lengths[k - 1], _CHUNK, None
    span = step + window // min(coarse) + 1
    # the head of the last run, the first that reaches the end of the row
    last = max(0, -(-(len(coarse) - span) // step)) * step
    runs = (coarse[i : i + span] for i in range(0, last, step))
    if pattern:
        runs = dict.fromkeys(runs)  # equal runs have one verdict
    for run in runs:
        if not _run_holds(run, pattern, sum(run[:step]), l, window):
            return False
    run = coarse[last:]
    return _run_holds(run, pattern, sum(run) - window, l, window)


def _run_holds(run, pattern, stop: int, l: int, window: int) -> bool:
    """Whether every checked start of ``run`` up to ``stop``, a position
    from its first marker, holds enough gaps of both lengths inside the
    run.  The gaps are ``run`` itself, or with a ``pattern`` the patterns
    of its gaps in turn."""
    if pattern:
        run = list(chain.from_iterable(map(pattern.__getitem__, run)))
    ends = list(accumulate(run, initial=0))
    for g in (l, l + 1):
        m = -(-window // (3 * g))
        left = [-1, *compress(ends, map(eq, run, repeat(g)))]
        n = bisect_left(left, stop)
        if n + m > len(left):
            return False
        if max(map(sub, left[m : n + m], left[:n])) > window + 1 - g:
            return False
    return True


def check_congruency(ms: MarkerSystem) -> bool:
    for k in range(1, ms.row_count):
        upper = set(ms.row(k + 1))
        upper.difference_update(ms.row(k))
        if upper:
            return False
    return True


def check_gaps(gaps: Sequence[int]) -> None:
    """Raise ValueError, naming the gaps, unless the base gaps are at least 2
    and grow as l_{k+1} >= 9 l_k^2, the growth that lets every refinement
    succeed."""
    if not gaps or min(gaps) < 2:
        raise ValueError("gaps: base gaps must be >= 2")
    for a, b in zip(gaps, gaps[1:]):
        if b < 9 * a * a:
            raise ValueError(f"gaps: gap sequence must grow: {b} < 9*{a}^2")


def build_marker_system(
    columns: int, origin: int, gaps: Sequence[int]
) -> MarkerSystem:
    """Top-down hierarchical construction over the column range
    [origin, origin + columns].

    The top row splits the whole range by decompose_gap with its short and
    long gaps evenly interleaved; every lower row refines the gaps of the row
    above.  Requires the growth of check_gaps so every refinement succeeds,
    and columns = a*l_K + b*(l_K+1) for some positive a, b (no two-gap row
    exists otherwise).  Every row starts at origin.
    """
    gaps = tuple(gaps)
    check_gaps(gaps)
    rows = len(gaps)

    top = gaps[-1]
    d = decompose_gap(columns, top)
    n = d.a + d.b
    # spread the b long gaps evenly among the a short ones: gap i is long
    # iff (i + 1) * b / n passes an integer that i * b / n does not reach
    short_long = (top, top + 1)
    steps = (short_long[(i + 1) * d.b // n > i * d.b // n] for i in range(n))
    per_row = [tuple(steps)]
    patterns = []
    for l in reversed(gaps[:-1]):
        above = per_row[0]
        # every gap above is l_{k+1} or l_{k+1} + 1 long.  Split each length
        # once into its step pattern (a steps of l, then b of l + 1); the row
        # is the patterns of the gaps above in turn, so it passes through
        # every marker above.  The patterns repeat the same two length
        # objects, so a row costs one tuple slot per gap.
        pattern = {p: _split_steps(p, l) for p in dict.fromkeys(above)}
        steps = chain.from_iterable(map(pattern.__getitem__, above))
        per_row.insert(0, tuple(steps))
        patterns.insert(0, tuple(pattern.items()))

    # certified balance windows: 16*(coarse gap + 2) below the top row (each
    # window holds >= 14 full coarse gaps whose short/long shares are each
    # >= 5/12 of the gap), 48*l_K at the top (even interleaving)
    balance = tuple(
        16 * (gaps[k + 1] + 2) if k + 1 < rows else 48 * gaps[-1]
        for k in range(rows)
    )
    return MarkerSystem(
        (origin,) * rows, tuple(per_row), gaps, origin, origin + columns,
        balance, tuple(patterns),
    )


# --- .mrk output: one line per row, space-separated absolute positions.


def write_mrk(path: str | Path, ms: MarkerSystem) -> None:
    """Write each row ``_CHUNK`` positions at a time, never as one string."""
    with Path(path).open("w") as f:
        for k in range(1, ms.row_count + 1):
            positions = map(str, ms.row(k))
            f.write(" ".join(islice(positions, _CHUNK)))
            while piece := " ".join(islice(positions, _CHUNK)):
                f.write(" ")
                f.write(piece)
            f.write("\n")
