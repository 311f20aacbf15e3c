"""Hierarchical marker systems with two gap sizes per row.

Positions are absolute: a marker at position n is the cut between columns n
and n+1.  Row k uses a base gap l_k, so interior gaps are l_k or l_k+1, and
every marker of row k+1 must also be a marker of row k (congruency).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from fractions import Fraction
from functools import partial
from itertools import (
    accumulate, chain, compress, dropwhile, islice, repeat, takewhile, tee,
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
    """A marker hierarchy over the column range [lo, hi], hi = lo + sum(top).

    Every row starts at the marker lo.  The top row then holds one marker
    per length in ``top``, each that many columns after the one before.
    Below it, ``patterns[k-1]`` pairs each gap length of row k+1 with the
    row-k lengths it splits into, so row k is the image of row k+1 under
    that substitution, and every marker of row k+1 is one of row k.
    ``gaps[k-1]`` is the base gap l_k of row k.  A system is refused unless
    it has one pattern per row below the top, its top steps are at least 1,
    and each pattern is steps of at least 1 summing to its gap, one pattern
    per gap length of the row above.
    """

    __slots__ = ("lo", "top", "patterns", "gaps")

    def __init__(self, lo, top, patterns, gaps):
        _set(self, "lo", lo)
        _set(self, "top", top)
        _set(self, "patterns", patterns)
        _set(self, "gaps", gaps)
        if len(patterns) != len(gaps) - 1:
            raise ValueError("one pattern per row below the top required")
        if min(top, default=1) < 1:
            raise ValueError("top-row positions must be sorted and distinct")
        # top down, the gap lengths each row holds
        above = set(top)
        for k in range(len(patterns), 0, -1):
            pattern = dict(patterns[k - 1])
            if above - pattern.keys() or any(
                min(steps, default=0) < 1 or sum(steps) != p
                for p, steps in pattern.items()
            ):
                raise ValueError(f"row {k} does not split row {k + 1}")
            above = set(_expand(pattern, above))

    @property
    def row_count(self) -> int:
        return len(self.gaps)

    @property
    def hi(self) -> int:
        return self.lo + sum(self.top)

    def steps(self, k: int) -> Iterator[int]:
        """The gap lengths of row k, in order, expanded as they are read."""
        if k == self.row_count:
            return iter(self.top)
        return _expand(dict(self.patterns[k - 1]), self.steps(k + 1))

    def gap_counts(self) -> list[Counter]:
        """Each row's gap count per length, row 1 first, pushed down from
        the top row through the patterns: each pattern is counted once."""
        counts = [Counter(self.top)]
        for pattern in reversed(self.patterns):
            below = Counter()
            for p, steps in pattern:
                if n := counts[0][p]:
                    below.update({s: n * m for s, m in Counter(steps).items()})
            counts.insert(0, below)
        return counts

    def row(self, k: int) -> Iterator[int]:
        """The positions of row k, in order, computed as they are read."""
        return accumulate(self.steps(k), initial=self.lo)

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


def _expand(pattern: dict, gaps) -> Iterator[int]:
    """The steps of ``gaps``, each split by its ``pattern`` in turn."""
    return chain.from_iterable(map(pattern.__getitem__, gaps))


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


def check_two_gaps(counts: Counter, l: int) -> bool:
    """True iff every gap of a row, with gap ``counts`` per length (one
    entry of ``MarkerSystem.gap_counts``), is l or l + 1 long.  The counts
    are exact: row k's gaps are the steps of the patterns of the lengths
    that row k+1 holds, and no others."""
    return counts.keys() <= {l, l + 1}


def check_balanced(ms: MarkerSystem, k: int, window: int) -> bool:
    """True iff every length-``window`` interval inside [lo, hi] fully contains
    at least window/(3 l_k) gaps of length l_k and window/(3 (l_k+1)) gaps of
    length l_k+1, counting only gaps with both ends inside.  Every row runs
    from lo to hi.

    Each length g is checked on its own: with m = ceil(window / (3 g)) and
    ``left`` the sorted left ends of the length-g gaps, the start left[q] + 1
    is the tightest of those whose first gap is left[q + 1], and it holds m
    gaps iff left[q + m] - left[q] <= window + 1 - g.

    The row is read in runs of its coarse row: row k+1 with each gap read as
    its pattern, or at the top row the row itself.  With c the shortest
    coarse gap and r = window // c + 2, the r - 1 coarse gaps after the one
    an interval starts in span more than ``window``, so a run of r coarse
    gaps decides every start in its first gap wherever it occurs.  Below the
    top row each distinct run (``_runs``) is checked once.  At the top row a
    run is ``_CHUNK`` gaps plus r - 1, checked in its first ``_CHUNK`` gaps.
    The last run reaches hi and is checked at every start up to hi - window.
    A run also checks its first marker P as a start; an interval from P lies
    inside [lo, hi] all the same, so the verdict stays exact.
    """
    l = ms.gaps[k - 1]
    if window < 3 * (l + 1):
        raise ValueError("interval too short to constrain both gap lengths")
    if ms.hi - ms.lo < window:
        return True  # no interval fits; vacuously balanced
    if k < ms.row_count:
        step, pattern = 1, dict(ms.patterns[k - 1])
        runs, run = _runs(ms, k + 1, window // min(pattern) + 2)
    else:
        coarse, step, pattern = ms.top, _CHUNK, None
        span = step + window // min(coarse) + 1
        # the head of the last run, the first that reaches the end of the row
        last = max(0, -(-(len(coarse) - span) // step)) * step
        runs = (coarse[i : i + span] for i in range(0, last, step))
        run = coarse[last:]
    for head in runs:
        if not _run_holds(head, pattern, sum(head[:step]), l, window):
            return False
    return _run_holds(run, pattern, sum(run) - window, l, window)


def _runs(ms: MarkerSystem, k: int, n: int) -> tuple[dict, tuple]:
    """The distinct runs of n consecutive row-k gaps, and the row's last n
    gaps (all of a shorter row), never holding a row below the top.  At the
    top row the stored row is sliced.  Below it, a run that starts in the
    pattern of a row-(k+1) gap lies in the patterns of the m gaps from
    there, as any m - 1 patterns hold n - 1 steps, or else in those of the
    row's last m gaps, so the expansions of those m-runs hold them all."""
    if k == ms.row_count:
        return dict.fromkeys(_windows(ms.top, n)), ms.top[-n:]
    pattern = dict(ms.patterns[k - 1])
    m = 1 - (1 - n) // min(map(len, pattern.values()), default=1)
    runs, tail = _runs(ms, k + 1, m)
    runs.setdefault(tail)
    found = dict.fromkeys(
        chain.from_iterable(_windows(_expand(pattern, run), n) for run in runs)
    )
    return found, tuple(deque(_expand(pattern, tail), maxlen=n))


def _windows(steps, n: int) -> Iterator[tuple]:
    """Every n consecutive entries of ``steps``, read once, in order."""
    return zip(*(islice(it, i, None) for i, it in enumerate(tee(steps, n))))


def _run_holds(run, pattern, stop: int, l: int, window: int) -> bool:
    """Whether every checked start of ``run`` up to ``stop``, a position
    from its first marker, holds enough gaps of both lengths inside the
    run.  The gaps are ``run`` itself, or with a ``pattern`` the patterns
    of its gaps in turn."""
    if pattern:
        run = list(_expand(pattern, run))
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
    top = gaps[-1]
    d = decompose_gap(columns, top)
    n = d.a + d.b
    # spread the b long gaps evenly among the a short ones: gap i is long
    # iff (i + 1) * b / n passes an integer that i * b / n does not reach
    short_long = (top, top + 1)
    steps = tuple(short_long[(i + 1) * d.b // n > i * d.b // n] for i in range(n))
    patterns, above = [], set(steps)
    for l in reversed(gaps[:-1]):
        # split each gap length of the row above once into its step pattern
        # (a steps of l, then b of l + 1); the row is those patterns in turn
        pattern = {p: _split_steps(p, l) for p in sorted(above)}
        patterns.insert(0, tuple(pattern.items()))
        above = set(chain.from_iterable(pattern.values()))
    return MarkerSystem(origin, steps, tuple(patterns), gaps)


def balance_windows(gaps: Sequence[int]) -> tuple[int, ...]:
    """Per row, the interval length at which build_marker_system certifies
    balance: 16*(coarse gap + 2) below the top row (each window holds >= 14
    full coarse gaps whose short/long shares are each >= 5/12 of the gap),
    48*l_K at the top (even interleaving)."""
    return (*(16 * (l + 2) for l in gaps[1:]), 48 * gaps[-1])


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
