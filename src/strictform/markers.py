"""Hierarchical marker systems with two gap sizes per row.

Positions are absolute: a marker at position n is the cut between columns n
and n+1.  Row k uses a base gap l_k, so interior gaps are l_k or l_k+1, and
every marker of row k+1 must also be a marker of row k (congruency).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import lt
from pathlib import Path
from typing import Sequence


class NoDecomposition(ValueError):
    """The gap cannot be split into pieces of length l and l+1."""


class InsufficientRoom(ValueError):
    """No flanking markers leave room to re-decompose around the target."""


@dataclass(frozen=True)
class GapDecomposition:
    """p = a*l + b*(l+1) with both counts positive."""

    a: int
    b: int
    l: int

    @property
    def total(self) -> int:
        return self.a * self.l + self.b * (self.l + 1)


@dataclass(frozen=True)
class MarkerSystem:
    """Sorted marker positions per row over the column range [lo, hi].

    ``gaps[k-1]`` is the base gap l_k of row k.  ``balance_windows`` records,
    per row, the interval length at which the constructor guarantees the
    balanced-frequency condition (None for hand-built systems).
    """

    positions: tuple[tuple[int, ...], ...]
    gaps: tuple[int, ...]
    lo: int
    hi: int
    balance_windows: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.positions) != len(self.gaps):
            raise ValueError("one base gap per row required")
        for row in self.positions:
            if not all(map(lt, row, row[1:])):
                raise ValueError("positions must be sorted and distinct")

    @property
    def row_count(self) -> int:
        return len(self.positions)

    def row(self, k: int) -> tuple[int, ...]:
        return self.positions[k - 1]

    def positions_between(self, k: int, first: int, last: int) -> list[int]:
        ps = self.positions[k - 1]
        return list(ps[bisect_left(ps, first) : bisect_right(ps, last)])

    def with_row(self, k: int, new_positions: Sequence[int]) -> "MarkerSystem":
        rows = list(self.positions)
        rows[k - 1] = tuple(sorted(new_positions))
        return MarkerSystem(
            tuple(rows), self.gaps, self.lo, self.hi, self.balance_windows
        )


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


def subdivide_gap(start: int, end: int, l: int) -> list[int]:
    """Interior cut positions giving a gaps of length l followed by b gaps of
    length l+1 between the existing markers at ``start`` and ``end``, with
    the column mass split near-evenly between the two lengths."""
    d = _decompose_balanced(end - start, l)
    cuts, cur = [], start
    for _ in range(d.a):
        cur += l
        cuts.append(cur)
    for _ in range(d.b - 1):
        cur += l + 1
        cuts.append(cur)
    return cuts


def check_two_gaps(ms: MarkerSystem, k: int) -> bool:
    ps, l = ms.row(k), ms.gaps[k - 1]
    return all(b - a in (l, l + 1) for a, b in zip(ps, ps[1:]))


def check_balanced(ms: MarkerSystem, k: int, window: int) -> bool:
    """True iff every length-``window`` interval inside [lo, hi] fully contains
    at least window/(3 l_k) gaps of length l_k and window/(3 (l_k+1)) gaps of
    length l_k+1.  Only gaps with both endpoints inside the interval count.

    Only the start lo and the start p + 1 just after each marker p are
    checked.  The gaps inside an interval [t, t + window] are those between
    the first marker at or after t and the last at or before t + window.
    Between two such starts the first marker stays put while the last can
    only move right, so both counts only rise; each is smallest at a checked
    start.
    """
    l = ms.gaps[k - 1]
    if window < 3 * (l + 1):
        raise ValueError("interval too short to constrain both gap lengths")
    ps = ms.row(k)
    if ms.hi - ms.lo < window:
        return True  # no interval fits; vacuously balanced
    last = ms.hi - window  # the last interval start
    n = len(ps)
    # the counts cover the gaps between markers i and j
    i = j = bisect_left(ps, ms.lo)
    n_short = n_long = 0
    t = ms.lo
    while True:
        end = t + window
        while j + 1 < n and ps[j + 1] <= end:
            g = ps[j + 1] - ps[j]
            if g == l:
                n_short += 1
            elif g == l + 1:
                n_long += 1
            j += 1
        # exact comparison against window/(3l) and window/(3(l+1))
        if 3 * l * n_short < window or 3 * (l + 1) * n_long < window:
            return False
        # the next start lies just past marker i, so the gap after it leaves
        # (it was counted: the counts passed, so j > i)
        t = ps[i] + 1
        if t > last:
            return True
        g = ps[i + 1] - ps[i]
        if g == l:
            n_short -= 1
        elif g == l + 1:
            n_long -= 1
        i += 1


def check_congruency(ms: MarkerSystem) -> bool:
    for k in range(1, ms.row_count):
        upper = set(ms.row(k))
        if any(p not in upper for p in ms.row(k + 1)):
            return False
    return True


def repair_congruency(
    positions: Sequence[int], target: int, l: int
) -> tuple[int, ...]:
    """Rearrange markers of one row so that ``target`` becomes a marker.

    Markers farther than 9 l^2 + l from the target are untouched; the
    flanking markers are re-decomposed on both sides so all gaps stay in
    {l, l+1}.  Idempotent when the target is already a marker.
    """
    ps = tuple(sorted(positions))
    if target in ps:
        return ps
    radius = 9 * l * l + l
    left = _flank(ps, target, l, radius, side=-1)
    right = _flank(ps, target, l, radius, side=+1)
    keep = [p for p in ps if p <= left or p >= right]
    keep += subdivide_gap(left, target, l)
    keep.append(target)
    keep += subdivide_gap(target, right, l)
    return tuple(sorted(keep))


def _flank(ps: tuple[int, ...], target: int, l: int, radius: int, side: int) -> int:
    """Nearest marker on the given side whose stretch to the target
    decomposes; widens outward but never beyond the repair radius."""
    if side < 0:
        idx = bisect_left(ps, target) - 1
        candidates = ps[idx::-1] if idx >= 0 else ()
    else:
        idx = bisect_right(ps, target)
        candidates = ps[idx:]
    tried = 0
    for p in candidates:
        if abs(target - p) > radius:
            break
        tried += 1
        try:
            decompose_gap(abs(target - p), l)
        except NoDecomposition:
            continue
        return p
    if not tried:
        raise InsufficientRoom(
            f"no marker within {radius} on side {side:+d} of {target}"
        )
    raise NoDecomposition(
        f"no flanking marker within {radius} of {target} re-decomposes"
    )


def build_marker_system(
    columns: int, origin: int, gaps: Sequence[int]
) -> MarkerSystem:
    """Top-down hierarchical construction over the column range
    [origin, origin + columns].

    The top row splits the whole range by decompose_gap with its short and
    long gaps evenly interleaved; every lower row refines the gaps of the row
    above.  Requires l_{k+1} >= 9 l_k^2 so every refinement succeeds, and
    columns = a*l_K + b*(l_K+1) for some positive a, b (no two-gap row exists
    otherwise).
    """
    gaps = tuple(gaps)
    if not gaps or any(l < 2 for l in gaps):
        raise ValueError("base gaps must be >= 2")
    for a, b in zip(gaps, gaps[1:]):
        if b < 9 * a * a:
            raise ValueError(f"gap sequence must grow: {b} < 9*{a}^2")
    rows = len(gaps)
    lo, hi = origin, origin + columns

    top = gaps[-1]
    d = decompose_gap(columns, top)
    positions: list[int] = [lo]
    placed_long = 0
    for i in range(d.a + d.b):
        # spread the b long gaps evenly among the a short ones
        want_long = (i + 1) * d.b // (d.a + d.b)
        step = top + 1 if want_long > placed_long else top
        placed_long = want_long
        positions.append(positions[-1] + step)
    per_row: list[tuple[int, ...]] = [tuple(positions)]

    for k in range(rows - 2, -1, -1):
        above = per_row[0]
        l = gaps[k]
        # every gap above is l_{k+1} or l_{k+1} + 1 long: split each length once
        offsets: dict[int, list[int]] = {}
        refined: list[int] = []
        for a, b in zip(above, above[1:]):
            cuts = offsets.get(b - a)
            if cuts is None:
                cuts = offsets[b - a] = [0, *subdivide_gap(0, b - a, l)]
            refined.extend(map(a.__add__, cuts))
        refined.append(above[-1])
        per_row.insert(0, tuple(refined))

    # certified balance windows: 16*(coarse gap + 2) below the top row (each
    # window holds >= 14 full coarse gaps whose short/long shares are each
    # >= 5/12 of the gap), 48*l_K at the top (even interleaving)
    balance = tuple(
        16 * (gaps[k + 1] + 2) if k + 1 < rows else 48 * gaps[-1]
        for k in range(rows)
    )
    return MarkerSystem(tuple(per_row), gaps, lo, hi, balance)


# --- .mrk text format: one line per row, space-separated absolute positions.


def write_mrk(path: str | Path, ms: MarkerSystem) -> None:
    lines = [" ".join(str(p) for p in row) for row in ms.positions]
    Path(path).write_text("\n".join(lines) + "\n")


def read_mrk(
    path: str | Path, gaps: Sequence[int], lo: int, hi: int
) -> MarkerSystem:
    rows = [
        tuple(int(t) for t in line.split())
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]
    return MarkerSystem(tuple(rows), tuple(gaps), lo, hi)
