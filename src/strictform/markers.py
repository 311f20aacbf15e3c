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
from operator import eq, ge, gt, lt, sub
from pathlib import Path
from typing import Iterator, Sequence

from ._value import Value, _set

# entries of a row that check_balanced and write_mrk read at a time
_CHUNK = 8192
# starts of check_balanced whose spans one subtraction bounds
_STRIDE = 16


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
    ``cuts`` and ``flags`` read a row over a window, as positions or as one
    flag byte per column; purify renders its rows once and repairs those.

    ``gaps[k-1]`` is the base gap l_k of row k.  ``balance_windows`` records,
    per row, the interval length at which the constructor guarantees the
    balanced-frequency condition (None for hand-built systems).
    """

    __slots__ = ("starts", "lengths", "gaps", "lo", "hi", "balance_windows")

    def __init__(self, starts, lengths, gaps, lo, hi, balance_windows=None):
        _set(self, "starts", starts)
        _set(self, "lengths", lengths)
        _set(self, "gaps", gaps)
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "balance_windows", balance_windows)
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

    Only the start lo and the start p + 1 just after each marker p are
    checked.  The gaps inside an interval [t, t + window] are those between
    the first marker at or after t and the last at or before t + window.
    Between two such starts the first marker stays put while the last can
    only move right, so both counts only rise; each is smallest at a checked
    start.

    Each length g is then checked on its own, as the m-th gap of that
    length: with m = ceil(window / (3 g)) and ``left`` the sorted left ends
    of the length-g gaps, the ones inside [t, t + window] are those with
    left end in [t, t + window - g], a run of consecutive entries of
    ``left``.  The interval holds m of them iff the m-th entry from the
    first one at or after t is at most t + window - g.  Among checked
    starts with the same first entry r, the earliest is the tightest; it is
    lo, or left[r-1] + 1 when left[r-1] is a checked marker.

    One pass over the row serves both lengths: each ``_CHUNK`` of gap
    lengths is turned into positions once, and the left ends of either
    length are picked from them into that length's buffer.  The pass holds
    O(_CHUNK + m_l + m_{l+1}) ints, never a row's positions.

    The spans are screened ``_STRIDE`` starts at a time: ``left`` is
    sorted, so for the S starts q = a .. a + S - 1 every span
    left[q + m] - left[q] is at most left[a + S - 1 + m] - left[a].  A
    stride whose bound is within the limit holds at every start; only a
    stride whose bound exceeds it has its S spans checked one by one, so
    the verdict is exact.
    """
    l = ms.gaps[k - 1]
    if window < 3 * (l + 1):
        raise ValueError("interval too short to constrain both gap lengths")
    if ms.hi - ms.lo < window:
        return True  # no interval fits; vacuously balanced
    lo, last = ms.lo, ms.hi - window
    # the left ends not yet settled, per undecided length; the start lo
    # obeys the rule of a start left[q] + 1 with lo - 1 in place of left[q]
    pending = {l: [lo - 1], l + 1: [lo - 1]}
    steps, position = ms.lengths[k - 1], ms.starts[k - 1]
    for i in range(0, len(steps), _CHUNK):
        chunk = steps[i : i + _CHUNK]
        ends = list(accumulate(chunk, initial=position))
        position = ends[-1]
        if ends[0] < lo:  # the gaps that start before lo never count
            cut = bisect_left(ends, lo)
            chunk, ends = chunk[cut:], ends[cut:]
        for g, buf in list(pending.items()):
            buf.extend(compress(ends, map(eq, chunk, repeat(g))))
            verdict = _settle(buf, g, last, window)
            if verdict is False:
                return False
            if verdict:
                del pending[g]
        if not pending:
            return True
        # drop this chunk's positions before the next chunk's are made
        del chunk, ends
    return False  # a start before last has no m-th gap of some length


def _settle(buf: list[int], g: int, last: int, window: int) -> bool | None:
    """Check the starts whose runs end in ``buf``, the sorted left ends of
    the length-g gaps read so far (lo - 1 first), less those already
    checked.  True or False once every start before ``last`` is decided;
    else None, with ``buf`` cut to its last m entries, whose runs end in a
    later chunk.

    The run of the start left[q] + 1 ends at its m-th entry left[q + m],
    and the interval holds it iff left[q + m] - left[q] <= window + 1 - g.
    """
    m = -(-window // (3 * g))
    bound = window + 1 - g
    stop = bisect_left(buf, last)  # the starts buf[:stop] are checked
    if stop + m <= len(buf):
        return _spans_hold(buf, stop, m, bound)
    if len(buf) > m:
        # every start in buf whose run ends in buf lies before last
        if not _spans_hold(buf, len(buf) - m, m, bound):
            return False
        del buf[:-m]
    return None


def _spans_hold(buf: list[int], n: int, m: int, bound: int) -> bool:
    """True iff buf[q + m] - buf[q] <= bound for every q < n, with the
    stride screen of check_balanced: one subtraction per ``_STRIDE``
    starts, then the exact spans of the strides it does not clear and of
    the starts after the last whole stride."""
    full = n // _STRIDE * _STRIDE
    over = compress(
        range(0, full, _STRIDE),
        map(lt, repeat(bound),
            map(sub, buf[_STRIDE - 1 + m :: _STRIDE], buf[:full:_STRIDE])),
    )
    for a in chain(over, [full]):  # then the starts after the last stride
        end = min(a + _STRIDE, n)
        if max(map(sub, buf[a + m : end + m], buf[a:end]), default=0) > bound:
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

    # certified balance windows: 16*(coarse gap + 2) below the top row (each
    # window holds >= 14 full coarse gaps whose short/long shares are each
    # >= 5/12 of the gap), 48*l_K at the top (even interleaving)
    balance = tuple(
        16 * (gaps[k + 1] + 2) if k + 1 < rows else 48 * gaps[-1]
        for k in range(rows)
    )
    return MarkerSystem(
        (origin,) * rows, tuple(per_row), gaps, origin, origin + columns, balance
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
