"""Empirical measures on rectangles, the weighted-L1 rectangle metric,
mixtures and concatenation.

All weights and distances are exact fractions; floats appear only when a
caller formats a report.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import islice, product
from typing import Sequence

from ._value import Value, _set
from .arrays import Rectangle

Truncation = tuple[int, int]  # (max rows, max width)


class TruncationMismatch(ValueError):
    """Operands carry different truncations."""


def frequency(r: Rectangle, q: Rectangle) -> Fraction:
    """Sliding-window frequency of q among the sub-rectangles of r.

    Zero when q has more rows or is wider than r; otherwise the number of
    horizontal offsets at which q occurs, divided by the number of offsets.
    Marker flags take part in equality.
    """
    if q.rows > r.rows or q.width > r.width:
        return Fraction(0)
    hits = _slab_counts(r, q.rows, q.width)[q.cells + q.marks]
    return Fraction(hits, r.width - q.width + 1)


class EmpiricalMeasure(Value):
    """Cylinder weights up to a truncation: for each dimension (rows, width)
    within it, ``dims`` holds ``(n, counts)`` with counts summing to n, and q
    weighs ``counts[q.cells + q.marks] / n`` (n = 1 for fractional weights)."""

    __slots__ = ("truncation", "dims")

    def __init__(self, truncation, dims):
        _set(self, "truncation", truncation)
        _set(self, "dims", dims)

    def weight(self, q: Rectangle) -> Fraction:
        n, counts = self.dims.get((q.rows, q.width), (1, {}))
        return Fraction(counts.get(q.cells + q.marks, 0), n)

    @property
    def weights(self) -> dict[Rectangle, Fraction]:
        # every cylinder weight, sorted by dimension, then by cells and flags
        return {
            Rectangle(key[:rows], key[rows:]): Fraction(counts[key], n)
            for (rows, _), (n, counts) in sorted(self.dims.items())
            for key in sorted(counts)
        }


def _slab_counts(r: Rectangle, rows: int, width: int) -> Counter:
    # one slab per horizontal offset: each row's width-wide windows, zipped
    # across the cell and flag rows, counted as raw ``cells + marks`` tuples
    # in one lazy pass (building the column tuples first measured slower and
    # larger); these tuples are the keys an EmpiricalMeasure stores.
    # The iterators are unpacked from lists, not generators: unpacking a
    # generator builds a resized tuple, and freeing it grew CPython's tuple
    # free list by one per call until it held 2,000 tuples (about 90 KB)
    # for the rest of a purify run.
    windows = [
        zip(*[islice(row, i, None) for i in range(width)])
        for row in r.cells[:rows] + r.marks[:rows]
    ]
    return Counter(zip(*windows))


def empirical_measure(
    r: Rectangle, truncation: Truncation
) -> EmpiricalMeasure:
    """Weights(q) = frequency(r, q) for every q within the truncation."""
    max_rows, max_width = truncation
    if max_rows < 1 or max_width < 1:
        raise ValueError("truncation must be positive in both dimensions")
    if r.rows < max_rows or r.width < max_width:
        raise ValueError("rectangle smaller than the requested truncation")
    dims = {
        (rows, width): (r.width - width + 1, _slab_counts(r, rows, width))
        for rows, width in product(range(1, max_rows + 1), range(1, max_width + 1))
    }
    return EmpiricalMeasure(truncation, dims)


def point_mass(q: Rectangle, truncation: Truncation) -> EmpiricalMeasure:
    """The measure of the constant stream of q's single symbol per row; q must
    be one column wide."""
    if q.width != 1:
        raise ValueError("point mass expects a single-column rectangle")
    max_rows, max_width = truncation
    wide = Rectangle.from_rows(
        [[row[0]] * max(max_width, 1) for row in q.cells[:max_rows]]
    )
    return empirical_measure(wide, truncation)


class TruncatedDistance(Value):
    """A truncated metric value plus a certified bound on the omitted tail."""

    __slots__ = ("value", "tail_bound")

    def __init__(self, value, tail_bound):
        _set(self, "value", value)
        _set(self, "tail_bound", tail_bound)
        if value < 0 or value + tail_bound > 2:
            raise ValueError("distance outside [0, 2]")


def _as_measure(
    x: Rectangle | EmpiricalMeasure, truncation: Truncation
) -> EmpiricalMeasure:
    if isinstance(x, Rectangle):
        return empirical_measure(x, truncation)
    if x.truncation != truncation:
        raise TruncationMismatch(
            f"stored truncation {x.truncation} != requested {truncation}"
        )
    return x


def dstar(
    a: Rectangle | EmpiricalMeasure,
    b: Rectangle | EmpiricalMeasure,
    truncation: Truncation,
) -> TruncatedDistance:
    """Sum over dimensions (l, r) of 2^(-l-r) times the L1 distance between
    the two weight vectors of that dimension, cut at the truncation."""
    num, den = _l1_sum(_as_measure(a, truncation), _as_measure(b, truncation))
    # the omitted tail: 2 (1 - (1 - 2^-R) (1 - 2^-W)) as one fraction
    max_rows, max_width = truncation
    whole = 1 << (max_rows + max_width)
    covered = ((1 << max_rows) - 1) * ((1 << max_width) - 1)
    return TruncatedDistance(
        Fraction(num, den), Fraction(2 * (whole - covered), whole)
    )


def _l1_sum(
    ma: EmpiricalMeasure, mb: EmpiricalMeasure
) -> tuple[int | Fraction, int | Fraction]:
    """The truncated distance of two measures of one truncation as an
    unreduced ``(num, den)`` with den > 0, so no Fraction is built; num and
    den are ints unless a measure holds fractional counts."""
    num, den = 0, 1
    for (rows, width), (na, ca) in ma.dims.items():
        nb, cb = mb.dims[rows, width]
        # na * nb times the L1 distance of this dimension, in integers
        diff = sum(abs(ca.get(k, 0) * nb - cb.get(k, 0) * na) for k in {*ca, *cb})
        d = na * nb << (rows + width)
        num, den = num * d + diff * den, den * d
    return num, den


def mixture(
    measures: Sequence[EmpiricalMeasure], lambdas: Sequence[Fraction]
) -> EmpiricalMeasure:
    """Pointwise convex combination; per-dimension sums remain one."""
    if len(measures) != len(lambdas) or not measures:
        raise ValueError("one weight per measure required")
    if any(w < 0 for w in lambdas) or sum(lambdas) != 1:
        raise ValueError("mixture weights must be nonnegative and sum to 1")
    trunc = measures[0].truncation
    if any(m.truncation != trunc for m in measures):
        raise TruncationMismatch("mixture components must share a truncation")
    dims = {dim: (1, Counter()) for dim in measures[0].dims}
    for m, lam in zip(measures, lambdas):
        if lam == 0:
            continue
        for dim, (n, counts) in m.dims.items():
            for key, c in counts.items():
                dims[dim][1][key] += lam * Fraction(c, n)
    return EmpiricalMeasure(trunc, dims)


def concat(rectangles: Sequence[Rectangle]) -> Rectangle:
    """Glue rectangles of equal row counts left to right.  A marker flag is
    set on the last cell of every internal junction, in every row."""
    if not rectangles:
        raise ValueError("nothing to concatenate")
    rows = rectangles[0].rows
    if any(r.rows != rows for r in rectangles):
        raise ValueError("row counts differ")
    cells = tuple(
        tuple(v for r in rectangles for v in r.cells[i]) for i in range(rows)
    )
    marks = []
    for i in range(rows):
        row: list[bool] = []
        for j, r in enumerate(rectangles):
            flags = list(r.marks[i])
            if j < len(rectangles) - 1:
                flags[-1] = True
            row.extend(flags)
        marks.append(tuple(row))
    return Rectangle(cells, tuple(marks))
