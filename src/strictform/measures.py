"""Empirical measures on rectangles and the weighted-L1 rectangle metric.

All weights and distances are exact fractions; floats appear only when a
caller formats a report.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import islice, product

from ._value import Value, _set
from .arrays import Rectangle

Truncation = tuple[int, int]  # (max rows, max width)


class TruncationMismatch(ValueError):
    """Operands carry different truncations."""


class EmpiricalMeasure(Value):
    """Cylinder weights up to a truncation: for each dimension (rows, width)
    within it, ``dims`` holds ``(n, counts)`` with counts summing to n, and q
    weighs ``counts[q.cells] / n`` (n = 1 for fractional weights)."""

    __slots__ = ("truncation", "dims")

    def __init__(self, truncation, dims):
        _set(self, "truncation", truncation)
        _set(self, "dims", dims)


def _slab_counts(r: Rectangle, rows: int, width: int) -> Counter:
    # one slab per horizontal offset: each cell row's width-wide windows,
    # zipped across the rows, counted as raw ``cells`` tuples in one lazy
    # pass (building the column tuples first measured slower and larger);
    # these tuples are the keys an EmpiricalMeasure stores.
    # The iterators are unpacked from lists, not generators: unpacking a
    # generator builds a resized tuple, and freeing it grew CPython's tuple
    # free list by one per call until it held 2,000 tuples (about 90 KB)
    # for the rest of a purify run.
    windows = [
        zip(*[islice(row, i, None) for i in range(width)])
        for row in r.cells[:rows]
    ]
    return Counter(zip(*windows))


def empirical_measure(
    r: Rectangle, truncation: Truncation
) -> EmpiricalMeasure:
    """Weights(q) for every cell block q within the truncation: the number
    of horizontal offsets at which q's cells occur in the first q.rows rows
    of r, over the r.width - q.width + 1 offsets.

    One slab pass counts the full truncation (R, W).  When the window has
    few distinct top keys, every other dimension (rows, width) is derived
    from it: the slab of (rows, width) at offset i is the top slab at offset
    i cut to its first ``rows`` rows and their first ``width`` columns, so
    each distinct top key is projected and its count added, and only the
    W - width offsets past the last full-width slab are counted directly.
    A projected key first appears at the offset of the first top key that
    projects to it, so keys, counts and the insertion order of ``dims`` and
    of each Counter are those of a separate pass per dimension.  The
    projection loop runs over the distinct top keys, at most
    min(n - W + 1, |A|^(R*W)) of them for A the symbols of r, a Python step
    each where a slab pass makes a C step per offset.  On 1-3 rows and 8 to
    5,187 columns, from 1x2 to 3x5 and at 1x12, it measured the faster only
    while the top keys number at most about a quarter of the n - W + 1
    offsets, so only then is it taken.  Any other window, such as a
    Bernoulli(1/2) row at 1x12 (about 2,900 top keys among 5,176 offsets),
    gets a slab pass per dimension.
    """
    max_rows, max_width = truncation
    if max_rows < 1 or max_width < 1:
        raise ValueError("truncation must be positive in both dimensions")
    if r.rows < max_rows or r.width < max_width:
        raise ValueError(
            f"truncation {max_rows}x{max_width} exceeds a {r.rows}x{r.width} rectangle"
        )
    n = r.width
    top = _slab_counts(r, max_rows, max_width)
    project = 4 * len(top) <= n - max_width + 1
    dims = {}
    for rows, width in product(range(1, max_rows + 1), range(1, max_width + 1)):
        if rows == max_rows and width == max_width:
            counts = top
        elif not project:
            counts = _slab_counts(r, rows, width)
        else:
            counts = Counter()
            for key, c in top.items():
                counts[tuple([x[:width] for x in key[:rows]])] += c
            cell_rows = r.cells[:rows]
            counts.update(
                tuple([row[i : i + width] for row in cell_rows])
                for i in range(n - max_width + 1, n - width + 1)
            )
        dims[rows, width] = (n - width + 1, counts)
    return EmpiricalMeasure(truncation, dims)


def _measure_key(r: Rectangle, truncation: Truncation) -> tuple:
    """A key of ``empirical_measure(r, truncation)``: the sorted distinct
    top (R, W) slabs of r, their counts, and the last W - 1 cells of rows
    1..R.  Rectangles with equal keys have equal measures.

    Proof: the counts sum to the n - W + 1 top offsets, which fixes n.  For
    a dimension (rows, width) and an offset i <= n - W, the slab at i is the
    top slab at i cut to its first rows rows and width columns, so the
    multiset of top slabs fixes the count of every such slab.  The other
    offsets, n - W < i <= n - width, put their slab inside the last W - 1
    columns of rows 1..R, which the key holds.  So the counts of every
    dimension, and each n - width + 1, are fixed by the key.
    """
    rows, width = truncation
    top = _slab_counts(r, rows, width)
    # no Counter.items(): sorting its 2-tuples filled CPython's tuple free
    # list, and a purify run's peak RSS rose by one 128 KB step
    keys = sorted(top)
    tail = tuple([row[len(row) - width + 1 :] for row in r.cells[:rows]])
    return tuple(keys), tuple([top[k] for k in keys]), tail


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
