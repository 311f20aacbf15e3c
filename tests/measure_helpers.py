"""Measure helpers that only the tests use: cylinder weights, point masses,
mixtures and concatenation.  The program takes no mixture and glues no
rectangles; these build the references that the tests compare against."""

from collections import Counter
from fractions import Fraction

from strictform.arrays import Rectangle
from strictform.measures import (
    EmpiricalMeasure,
    TruncationMismatch,
    empirical_measure,
)


def weight(m, q):
    """q's weight in m: its count over the offsets of its dimension."""
    n, counts = m.dims.get((q.rows, q.width), (1, {}))
    return Fraction(counts.get(q.cells, 0), n)


def weights(m):
    """Every cylinder weight of m, sorted by dimension, then by cells."""
    return {
        Rectangle.from_rows(key): Fraction(counts[key], n)
        for _, (n, counts) in sorted(m.dims.items())
        for key in sorted(counts)
    }


def point_mass(q, truncation):
    """The measure of the constant stream of q's single symbol per row; q must
    be one column wide."""
    if q.width != 1:
        raise ValueError("point mass expects a single-column rectangle")
    max_rows, max_width = truncation
    wide = Rectangle.from_rows(
        [[row[0]] * max(max_width, 1) for row in q.cells[:max_rows]]
    )
    return empirical_measure(wide, truncation)


def mixture(measures, lambdas):
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


def concat(rectangles):
    """Glue rectangles of equal row counts left to right."""
    if not rectangles:
        raise ValueError("nothing to concatenate")
    rows = rectangles[0].rows
    if any(r.rows != rows for r in rectangles):
        raise ValueError("row counts differ")
    return Rectangle(
        tuple(
            tuple(v for r in rectangles for v in r.cells[i]) for i in range(rows)
        )
    )
