import hashlib
import tempfile
import tracemalloc
from collections import Counter
from itertools import accumulate, chain
from operator import sub
from pathlib import Path
from unittest import mock

import pytest
from bisect import bisect_left, bisect_right
from hypothesis import find, given, settings, strategies as st

from fractions import Fraction

from strictform import markers
from strictform.cli import _marker_checks
from strictform.markers import (
    GapDecomposition,
    MarkerSystem,
    NoDecomposition,
    _decompose_balanced,
    balance_windows,
    build_marker_system,
    check_balanced,
    check_two_gaps,
    decompose_gap,
    write_mrk,
)

from marker_helpers import PositionRows, position_rows, reference_check_congruency


def subdivide_gap(start, end, l):
    """Interior cut positions giving a gaps of length l followed by b gaps of
    length l+1 between the existing markers at ``start`` and ``end``, with
    the column mass split near-evenly between the two lengths.  A test
    helper: build_marker_system splits each gap length once instead."""
    d = _decompose_balanced(end - start, l)
    cuts = [start]
    for step in [l] * d.a + [l + 1] * d.b:
        cuts.append(cuts[-1] + step)
    return cuts[1:-1]


def reference_decompose_gap(p, l):
    """The count-ratio split as first written, kept as the reference."""
    if l < 2:
        raise ValueError("base gap must be at least 2")
    if p < 2 * l + 1:
        raise NoDecomposition(f"gap {p} too short for pieces {l},{l + 1}")
    b_lo = p % l or l
    b_hi = (p - l) // (l + 1)
    if b_hi < b_lo:
        raise NoDecomposition(f"gap {p} has no positive split for l={l}")
    b_hi = b_lo + ((b_hi - b_lo) // l) * l
    cross = p // (2 * l + 1)
    candidates = set()
    for b in (
        b_lo + ((cross - b_lo) // l) * l,
        b_lo + ((cross - b_lo) // l + 1) * l,
        b_lo,
        b_hi,
    ):
        if b_lo <= b <= b_hi:
            candidates.add(b)
    best = None
    best_pair = None
    for b in sorted(candidates):
        a = (p - b * (l + 1)) // l
        key = (abs(Fraction(a, b) - 1), b)
        if best is None or key < best:
            best, best_pair = key, (a, b)
    return GapDecomposition(best_pair[0], best_pair[1], l)


def reference_decompose_balanced(p, l):
    """The mass-balance split as first written, kept as the reference."""
    if l < 2:
        raise ValueError("base gap must be at least 2")
    if p < 2 * l + 1:
        raise NoDecomposition(f"gap {p} too short for pieces {l},{l + 1}")
    b_lo = p % l or l
    b_hi = (p - l) // (l + 1)
    if b_hi < b_lo:
        raise NoDecomposition(f"gap {p} has no positive split for l={l}")
    b_hi = b_lo + ((b_hi - b_lo) // l) * l
    cross = p // (2 * (l + 1))
    best = None
    best_pair = None
    t_cross = (cross - b_lo) // l
    for t in (t_cross, t_cross + 1, 0, (b_hi - b_lo) // l):
        b = b_lo + t * l
        if not b_lo <= b <= b_hi:
            continue
        a = (p - b * (l + 1)) // l
        key = (abs(a * l - b * (l + 1)), abs(Fraction(a, b) - 1), b)
        if best is None or key < best:
            best, best_pair = key, (a, b)
    return GapDecomposition(best_pair[0], best_pair[1], l)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "fn, reference",
    [
        (decompose_gap, reference_decompose_gap),
        (_decompose_balanced, reference_decompose_balanced),
    ],
)
def test_decomposition_matches_reference(fn, reference):
    # every gap up to 3000 for every base gap 2..12, failures included
    for l in range(2, 13):
        for p in range(1, 3001):
            assert _outcome(fn, p, l) == _outcome(reference, p, l), (p, l)


def reference_check_balanced(ms, k, window):
    """check_balanced as first written: two bisects per interval start."""
    l = ms.gaps[k - 1]
    if window < 3 * (l + 1):
        raise ValueError("interval too short to constrain both gap lengths")
    ps = tuple(ms.row(k))
    if ms.hi - ms.lo < window:
        return True
    short = [0]
    long = [0]
    for a, b in zip(ps, ps[1:]):
        short.append(short[-1] + (b - a == l))
        long.append(long[-1] + (b - a == l + 1))
    for t in range(ms.lo, ms.hi - window + 1):
        i = bisect_left(ps, t)
        j = bisect_right(ps, t + window) - 1
        if j <= i:
            return False
        n_short = short[j] - short[i]
        n_long = long[j] - long[i]
        if 3 * l * n_short < window or 3 * (l + 1) * n_long < window:
            return False
    return True


def reference_check_balanced_sweep(ms, k, window):
    """check_balanced as a two-pointer sweep over the marker events, kept as
    the reference for the per-length run check."""
    l = ms.gaps[k - 1]
    if window < 3 * (l + 1):
        raise ValueError("interval too short to constrain both gap lengths")
    ps = tuple(ms.row(k))
    if ms.hi - ms.lo < window:
        return True
    last = ms.hi - window
    n = len(ps)
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
        if 3 * l * n_short < window or 3 * (l + 1) * n_long < window:
            return False
        t = ps[i] + 1
        if t > last:
            return True
        g = ps[i + 1] - ps[i]
        if g == l:
            n_short -= 1
        elif g == l + 1:
            n_long -= 1
        i += 1


def reference_check_two_gaps(ms, k):
    """check_two_gaps as a per-gap loop over row k."""
    ps, l = tuple(ms.row(k)), ms.gaps[k - 1]
    return all(b - a in (l, l + 1) for a, b in zip(ps, ps[1:]))


def two_gaps(ms, k):
    """check_two_gaps on row k of a MarkerSystem, from its gap counts."""
    return check_two_gaps(ms.gap_counts()[k - 1], ms.gaps[k - 1])


def reference_balance_windows(gaps):
    """The certified windows as build_marker_system first stored them."""
    rows = len(gaps)
    return tuple(
        16 * (gaps[k + 1] + 2) if k + 1 < rows else 48 * gaps[-1]
        for k in range(rows)
    )


def reference_build_marker_system(columns, origin, gaps):
    """build_marker_system as first written: one split per gap, then a sort."""
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
    positions = [lo]
    placed_long = 0
    for i in range(d.a + d.b):
        want_long = (i + 1) * d.b // (d.a + d.b)
        step = top + 1 if want_long > placed_long else top
        placed_long = want_long
        positions.append(positions[-1] + step)
    per_row = [tuple(positions)]
    for k in range(rows - 2, -1, -1):
        above = per_row[0]
        l = gaps[k]
        refined = list(above)
        for a, b in zip(above, above[1:]):
            refined.extend(subdivide_gap(a, b, l))
        per_row.insert(0, tuple(sorted(refined)))
    return PositionRows(tuple(per_row), gaps, lo, hi)


def top_row(lengths, l, origin=0):
    """A one-row system, as build_marker_system makes it (``patterns``
    empty): the row has the given gap lengths and runs from lo = origin to
    hi, its last marker."""
    return MarkerSystem(origin, tuple(lengths), (), (l,))


def substitution(top, pattern, gaps, origin=0):
    """A two-row system: row 2 has the gap lengths ``top``, and row 1
    splits each gap of row 2 by ``pattern``, a map from a length to its
    steps.  Both rows run from lo = origin to hi."""
    return MarkerSystem(origin, tuple(top), (tuple(pattern.items()),), tuple(gaps))


def expanded_rows(top, patterns, origin):
    """The rows of a system as tuples of positions: the top row from
    ``origin``, and each lower row the row above with every gap split by
    the pattern of its length.  The reference for lazy rows."""
    rows = [tuple(accumulate(top, initial=origin))]
    for pattern in reversed(patterns):
        pattern, above = dict(pattern), rows[0]
        row = [above[0]]
        for a, b in zip(above, above[1:]):
            for step in pattern[b - a]:
                row.append(row[-1] + step)
        rows.insert(0, tuple(row))
    return tuple(rows)


class TestDecomposeGap:
    def test_unique_solution(self):
        d = decompose_gap(7, 3)
        assert (d.a, d.b) == (1, 1)

    def test_best_ratio_among_eight(self):
        d = decompose_gap(100, 3)
        assert (d.a, d.b) == (16, 13)

    def test_no_positive_solution(self):
        with pytest.raises(NoDecomposition):
            decompose_gap(12, 3)

    def test_exact_total(self):
        for l in range(2, 7):
            for p in range(2 * l + 1, 9 * l * l + 50):
                try:
                    d = decompose_gap(p, l)
                except NoDecomposition:
                    continue
                assert d.a * l + d.b * (l + 1) == p
                assert d.a >= 1 and d.b >= 1

    def test_min_share_above_threshold(self):
        for l in range(2, 7):
            for p in range(9 * l * l, 9 * l * l + 60):
                d = decompose_gap(p, l)
                assert 3 * min(d.a * l, d.b * (l + 1)) >= p


class TestSubdivideGap:
    def test_short_split(self):
        assert subdivide_gap(0, 7, 3) == [3]

    def test_ten(self):
        assert subdivide_gap(0, 10, 3) == [3, 6]

    def test_propagates(self):
        with pytest.raises(NoDecomposition):
            subdivide_gap(0, 12, 3)

    def test_all_gaps_two_sized(self):
        cuts = subdivide_gap(5, 5 + 100, 3)
        ps = [5] + cuts + [105]
        assert all(b - a in (3, 4) for a, b in zip(ps, ps[1:]))


class TestCuts:
    def test_markers_inside_the_window(self):
        # a window of 10 columns at origin o covers columns o..o+9
        ms = top_row((3, 4, 3), 3)
        assert ms.cuts(1, 0, 10) == [0, 3, 7]
        assert ms.cuts(1, 1, 10) == [3, 7, 10]
        assert ms.cuts(1, 4, 3) == []


class TestPredicates:
    def test_two_gaps_true(self):
        assert two_gaps(top_row((3, 4, 3, 3, 4), 3), 1)

    def test_two_gaps_false(self):
        assert not two_gaps(top_row((3, 5), 3), 1)

    def test_two_gaps_vacuous(self):
        assert two_gaps(top_row((), 3, 5), 1)

    def test_balanced_alternating(self):
        # every 17-window fully contains >= 2 gaps of each length,
        # 2 >= 17/9 and 2 >= 17/12
        ms = substitution((7,) * 15, {7: (3, 4)}, (3, 7))
        assert check_balanced(ms, 1, 17)

    def test_unbalanced_all_short(self):
        ms = substitution((9,) * 10, {9: (3, 3, 3)}, (3, 9))
        assert not check_balanced(ms, 1, 17)

    def test_unbalanced_all_long(self):
        ms = substitution((8,) * 15, {8: (4, 4)}, (3, 8))
        assert not check_balanced(ms, 1, 17)

    def test_balanced_window_too_short(self):
        with pytest.raises(ValueError, match="interval too short"):
            check_balanced(build_marker_system(20, 0, (3,)), 1, 5)

    def test_long_top_row_checked_in_every_gap_of_a_run(self):
        # a top row of two runs and a short last one, whose only run of
        # long gaps lies inside the second run, past its first gap
        lengths = [2, 3] * (markers._CHUNK + 50)
        lengths[markers._CHUNK + 100 : markers._CHUNK + 107] = [3] * 7
        ms = top_row(lengths, 2)
        assert reference_check_balanced_sweep(ms, 1, 30) is False
        assert check_balanced(ms, 1, 30) is False

    # a built system is congruent by construction; verify checks the
    # position rows of an .arr file
    def test_congruency_subset(self):
        assert _marker_checks(((0, 3, 6, 9, 12), (0, 12)))["congruency"]

    def test_congruency_violated(self):
        assert not _marker_checks(((0, 3, 6), (5,)))["congruency"]

    def test_congruency_single_row(self):
        assert _marker_checks(((0, 3),))["congruency"]


@st.composite
def balance_cases(draw):
    """A one-row system and a window for check_balanced.

    Gaps repeat a pattern of l and l+1, and up to three of them are changed,
    often to 1, l+2 or 7, which break the two-gap rule.  The row may hold no
    marker at all, and markers may lie before lo and after hi.  The window
    runs from just below 3(l+1) (which raises) to past hi - lo, and hi - lo
    falls on both sides of it.
    """
    l = draw(st.integers(2, 4))
    if draw(st.integers(0, 9)) == 0:
        ps = []
    else:
        pattern = draw(
            st.sampled_from([(l, l + 1), (l, l, l + 1), (l, l + 1, l + 1)])
        )
        gaps = [pattern[i % len(pattern)] for i in range(draw(st.integers(0, 80)))]
        for _ in range(draw(st.integers(0, 3)) if gaps else 0):
            at = draw(st.integers(0, len(gaps) - 1))
            gaps[at] = draw(st.sampled_from([1, l, l + 1, l + 2, 7]))
        ps = [draw(st.integers(-10, 10))]
        for g in gaps:
            ps.append(ps[-1] + g)
    window = 3 * (l + 1) + draw(st.integers(-1, 80))
    lo = (ps[0] if ps else 0) + draw(st.integers(-3, 12))
    if draw(st.booleans()):
        hi = lo + window + draw(st.integers(-3, 3))
    else:
        hi = (ps[-1] if ps else 0) - draw(st.integers(-3, 12))
    return PositionRows((tuple(ps),), (l,), lo, max(lo, hi)), window


@st.composite
def top_row_cases(draw):
    """A one-row system and a window for check_balanced.

    The row holds up to 200 gaps, so that a cut chunk reads it in several
    runs.  They repeat a pattern of l and l+1, and up to three of them are
    changed to lengths that break the two-gap rule, which makes a short
    spot inside an otherwise balanced row.  The window runs from just below
    3(l+1), which raises, to past hi - lo for the shorter rows."""
    l = draw(st.integers(2, 4))
    pattern = draw(st.sampled_from([(l, l + 1), (l, l, l + 1), (l, l + 1, l + 1)]))
    lengths = [pattern[i % len(pattern)] for i in range(draw(st.integers(0, 200)))]
    for _ in range(draw(st.integers(0, 3)) if lengths else 0):
        at = draw(st.integers(0, len(lengths) - 1))
        lengths[at] = draw(st.sampled_from([1, l - 1, l + 2, 2 * l + 1]))
    window = 3 * (l + 1) + draw(st.integers(-1, 60))
    return top_row(lengths, l, draw(st.integers(-10, 10))), window


@st.composite
def built_forms(draw, rows=st.integers(1, 4)):
    """``(args, valid, windows)``: the MarkerSystem arguments of a hand-made
    system, whether they are well formed, and per row two windows from the
    shortest allowed.

    Bottom up: row 1 has base gap l, and each upper row has up to three gap
    lengths, each the sum of a list of lengths of the row below (l and l+1
    at row 1, now and then a stray) in any order and count, which is its
    pattern; its base gap is the shortest.  The top row is drawn from the
    last lengths.  Now and then a pattern is paired with its sum plus or
    minus one, or holds a step below 1: MarkerSystem must refuse those, so
    ``valid`` is false."""
    rows = draw(rows)
    l = draw(st.integers(2, 4))
    gaps, lengths, patterns = [l], [l, l + 1], []
    for k in range(rows - 1):
        stray = draw(st.sampled_from([(), (), (), (1,), (l + 2,), (0,), (-1,)]))
        splits = st.lists(
            st.sampled_from(lengths + list(stray if k == 0 else ())),
            min_size=1 if k else 2, max_size=4 if k else 6,
        )
        pattern = {
            sum(steps) + draw(st.sampled_from((0,) * 12 + (-1, 1))): tuple(steps)
            for steps in draw(st.lists(splits, min_size=1, max_size=3))
        }
        patterns.append(tuple(pattern.items()))
        lengths = sorted(pattern)
        gaps.append(max(1, min(lengths)))
    top = draw(st.lists(st.sampled_from(lengths), min_size=1, max_size=10))
    origin = draw(st.integers(-20, 20))
    valid = all(
        min(steps) >= 1 and sum(steps) == p
        for pattern in patterns
        for p, steps in pattern
    )
    windows = [
        [3 * (g + 1) + draw(st.integers(0, 4 * g)) for _ in range(2)] for g in gaps
    ]
    args = (origin, tuple(top), tuple(patterns), tuple(gaps))
    return args, valid, windows


def valid_args():
    """``(lo, top, patterns, gaps)`` of a well-formed hand-made system."""
    return built_forms().filter(lambda case: case[1]).map(lambda case: case[0])


def assert_built_form_matches(args, valid, windows):
    """MarkerSystem refuses a malformed system; a well-formed one reads the
    rows its patterns describe, and its checks match the references on
    those rows, held as positions."""
    if not valid:
        with pytest.raises(ValueError):
            MarkerSystem(*args)
        return
    ms = MarkerSystem(*args)
    lo, top, patterns, gaps = args
    rows = expanded_rows(top, patterns, lo)
    assert_checks_match(ms, windows, PositionRows(rows, gaps, lo, ms.hi))


@st.composite
def hierarchy_args(draw, rows=st.integers(1, 3)):
    """``(columns, origin, gaps)`` of a built hierarchy at a random origin
    and column count; three rows from l_1 = 2 already span 26k-56k
    columns."""
    rows = draw(rows)
    gaps = [draw(st.integers(2, 2 if rows == 3 else 4))]
    for _ in range(rows - 1):
        gaps.append(9 * gaps[-1] ** 2 + draw(st.integers(0, 3)))
    top = gaps[-1]
    most = {1: 40, 2: 8, 3: 2}[rows]
    a = draw(st.integers(1, most))
    b = draw(st.integers(1, most))
    return a * top + b * (top + 1), draw(st.integers(-50, 20)), tuple(gaps)


class TestCheckBalancedDifferential:
    """check_balanced's runs against the references, which read every
    marker of the row."""

    # the top-row runs at the real chunk, and cut so that a top row of
    # these sizes is read in several runs
    CHUNKS = st.sampled_from([markers._CHUNK, 5, 16, 32])

    @settings(deadline=None, max_examples=400)
    @given(top_row_cases(), CHUNKS)
    def test_matches_reference(self, case, chunk):
        ms, window = case
        with small_chunk(chunk):
            got = _outcome(check_balanced, ms, 1, window)
        assert got == _outcome(reference_check_balanced, ms, 1, window)

    @settings(deadline=None, max_examples=400)
    @given(top_row_cases(), CHUNKS)
    def test_matches_sweep(self, case, chunk):
        ms, window = case
        with small_chunk(chunk):
            got = _outcome(check_balanced, ms, 1, window)
        assert got == _outcome(reference_check_balanced_sweep, ms, 1, window)

    @settings(deadline=None, max_examples=400)
    @given(balance_cases())
    def test_references_agree(self, case):
        # rows held as positions, with markers outside [lo, hi]
        ms, window = case
        assert _outcome(reference_check_balanced, ms, 1, window) == _outcome(
            reference_check_balanced_sweep, ms, 1, window
        )

    @settings(deadline=None, max_examples=60)
    @given(hierarchy_args(), CHUNKS, st.data())
    def test_built_hierarchies(self, args, chunk, data):
        # built from one to three rows; four from l_1 = 2 hold about 1e9
        # row-1 markers, more than a reference can read, so four-row
        # systems come from test_substitutions
        ms = build_marker_system(*args)
        windows = [
            [w, 3 * (l + 1) + data.draw(st.integers(0, 3 * l))]
            for w, l in zip(balance_windows(ms.gaps), ms.gaps)
        ]
        with small_chunk(chunk):
            assert_checks_match(ms, windows, reference_build_marker_system(*args))

    @settings(deadline=None, max_examples=300)
    @given(built_forms(), CHUNKS)
    def test_substitutions(self, case, chunk):
        with small_chunk(chunk):
            assert_built_form_matches(*case)

    @pytest.mark.parametrize("verdict", [True, False])
    def test_both_verdicts_occur(self, verdict):
        find(
            built_forms(st.just(2)),
            lambda case: case[1]
            and check_balanced(MarkerSystem(*case[0]), 1, case[2][0][0]) is verdict,
            settings=settings(database=None),
        )

    def test_coarse_row_under_a_one_gap_row(self):
        # row 3 is one gap, fewer than the two that a run of row 2 needs,
        # so the runs of row 2 come from all of row 3.  The row-1 intervals
        # that fail lie in the 6-gaps, all short, at the head of row 2,
        # away from its last run.
        patterns = (
            ((5, (2, 3)), (6, (2, 2, 2))),
            ((63, (6,) * 3 + (5,) * 9),),
        )
        ms = MarkerSystem(0, (63,), patterns, (2, 5, 63))
        ref = PositionRows(expanded_rows((63,), patterns, 0), ms.gaps, 0, 63)
        assert reference_check_balanced_sweep(ref, 1, 12) is False
        assert check_balanced(ms, 1, 12) is False


def _pattern_row(draw, l, start):
    """Gaps repeating a pattern of l and l+1, up to three of them stray; the
    row may be empty or hold a single marker."""
    size = draw(st.sampled_from([0, 1, None]))
    if size is not None:
        return [start + i for i in range(size)]
    pattern = draw(st.sampled_from([(l, l + 1), (l, l, l + 1), (l, l + 1, l + 1)]))
    gaps = [pattern[i % len(pattern)] for i in range(draw(st.integers(1, 60)))]
    for _ in range(draw(st.integers(0, 3))):
        gaps[draw(st.integers(0, len(gaps) - 1))] = draw(
            st.sampled_from([1, l - 1, l + 2, 2 * l + 1])
        )
    ps = [start]
    for g in gaps:
        ps.append(ps[-1] + g)
    return ps


@st.composite
def hand_built_rows(draw):
    """One to three tuples of sorted positions over a row-1 pattern with
    stray gaps, as an .arr file's marker rows.  Each upper row keeps every
    s-th marker of the row below and may gain markers that the row below
    lacks; any row may be empty or hold one marker."""
    l = draw(st.integers(2, 4))
    rows = [_pattern_row(draw, l, draw(st.integers(-10, 10)))]
    for _ in range(draw(st.integers(0, 2))):
        below = rows[-1]
        row = below[draw(st.integers(0, 2)) :: draw(st.integers(1, 4))]
        if draw(st.integers(0, 4)) == 0:
            row = row[: draw(st.integers(0, 1))]
        for _ in range(draw(st.integers(0, 2))):
            row.append(draw(st.integers(-12, (below[-1] if below else 0) + 12)))
        rows.append(sorted(set(row)))
    return tuple(map(tuple, rows))


def reference_marker_checks(rows):
    """verify's marker verdicts from the references, each row's base gap
    its shortest gap; the verdicts read no column range."""
    gaps = tuple(min(map(sub, row[1:], row), default=1) for row in rows)
    ref = PositionRows(rows, gaps, 0, 0)
    return {
        "two_gaps": all(
            reference_check_two_gaps(ref, k) for k in range(1, len(rows) + 1)
        ),
        "congruency": reference_check_congruency(ref),
    }


def assert_checks_match(ms, windows, ref):
    """The checks of ``ms`` on every row against their references, which
    read ``ref``, the rows of ``ms`` held as positions; the window list is
    per row.  ``ms`` is congruent by construction, and the reference scan
    of its rows must agree."""
    assert reference_check_congruency(ref)
    for k in range(1, ms.row_count + 1):
        assert tuple(ms.row(k)) == ref.rows[k - 1], k
        assert two_gaps(ms, k) == reference_check_two_gaps(ref, k), k
        for window in windows[k - 1]:
            want = _outcome(reference_check_balanced_sweep, ref, k, window)
            assert _outcome(check_balanced, ms, k, window) == want, (k, window)


@st.composite
def built_cases(draw):
    """``(ms, windows, ref)``: a built hierarchy of two or three rows, per
    row its certified window and one at or near the shortest allowed, and
    the reference builder's rows."""
    args = draw(hierarchy_args(st.integers(2, 3)))
    ms = build_marker_system(*args)
    windows = [
        [w, 3 * (l + 1) + draw(st.integers(0, 3 * l))]
        for w, l in zip(balance_windows(ms.gaps), ms.gaps)
    ]
    return ms, windows, reference_build_marker_system(*args)


@st.composite
def dropped_marker_rows(draw):
    """The rows of a built hierarchy of two or three rows with one marker
    dropped: that row loses its two-gap shape, and the row above may lose
    congruency."""
    ms = build_marker_system(*draw(hierarchy_args(st.integers(2, 3))))
    rows = [list(ms.row(k)) for k in range(1, ms.row_count + 1)]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    del row[draw(st.integers(0, len(row) - 1))]
    return tuple(map(tuple, rows))


class TestRowChecksDifferential:
    @settings(deadline=None, max_examples=400)
    @given(hand_built_rows())
    def test_hand_built_rows(self, rows):
        # verify's verdicts on an .arr file's rows: empty, one-marker and
        # non-congruent rows among them
        assert _marker_checks(rows) == reference_marker_checks(rows)

    @settings(deadline=None, max_examples=30)
    @given(dropped_marker_rows())
    def test_dropped_marker(self, rows):
        assert _marker_checks(rows) == reference_marker_checks(rows)

    @settings(deadline=None, max_examples=30)
    @given(built_cases())
    def test_built_hierarchies(self, case):
        assert_checks_match(*case)

    @settings(deadline=None, max_examples=300)
    @given(built_forms())
    def test_substitutions(self, case):
        # one to four rows, off-by-one patterns among them
        assert_built_form_matches(*case)


def reference_cuts(rows, k, origin, columns):
    """MarkerSystem.cuts on a tuple of positions, by two bisects."""
    ps = rows[k - 1]
    return list(ps[bisect_left(ps, origin) : bisect_right(ps, origin + columns - 1)])


def reference_flags(rows, k, origin, columns):
    """MarkerSystem.flags on a tuple of positions: one membership test per
    column."""
    marked = set(rows[k - 1])
    return bytes(origin + j in marked for j in range(columns))


class TestGapLengthFormDifferential:
    """The stored form, a top row and step patterns, against the tuple of
    positions per row that it stands for."""

    @settings(deadline=None, max_examples=300)
    @given(valid_args())
    def test_rows_round_trip(self, args):
        ms, rows = MarkerSystem(*args), expanded_rows(*args[1:3], args[0])
        assert tuple(tuple(ms.row(k)) for k in range(1, ms.row_count + 1)) == rows
        # a row is counted from its gap counts, as the markers report does
        assert [sum(c.values()) + 1 for c in ms.gap_counts()] == list(map(len, rows))

    @settings(deadline=None, max_examples=300)
    @given(valid_args(), st.data())
    def test_eq_and_hash_follow_positions(self, args, data):
        # two systems on the same patterns, the second with a top step
        # sometimes replaced by another length that the patterns split
        lo, top, patterns, gaps = args
        other = list(top)
        if data.draw(st.booleans()):
            lengths = [p for p, _ in patterns[-1]] if patterns else range(1, 9)
            other[data.draw(st.integers(0, len(top) - 1))] = data.draw(
                st.sampled_from(lengths)
            )
        a = MarkerSystem(*args)
        b = MarkerSystem(lo, tuple(other), patterns, gaps)
        same = expanded_rows(top, patterns, lo) == expanded_rows(other, patterns, lo)
        assert (a == b) is same
        if same:
            assert hash(a) == hash(b)

    @settings(deadline=None, max_examples=300)
    @given(valid_args(), st.data())
    def test_flags_and_cuts_match_reference(self, args, data):
        ms, rows = MarkerSystem(*args), expanded_rows(*args[1:3], args[0])
        origin = data.draw(st.integers(ms.lo - 20, ms.lo + 60))
        columns = data.draw(st.integers(1, 40))
        for j in range(1, len(rows) + 1):
            assert ms.cuts(j, origin, columns) == reference_cuts(
                rows, j, origin, columns
            )
            flags = ms.flags(j, origin, columns)
            assert type(flags) is bytes
            assert flags == reference_flags(rows, j, origin, columns)


def test_heap_peak_of_the_benchmark_hierarchy():
    # the 699,870-column hierarchy on gaps 2,36,11664 has 288,001 row-1
    # markers.  Built and checked, it peaks at about 0.34 MB of traced heap
    # (Python 3.10 to 3.13): the system stores its 60-gap top row and its
    # patterns, and the largest item is check_balanced's expansion of one
    # run of 18 top-row gaps.  It peaked at 3.6 MB with every row stored,
    # at 13.9 MB with a tuple of positions per row, and at 9.2 MB while
    # check_balanced listed every left end of one gap length.
    build_marker_system(703, 0, (3, 100))
    tracemalloc.start()
    try:
        ms = build_marker_system(30 * 11664 + 30 * 11665, 0, (2, 36, 11664))
        windows = enumerate(balance_windows(ms.gaps), start=1)
        ok = all(map(check_two_gaps, ms.gap_counts(), ms.gaps)) and all(
            check_balanced(ms, k, window) for k, window in windows
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 0.5 * 10**6


def reference_mrk(rows):
    """The text write_mrk writes, one string per row."""
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def mrk_text(ms):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.mrk"
        write_mrk(path, ms)
        return path.read_text()


def small_chunk(chunk):
    """The top-row runs of check_balanced, and write_mrk's pieces, cut to
    ``chunk`` gaps."""
    return mock.patch.object(markers, "_CHUNK", chunk)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
class TestChunkBoundaries:
    """check_balanced and write_mrk with the chunk cut to a few entries.
    Hypothesis rows hold at most a few hundred gaps, so at the real chunk
    size a top row is always one run."""

    @settings(deadline=None, max_examples=300)
    @given(top_row_cases())
    def test_check_balanced(self, chunk, case):
        ms, window = case
        with small_chunk(chunk):
            got = _outcome(check_balanced, ms, 1, window)
        assert got == _outcome(reference_check_balanced, ms, 1, window)
        assert got == _outcome(reference_check_balanced_sweep, ms, 1, window)

    @settings(deadline=None, max_examples=300)
    @given(built_forms())
    def test_hand_built_rows(self, chunk, case):
        with small_chunk(chunk):
            assert_built_form_matches(*case)

    @settings(deadline=None, max_examples=10)
    @given(built_cases())
    def test_built_hierarchies(self, chunk, case):
        with small_chunk(chunk):
            assert_checks_match(*case)

    @settings(deadline=None, max_examples=200)
    @given(valid_args())
    def test_write_mrk(self, chunk, args):
        with small_chunk(chunk):
            text = mrk_text(MarkerSystem(*args))
        assert text == reference_mrk(expanded_rows(*args[1:3], args[0]))


@pytest.mark.parametrize("chunk", [2, 3, 7, 16])
class TestStrideRecheck:
    """Top rows whose spans come close to the limit, checked in runs of
    ``chunk`` gaps, so the row's 120-odd gaps fall into many overlapping
    runs.  On the alternating row every span of the short gaps is 25
    against a limit of 29 at window 30."""

    WINDOW = 30

    def check(self, ms, chunk):
        with small_chunk(chunk):
            got = check_balanced(ms, 1, self.WINDOW)
        assert got == reference_check_balanced(ms, 1, self.WINDOW)
        assert got == reference_check_balanced_sweep(ms, 1, self.WINDOW)
        return got

    def test_every_span_holds(self, chunk):
        assert self.check(top_row((2, 3) * 60, 2), chunk)

    def test_one_span_fails(self, chunk):
        # three long gaps in a row leave an interval short of short gaps
        ms = top_row((2, 3) * 30 + (3, 3, 3) + (2, 3) * 30, 2)
        assert not self.check(ms, chunk)


def _traced_peak(fn, *args):
    """fn(*args) and the traced heap peak of the call above what was
    allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def benchmark_hierarchy():
    return build_marker_system(699870, 0, (2, 36, 11664))


class TestBoundedMemory:
    """Each check, and the .mrk output, of the benchmark hierarchy holds a
    chunk of ints above the system it reads, never a row's positions.
    Measured on Python 3.10 to 3.13: check_balanced peaks at 0.33 MB (row
    2, one run expanded), the other checks at 2 KB, and write_mrk at
    0.57 to 0.64 MB, a chunk of position strings.  Listing row 1's 164,130
    short-gap left ends, check_balanced held 6.7 MB."""

    LIMIT = 0.8 * 10**6

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_row_checks(self, benchmark_hierarchy, k):
        ms = benchmark_hierarchy
        for check, args in (
            (two_gaps, (ms, k)),
            (check_balanced, (ms, k, balance_windows(ms.gaps)[k - 1])),
        ):
            ok, peak = _traced_peak(check, *args)
            assert ok and peak < self.LIMIT, (check.__name__, peak)

    def test_congruency(self, benchmark_hierarchy):
        # congruency holds by construction: the constructor checks that
        # every pattern sums to the gap it splits, and reads no row
        ms = benchmark_hierarchy
        again, peak = _traced_peak(MarkerSystem, ms.lo, ms.top, ms.patterns, ms.gaps)
        assert again == ms and peak < self.LIMIT, peak

    def test_write_mrk(self, benchmark_hierarchy, tmp_path):
        path = tmp_path / "m.mrk"
        _, peak = _traced_peak(write_mrk, path, benchmark_hierarchy)
        assert peak < self.LIMIT, peak
        # every byte as when each row was joined into one string
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "41f4f3d63303765c7784d1f2c2008604ab61fd04daae09aa52e42e4625656fa4"
        )


class TestBuildMarkerSystemDifferential:
    @settings(deadline=None, max_examples=60)
    @given(hierarchy_args(), st.data())
    def test_matches_reference(self, args, data):
        ms = build_marker_system(*args)
        ref = reference_build_marker_system(*args)
        assert (ms.gaps, ms.lo, ms.hi) == (ref.gaps, ref.lo, ref.hi)
        assert balance_windows(ms.gaps) == reference_balance_windows(ms.gaps)
        rows = ref.rows
        origin = data.draw(st.integers(ms.lo - 20, ms.hi + 5))
        columns = data.draw(st.integers(1, 400))
        for k, (row, counts) in enumerate(zip(rows, ms.gap_counts()), start=1):
            assert tuple(ms.row(k)) == row, k
            assert counts == Counter(map(sub, row[1:], row)), k
            assert ms.cuts(k, origin, columns) == reference_cuts(
                rows, k, origin, columns
            )
            assert ms.flags(k, origin, columns) == reference_flags(
                rows, k, origin, columns
            )


def finer_cuts(ms, k):
    """Per width of the row-k gaps of ms, the set of distinct cut patterns
    the gaps of that width carry: for each row j < k, the offsets of its
    markers strictly inside the gap from the gap's left marker."""
    finer = [list(ms.row(j)) for j in range(1, k)]
    ps = list(ms.row(k))
    patterns = {}
    for p, q in zip(ps, ps[1:]):
        cuts = tuple(
            tuple(x - p for x in row[bisect_right(row, p) : bisect_left(row, q)])
            for row in finer
        )
        patterns.setdefault(q - p, set()).add(cuts)
    return patterns


class TestOnePatternPerWidth:
    # purify's gap keys hold cell rows only and its replacement writes
    # cells only: both rest on every row-k gap of one width carrying the
    # same finer markers, in every row below k
    @settings(deadline=None, max_examples=60)
    @given(hierarchy_args())
    def test_built_hierarchies(self, args):
        ms = build_marker_system(*args)
        gaps = ms.gaps
        for k in range(1, ms.row_count + 1):
            patterns = finer_cuts(ms, k)
            assert set(patterns) <= {gaps[k - 1], gaps[k - 1] + 1}
            assert all(len(cuts) == 1 for cuts in patterns.values()), k
        # and the system records them: each lower row of the reference
        # builder is the row above with every gap expanded through its
        # pattern
        ref = reference_build_marker_system(*args)
        lengths = [tuple(map(sub, row[1:], row)) for row in ref.rows]
        assert len(ms.patterns) == ms.row_count - 1
        for k in range(1, ms.row_count):
            pattern = dict(ms.patterns[k - 1])
            assert set(pattern) == set(lengths[k])
            assert all(sum(steps) == p for p, steps in pattern.items())
            expanded = chain.from_iterable(map(pattern.__getitem__, lengths[k]))
            assert lengths[k - 1] == tuple(expanded), k

    def test_two_splits_of_one_length_seen(self):
        # two 7-gaps of row 2, split 3 + 4 and 4 + 3 by row 1
        ms = PositionRows(((0, 3, 7, 11, 14), (0, 7, 14)), (3, 7), 0, 14)
        assert finer_cuts(ms, 2) == {7: {((3,),), ((4,),)}}


class TestMarkerSystemOrder:
    @pytest.mark.parametrize(
        "row", [(0, 6, 3), (0, 3, 3, 6)], ids=["unsorted", "duplicate"]
    )
    def test_rejected(self, row):
        # a top step below 1
        with pytest.raises(ValueError, match="positions must be sorted and distinct"):
            MarkerSystem(row[0], tuple(map(sub, row[1:], row)), (), (3,))


class TestBuiltFormRefused:
    """MarkerSystem refuses a system whose rows its checks could not decide
    from the patterns."""

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_pattern_off_by_one_refused(self, shift):
        # a pattern summing to one more or less than the gap it splits
        # would move every marker after it; congruency is never scanned
        # on a built system, so the system itself is refused
        with pytest.raises(ValueError, match="row 1 does not split row 2"):
            substitution((7, 7), {7: (3, 4 + shift)}, (3, 7))

    def test_step_below_one_refused(self):
        with pytest.raises(ValueError, match="row 1 does not split row 2"):
            substitution((7,), {7: (3, 4, 0)}, (3, 7))

    def test_length_without_pattern_refused(self):
        with pytest.raises(ValueError, match="row 1 does not split row 2"):
            substitution((7, 8), {7: (3, 4)}, (3, 7))

    @pytest.mark.parametrize(
        "patterns, gaps",
        [((), (3, 7)), ((((7, (3, 4)),),), (7,)), ((((7, (3, 4)),),) * 2, (3, 7))],
        ids=["too_few", "one_row", "too_many"],
    )
    def test_wrong_pattern_count_refused(self, patterns, gaps):
        with pytest.raises(ValueError, match="one pattern per row below the top"):
            MarkerSystem(0, (7,), patterns, gaps)

    @pytest.mark.parametrize("step", [0, -1])
    def test_top_step_below_one_refused(self, step):
        with pytest.raises(ValueError, match="positions must be sorted and distinct"):
            substitution((7, step, 7), {7: (3, 4)}, (3, 7))


class TestBuildMarkerSystem:
    def test_single_row_example(self):
        ms = build_marker_system(20, 0, (3,))
        row = tuple(ms.row(1))
        gaps = [b - a for a, b in zip(row, row[1:])]
        assert set(gaps) <= {3, 4}
        assert row[0] == 0 and row[-1] == 20

    def test_two_rows_congruent(self):
        # 703 = 4*100 + 3*101, so the top row decomposes
        ms = build_marker_system(703, 0, (3, 100))
        assert reference_check_congruency(position_rows(ms))
        assert two_gaps(ms, 1) and two_gaps(ms, 2)

    def test_bad_sequence_rejected(self):
        with pytest.raises(ValueError):
            build_marker_system(100, 0, (3, 12))

    def test_balanced_certified_windows(self):
        # 2703 = 15*150 + 3*151 exceeds the row-1 certified window
        ms = build_marker_system(2703, 0, (4, 150))
        for k, window in enumerate(balance_windows(ms.gaps), start=1):
            assert check_balanced(ms, k, window)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(2, 6), st.integers(0, 3), st.data())
    def test_randomized_configs(self, l1, origin, data):
        gaps = [l1]
        if data.draw(st.booleans()):
            gaps.append(9 * l1 * l1 + data.draw(st.integers(0, 20)))
        top = gaps[-1]
        a = data.draw(st.integers(2, 20))
        b = data.draw(st.integers(2, 20))
        n = a * top + b * (top + 1)
        ms = build_marker_system(n, origin, tuple(gaps))
        assert reference_check_congruency(position_rows(ms))
        for k, window in enumerate(balance_windows(ms.gaps), start=1):
            assert two_gaps(ms, k)
            assert check_balanced(ms, k, window)
