import hashlib
import tempfile
import tracemalloc
from itertools import accumulate
from pathlib import Path
from unittest import mock

import pytest
from bisect import bisect_left, bisect_right
from hypothesis import given, settings, strategies as st

from fractions import Fraction

from strictform import markers
from strictform.markers import (
    GapDecomposition,
    MarkerSystem,
    NoDecomposition,
    _decompose_balanced,
    build_marker_system,
    check_balanced,
    check_congruency,
    check_two_gaps,
    decompose_gap,
    write_mrk,
)


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
    """check_two_gaps as a per-gap loop."""
    ps, l = tuple(ms.row(k)), ms.gaps[k - 1]
    return all(b - a in (l, l + 1) for a, b in zip(ps, ps[1:]))


def reference_check_congruency(ms):
    """check_congruency with a set of each lower row."""
    for k in range(1, ms.row_count):
        lower = set(ms.row(k))
        if any(p not in lower for p in ms.row(k + 1)):
            return False
    return True


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
    balance = tuple(
        16 * (gaps[k + 1] + 2) if k + 1 < rows else 48 * gaps[-1]
        for k in range(rows)
    )
    return MarkerSystem.from_positions(tuple(per_row), gaps, lo, hi, balance)


def row_system(positions, l, lo=None, hi=None):
    lo = positions[0] if lo is None else lo
    hi = positions[-1] if hi is None else hi
    return MarkerSystem.from_positions((tuple(positions),), (l,), lo, hi)


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
        ms = MarkerSystem.from_positions(((0, 3, 7, 10),), (3,), 0, 10)
        assert ms.cuts(1, 0, 10) == [0, 3, 7]
        assert ms.cuts(1, 1, 10) == [3, 7, 10]
        assert ms.cuts(1, 4, 3) == []


class TestPredicates:
    def test_two_gaps_true(self):
        ms = row_system([0, 3, 7, 10, 13, 17], 3)
        assert check_two_gaps(ms, 1)

    def test_two_gaps_false(self):
        assert not check_two_gaps(row_system([0, 3, 8], 3), 1)

    def test_two_gaps_vacuous(self):
        assert check_two_gaps(row_system([5], 3), 1)

    def test_balanced_alternating(self):
        # every 17-window fully contains >= 2 gaps of each length,
        # 2 >= 17/9 and 2 >= 17/12
        ps = [0]
        for i in range(30):
            ps.append(ps[-1] + (3 if i % 2 == 0 else 4))
        assert check_balanced(row_system(ps, 3), 1, 17)

    def test_unbalanced_all_short(self):
        ps = list(range(0, 90, 3))
        assert not check_balanced(row_system(ps, 3), 1, 17)

    def test_unbalanced_all_long(self):
        ps = list(range(0, 120, 4))
        assert not check_balanced(row_system(ps, 3), 1, 17)

    def test_balanced_window_too_short(self):
        with pytest.raises(ValueError):
            check_balanced(row_system([0, 3, 6], 3), 1, 5)

    def test_congruency_subset(self):
        ms = MarkerSystem.from_positions(((0, 3, 6, 9, 12), (0, 12)), (3, 12), 0, 12)
        assert check_congruency(ms)

    def test_congruency_violated(self):
        ms = MarkerSystem.from_positions(((0, 3, 6), (5,)), (3, 5), 0, 6)
        assert not check_congruency(ms)

    def test_congruency_single_row(self):
        assert check_congruency(row_system([0, 3], 3))


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
    return MarkerSystem.from_positions((tuple(ps),), (l,), lo, max(lo, hi)), window


class TestCheckBalancedDifferential:
    @settings(deadline=None, max_examples=400)
    @given(balance_cases())
    def test_matches_reference(self, case):
        ms, window = case
        assert _outcome(check_balanced, ms, 1, window) == _outcome(
            reference_check_balanced, ms, 1, window
        )


    @settings(deadline=None, max_examples=400)
    @given(balance_cases())
    def test_matches_sweep(self, case):
        ms, window = case
        assert _outcome(check_balanced, ms, 1, window) == _outcome(
            reference_check_balanced_sweep, ms, 1, window
        )


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
    """``(rows, gaps, lo, hi)``: one to three tuples of sorted positions over
    a row-1 pattern with stray gaps.  Each upper row keeps every s-th marker
    of the row below and may gain markers that the row below lacks; any row
    may be empty or hold one marker.  Each row's base gap is one of its own
    gap lengths when it has any."""
    l = draw(st.integers(2, 4))
    rows = [_pattern_row(draw, l, draw(st.integers(-10, 10)))]
    gaps = [l]
    for _ in range(draw(st.integers(0, 2))):
        below = rows[-1]
        row = below[draw(st.integers(0, 2)) :: draw(st.integers(1, 4))]
        if draw(st.integers(0, 4)) == 0:
            row = row[: draw(st.integers(0, 1))]
        for _ in range(draw(st.integers(0, 2))):
            row.append(draw(st.integers(-12, (below[-1] if below else 0) + 12)))
        row = sorted(set(row))
        lengths = sorted({b - a for a, b in zip(row, row[1:])}) or [2]
        rows.append(row)
        gaps.append(draw(st.sampled_from(lengths)))
    lo = (rows[0][0] if rows[0] else 0) + draw(st.integers(-3, 12))
    hi = (rows[0][-1] if rows[0] else 0) - draw(st.integers(-3, 12))
    return tuple(map(tuple, rows)), tuple(gaps), lo, max(lo, hi)


def hand_built_systems():
    return hand_built_rows().map(lambda case: MarkerSystem.from_positions(*case))


def assert_checks_match(ms, windows):
    """All three checks on every row against their references; the window
    list is per row."""
    assert check_congruency(ms) == reference_check_congruency(ms)
    for k in range(1, ms.row_count + 1):
        assert check_two_gaps(ms, k) == reference_check_two_gaps(ms, k), k
        for window in windows[k - 1]:
            assert _outcome(check_balanced, ms, k, window) == _outcome(
                reference_check_balanced_sweep, ms, k, window
            ), (k, window)


@st.composite
def built_cases(draw):
    """``(ms, windows)``: a built hierarchy of two or three rows, with one
    marker sometimes dropped, and per row its certified window and one at
    or near the shortest allowed."""
    rows = draw(st.integers(2, 3))
    origin = draw(st.integers(-60, 60))
    gaps = [draw(st.integers(2, 2 if rows == 3 else 4))]
    for _ in range(rows - 1):
        gaps.append(9 * gaps[-1] ** 2 + draw(st.integers(0, 3)))
    top = gaps[-1]
    most = {2: 8, 3: 2}[rows]
    a = draw(st.integers(1, most))
    b = draw(st.integers(1, most))
    ms = build_marker_system(a * top + b * (top + 1), origin, gaps)
    if draw(st.booleans()):
        # drop one marker: a row loses its two-gap shape, and the row
        # above may lose congruency
        k = draw(st.integers(1, rows))
        positions = [list(ms.row(j)) for j in range(1, rows + 1)]
        row = positions[k - 1]
        del row[draw(st.integers(0, len(row) - 1))]
        ms = MarkerSystem.from_positions(
            tuple(map(tuple, positions)), ms.gaps, ms.lo, ms.hi,
            ms.balance_windows,
        )
    windows = [
        [w, 3 * (l + 1) + draw(st.integers(0, 3 * l))]
        for w, l in zip(ms.balance_windows, ms.gaps)
    ]
    return ms, windows


class TestRowChecksDifferential:
    @settings(deadline=None, max_examples=400)
    @given(hand_built_systems(), st.data())
    def test_hand_built_rows(self, ms, data):
        windows = [
            [3 * (l + 1) + data.draw(st.integers(-1, 60)) for _ in range(2)]
            for l in ms.gaps
        ]
        assert_checks_match(ms, windows)

    @settings(deadline=None, max_examples=30)
    @given(built_cases())
    def test_built_hierarchies(self, case):
        assert_checks_match(*case)


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
    """The stored form, a first position and gap lengths per row, against
    the tuple of positions per row that it replaced."""

    @settings(deadline=None, max_examples=300)
    @given(hand_built_rows())
    def test_rows_round_trip(self, case):
        rows = case[0]
        ms = MarkerSystem.from_positions(*case)
        assert tuple(tuple(ms.row(k)) for k in range(1, ms.row_count + 1)) == rows
        # a row is counted from its lengths, as the markers report does
        assert [len(steps) + (start is not None)
                for start, steps in zip(ms.starts, ms.lengths)] == list(map(len, rows))

    @settings(deadline=None, max_examples=300)
    @given(hand_built_rows(), st.data())
    def test_eq_and_hash_follow_positions(self, case, data):
        rows, gaps, lo, hi = case
        k = data.draw(st.integers(1, len(rows)))
        other = list(rows)
        if data.draw(st.booleans()):
            other[k - 1] = tuple(sorted(data.draw(st.sets(st.integers(-15, 15)))))
        other = tuple(other)
        a = MarkerSystem.from_positions(rows, gaps, lo, hi)
        b = MarkerSystem.from_positions(other, gaps, lo, hi)
        assert (a == b) is (rows == other)
        if rows == other:
            assert hash(a) == hash(b)

    @settings(deadline=None, max_examples=300)
    @given(hand_built_rows(), st.data())
    def test_flags_and_cuts_match_reference(self, case, data):
        rows = case[0]
        ms = MarkerSystem.from_positions(*case)
        origin = data.draw(st.integers(-20, 60))
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
    # markers.  Built and checked, it peaks at about 3.6 MB of traced heap:
    # congruency's set of row 2 on top of the 2.5 MB system.  It peaked at
    # 13.9 MB with a tuple of positions per row, and at 9.2 MB while
    # check_balanced listed every left end of one gap length.
    build_marker_system(703, 0, (3, 100))
    tracemalloc.start()
    try:
        ms = build_marker_system(30 * 11664 + 30 * 11665, 0, (2, 36, 11664))
        rows = range(1, ms.row_count + 1)
        ok = (
            all(check_two_gaps(ms, k) for k in rows)
            and check_congruency(ms)
            and all(check_balanced(ms, k, ms.balance_windows[k - 1]) for k in rows)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 4.5 * 10**6


def reference_mrk(rows):
    """The text write_mrk writes, one string per row."""
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def mrk_text(ms):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.mrk"
        write_mrk(path, ms)
        return path.read_text()


def small_sizes(chunk):
    """The chunk and the stride of check_balanced both cut to ``chunk``."""
    return mock.patch.multiple(markers, _CHUNK=chunk, _STRIDE=chunk)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
class TestChunkBoundaries:
    """The streaming checks and write_mrk with the chunk, and check_balanced's
    stride, cut to a few entries.  Hypothesis rows hold at most about 80
    gaps, so at the real chunk size they never reach a second chunk, and
    they hold at most a few strides of 16 starts."""

    @settings(deadline=None, max_examples=300)
    @given(balance_cases())
    def test_check_balanced(self, chunk, case):
        ms, window = case
        with small_sizes(chunk):
            got = _outcome(check_balanced, ms, 1, window)
        assert got == _outcome(reference_check_balanced, ms, 1, window)
        assert got == _outcome(reference_check_balanced_sweep, ms, 1, window)

    @settings(deadline=None, max_examples=300)
    @given(balance_cases())
    def test_strides_in_one_chunk(self, chunk, case):
        # only the stride cut: a row's starts fall into many strides of
        # one chunk, as on a long row at the real sizes
        ms, window = case
        with mock.patch.object(markers, "_STRIDE", chunk):
            got = _outcome(check_balanced, ms, 1, window)
        assert got == _outcome(reference_check_balanced, ms, 1, window)
        assert got == _outcome(reference_check_balanced_sweep, ms, 1, window)

    @settings(deadline=None, max_examples=300)
    @given(hand_built_systems(), st.data())
    def test_hand_built_rows(self, chunk, ms, data):
        windows = [
            [3 * (l + 1) + data.draw(st.integers(-1, 60)) for _ in range(2)]
            for l in ms.gaps
        ]
        with small_sizes(chunk):
            assert_checks_match(ms, windows)

    @settings(deadline=None, max_examples=10)
    @given(built_cases())
    def test_built_hierarchies(self, chunk, case):
        with small_sizes(chunk):
            assert_checks_match(*case)

    @settings(deadline=None, max_examples=200)
    @given(hand_built_rows())
    def test_write_mrk(self, chunk, case):
        ms = MarkerSystem.from_positions(*case)
        with mock.patch.object(markers, "_CHUNK", chunk):
            assert mrk_text(ms) == reference_mrk(case[0])


def gap_row(lengths):
    """A one-row system with base gap 2 whose gaps have the given lengths,
    from position 0 to its last marker."""
    positions = [0, *accumulate(lengths)]
    return row_system(positions, 2)


def stride_screen(ms, window, g, stride):
    """For row 1 of ms, read in one chunk: whether some stride's bound
    exceeds the limit of length g, and whether every exact span meets it."""
    ps = list(ms.row(1))
    left = [ms.lo - 1] + [
        a for a, b in zip(ps, ps[1:]) if b - a == g and a >= ms.lo
    ]
    m, limit = -(-window // (3 * g)), window + 1 - g
    n = bisect_left(left, ms.hi - window)
    bounds = [
        left[a + stride - 1 + m] - left[a]
        for a in range(0, n - stride + 1, stride)
    ]
    spans = [left[q + m] - left[q] for q in range(n)]
    return max(bounds) > limit, max(spans) <= limit


@pytest.mark.parametrize("stride", [2, 3, 7, 16])
class TestStrideRecheck:
    """Rows whose stride bounds exceed the limit, so check_balanced checks
    those strides' spans one by one.  On the alternating row every span of
    the short gaps is 25 against a limit of 29 at window 30, and a stride's
    bound is 25 + 5 (S - 1)."""

    WINDOW = 30

    def check(self, ms, stride):
        with mock.patch.object(markers, "_STRIDE", stride):
            got = check_balanced(ms, 1, self.WINDOW)
        assert got == reference_check_balanced(ms, 1, self.WINDOW)
        assert got == reference_check_balanced_sweep(ms, 1, self.WINDOW)
        return got

    def test_every_span_holds(self, stride):
        ms = gap_row((2, 3) * 60)
        assert stride_screen(ms, self.WINDOW, 2, stride) == (True, True)
        assert self.check(ms, stride)

    def test_one_span_fails(self, stride):
        # three long gaps in a row leave an interval short of short gaps
        ms = gap_row((2, 3) * 30 + (3, 3, 3) + (2, 3) * 30)
        assert stride_screen(ms, self.WINDOW, 2, stride) == (True, False)
        assert not self.check(ms, stride)


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
    Listing row 1's 164,130 short-gap left ends, check_balanced held
    6.7 MB."""

    LIMIT = 1.5 * 10**6

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_row_checks(self, benchmark_hierarchy, k):
        ms = benchmark_hierarchy
        for check, args in (
            (check_two_gaps, (ms, k)),
            (check_balanced, (ms, k, ms.balance_windows[k - 1])),
        ):
            ok, peak = _traced_peak(check, *args)
            assert ok and peak < self.LIMIT, (check.__name__, peak)

    def test_congruency(self, benchmark_hierarchy):
        ok, peak = _traced_peak(check_congruency, benchmark_hierarchy)
        assert ok and peak < self.LIMIT, peak

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
    @given(st.integers(1, 3), st.integers(-50, 20), st.data())
    def test_matches_reference(self, rows, origin, data):
        # three rows from l_1 = 2 already span 26k-56k columns
        gaps = [data.draw(st.integers(2, 2 if rows == 3 else 4))]
        for _ in range(rows - 1):
            gaps.append(9 * gaps[-1] ** 2 + data.draw(st.integers(0, 3)))
        top = gaps[-1]
        most = {1: 40, 2: 8, 3: 2}[rows]
        a = data.draw(st.integers(1, most))
        b = data.draw(st.integers(1, most))
        n = a * top + b * (top + 1)
        assert build_marker_system(n, origin, gaps) == reference_build_marker_system(
            n, origin, gaps
        )


class TestMarkerSystemOrder:
    @pytest.mark.parametrize(
        "row", [(0, 6, 3), (0, 3, 3, 6)], ids=["unsorted", "duplicate"]
    )
    def test_rejected(self, row):
        with pytest.raises(ValueError, match="positions must be sorted and distinct"):
            MarkerSystem.from_positions((row,), (3,), 0, 6)


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
        assert check_congruency(ms)
        assert check_two_gaps(ms, 1) and check_two_gaps(ms, 2)

    def test_bad_sequence_rejected(self):
        with pytest.raises(ValueError):
            build_marker_system(100, 0, (3, 12))

    def test_balanced_certified_windows(self):
        # 2703 = 15*150 + 3*151 exceeds the row-1 certified window
        ms = build_marker_system(2703, 0, (4, 150))
        for k in range(1, ms.row_count + 1):
            assert check_balanced(ms, k, ms.balance_windows[k - 1])

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
        assert check_congruency(ms)
        for k in range(1, ms.row_count + 1):
            assert check_two_gaps(ms, k)
            assert check_balanced(ms, k, ms.balance_windows[k - 1])
