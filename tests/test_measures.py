import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from strictform import measures
from strictform.arrays import Rectangle, lift_binary, window_to_rectangle
from strictform.generators import bernoulli_window
from strictform.measures import TruncationMismatch, dstar, empirical_measure

from array_helpers import from_word
from measure_helpers import concat, mixture, point_mass, weight, weights

F = Fraction
words = st.text(alphabet="12", min_size=4, max_size=10)


def cesaro_spread(word, pattern, n):
    """Max minus min, over start positions, of the n-block average of the
    indicator of the pattern; zero means exact uniformity at this scale.  A
    uniformity diagnostic for tests; no command reports it."""
    w = [int(c) for c in word]
    q = [int(c) for c in pattern]
    if len(w) < 2 * n:
        raise ValueError("window shorter than two blocks")
    hits = [1 if w[i : i + len(q)] == q else 0 for i in range(len(w) - len(q) + 1)]
    if len(hits) < n:
        raise ValueError("pattern leaves fewer positions than a block")
    running = sum(hits[:n])
    lo = hi = running
    for t in range(1, len(hits) - n + 1):
        running += hits[t + n - 1] - hits[t - 1]
        lo = min(lo, running)
        hi = max(hi, running)
    return Fraction(hi - lo, n)


def rect(word):
    return from_word(word)


def measure_weight(r, q):
    # q's weight in the measure of r at q's dimension, cut to r's size, so
    # a query with more rows or columns than r weighs zero
    t = (min(q.rows, r.rows), min(q.width, r.width))
    return weight(empirical_measure(r, t), q)


class TestFrequency:
    def test_half(self):
        assert measure_weight(rect("12121"), rect("12")) == F(1, 2)

    def test_self(self):
        r = rect("1221")
        assert measure_weight(r, r) == 1

    def test_two_thirds(self):
        assert measure_weight(rect("121"), rect("1")) == F(2, 3)

    def test_oversized_query(self):
        assert measure_weight(rect("12"), rect("121")) == 0
        assert measure_weight(rect("12"), Rectangle.from_rows([[1], [1]])) == 0


def reference_frequency(r, q):
    # the per-offset comparison of cells that frequency used before the
    # slab counter
    if q.rows > r.rows or q.width > r.width:
        return Fraction(0)
    offsets = r.width - q.width + 1
    hits = sum(
        1 for i in range(offsets) if r.sub(q.rows, i, q.width).cells == q.cells
    )
    return Fraction(hits, offsets)


@st.composite
def small_rectangles(draw):
    # 1-3 rows, widths 1-12, symbols 0-2
    rows, width = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    row = st.lists(st.integers(0, 2), min_size=width, max_size=width)
    return Rectangle.from_rows(draw(st.lists(row, min_size=rows, max_size=rows)))


class TestSlabCounterDifferential:
    @settings(max_examples=200, deadline=None)
    @given(small_rectangles(), st.data())
    def test_measure_matches_reference(self, r, data):
        t = (data.draw(st.integers(1, r.rows)), data.draw(st.integers(1, r.width)))
        m = empirical_measure(r, t)
        for q, w in weights(m).items():
            assert w == reference_frequency(r, q)
        assert set(m.dims) == {
            (k, w) for k in range(1, t[0] + 1) for w in range(1, t[1] + 1)
        }
        for (_, width), (n, counts) in m.dims.items():
            assert n == r.width - width + 1
            assert all(type(c) is int for c in counts.values())
            assert sum(counts.values()) == n

    @settings(max_examples=200, deadline=None)
    @given(small_rectangles(), small_rectangles(), st.data())
    def test_frequency_matches_reference(self, r, other, data):
        rows = data.draw(st.integers(1, r.rows))
        width = data.draw(st.integers(1, r.width))
        col = data.draw(st.integers(0, r.width - width))
        q = r.sub(rows, col, width)
        assert measure_weight(r, q) == reference_frequency(r, q) > 0
        # an unrelated query: absent, oversized or present by chance
        assert measure_weight(r, other) == reference_frequency(r, other)
        absent = Rectangle(tuple((9,) + row[1:] for row in q.cells))
        assert measure_weight(r, absent) == reference_frequency(r, absent) == 0


def reference_empirical_measure(r, truncation):
    # the body empirical_measure had before it derived the smaller
    # dimensions from the top one: a slab pass per dimension over the cell
    # rows
    max_rows, max_width = truncation
    dims = {}
    for rows, width in product(range(1, max_rows + 1), range(1, max_width + 1)):
        windows = [
            zip(*[islice(row, i, None) for i in range(width)])
            for row in r.cells[:rows]
        ]
        dims[rows, width] = (r.width - width + 1, Counter(zip(*windows)))
    return dims


@st.composite
def wide_rectangles(draw):
    # 1-3 rows, widths 1-40, symbols 1-3
    rows, width = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    row = st.lists(st.integers(1, 3), min_size=width, max_size=width)
    return Rectangle.from_rows(draw(st.lists(row, min_size=rows, max_size=rows)))


def assert_matches_reference(r, t):
    dims = empirical_measure(r, t).dims
    ref = reference_empirical_measure(r, t)
    assert dims == ref
    # the same insertion order, of the dimensions and of every Counter
    assert list(dims) == list(ref)
    for dim, (n, counts) in dims.items():
        assert n == ref[dim][0]
        assert list(counts) == list(ref[dim][1])
        assert all(type(c) is int for c in counts.values())


@pytest.fixture
def slab_passes(monkeypatch):
    # the (rows, width) of every slab pass empirical_measure makes
    passes = []
    real = measures._slab_counts

    def counting(r, rows, width):
        passes.append((rows, width))
        return real(r, rows, width)

    monkeypatch.setattr(measures, "_slab_counts", counting)
    return passes


def periodic_row(n):
    return [(0, 1, 1, 0, 1, 0, 1)[i % 7] for i in range(n)]


def random_row(seed, n):
    return [int(c) for c in bernoulli_window(F(1, 2), seed, n)]


class TestDerivedDimensionsDifferential:
    # A window whose top keys number at most a quarter of its offsets has
    # its smaller dimensions derived from the top pass; any other window
    # gets a slab pass per dimension.  Both give the reference measure.
    @pytest.mark.parametrize(
        "r, t",
        [
            (Rectangle.from_rows([periodic_row(5187)]), (1, 12)),
            (
                window_to_rectangle(
                    lift_binary("".join(map(str, periodic_row(5188))), 2)
                ),
                (2, 6),
            ),
            (
                concat([Rectangle.from_rows([periodic_row(n)]) for n in (40, 60)]),
                (1, 5),
            ),
        ],
    )
    def test_few_top_keys_are_projected(self, r, t, slab_passes):
        assert_matches_reference(r, t)
        assert slab_passes == [t]

    @pytest.mark.parametrize(
        "r, t",
        [
            (Rectangle.from_rows([random_row(1, 5187)]), (1, 12)),
            (
                Rectangle.from_rows([random_row(2, 5187), random_row(3, 5187)]),
                (2, 6),
            ),
            (
                concat([Rectangle.from_rows([random_row(4, n)]) for n in (40, 60)]),
                (1, 5),
            ),
        ],
    )
    def test_many_top_keys_get_a_pass_each(self, r, t, slab_passes):
        assert_matches_reference(r, t)
        dims = list(product(range(1, t[0] + 1), range(1, t[1] + 1)))
        assert slab_passes == [t] + dims[:-1]

    @settings(max_examples=300, deadline=None)
    @given(wide_rectangles(), st.data())
    def test_measure_matches_reference(self, r, data):
        t = (
            data.draw(st.integers(1, r.rows)),
            data.draw(st.integers(1, min(r.width, 5))),
        )
        assert_matches_reference(r, t)

    def test_heap_peak_of_a_purify_window(self):
        # one measure of a 5,187-column lifted window at 2x3 reads about
        # 5 KB of traced heap; a column-first counter read 222 KB.  The
        # untraced first call leaves no lazy set-up to the traced one.
        r = window_to_rectangle(lift_binary(bernoulli_window(F(1, 2), 1, 5188), 2))
        empirical_measure(r, (2, 3))
        tracemalloc.start()
        try:
            empirical_measure(r, (2, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.width == 5187
        assert peak < 16 * 1024


@st.composite
def measure_key_cases(draw):
    """A rectangle of 1-3 rows and 1-40 columns over {1, 2}, a truncation
    (R, W) within it, and a second rectangle.  The second is drawn afresh,
    or it is the first with two adjacent segments [i, j) and [j, m) swapped
    where columns i, j and m open the same W - 1 columns of rows 1..R and
    m <= width - W + 1.  Such a swap exchanges two closed walks of the
    de Bruijn path of the top slabs, so it keeps their counts and the last
    W - 1 columns: the keys agree.  Returns (a, b, truncation, swapped)."""
    rows, width = draw(st.integers(1, 3)), draw(st.integers(1, 40))

    def grid():
        row = st.lists(st.integers(1, 2), min_size=width, max_size=width)
        return draw(st.lists(row, min_size=rows, max_size=rows))

    cells = grid()
    t = (draw(st.integers(1, rows)), draw(st.integers(1, min(width, 5))))
    opens = {}
    for i in range(width - t[1] + 2):
        block = tuple(tuple(row[i : i + t[1] - 1]) for row in cells[: t[0]])
        opens.setdefault(block, []).append(i)
    triples = [ps for ps in opens.values() if len(ps) >= 3]
    if triples and draw(st.booleans()):
        ps = draw(st.sampled_from(triples))
        i, j, m = sorted(draw(st.sets(st.sampled_from(ps), min_size=3, max_size=3)))
        other = [row[:i] + row[j:m] + row[i:j] + row[m:] for row in cells]
        swapped = True
    else:
        other, swapped = grid(), False
    a, b = Rectangle.from_rows(cells), Rectangle.from_rows(other)
    return a, b, t, swapped


class TestMeasureKeySoundness:
    @settings(max_examples=300, deadline=None)
    @given(measure_key_cases())
    def test_equal_keys_give_equal_measures(self, case):
        a, b, t, swapped = case
        key = measures._measure_key(a, t)
        if swapped:
            assert measures._measure_key(b, t) == key
        if measures._measure_key(b, t) == key:
            assert empirical_measure(a, t).dims == empirical_measure(b, t).dims

    def test_different_rectangles_share_a_key(self):
        # 1121 and 1211 hold the 2-blocks 11, 12 and 21 once each and end
        # in 1: one key, one measure
        a, b = rect("1121"), rect("1211")
        assert measures._measure_key(a, (1, 2)) == measures._measure_key(b, (1, 2))
        assert empirical_measure(a, (1, 2)) == empirical_measure(b, (1, 2))
        # 2112 holds the same 2-blocks but ends in 2: its 1-blocks differ,
        # and so does its key
        c = rect("2112")
        assert measures._measure_key(a, (1, 2)) != measures._measure_key(c, (1, 2))
        assert empirical_measure(a, (1, 2)) != empirical_measure(c, (1, 2))


class TestEmpiricalMeasure:
    def test_constant_word(self):
        m = empirical_measure(rect("1111"), (1, 2))
        assert weight(m, rect("1")) == 1
        assert weight(m, rect("11")) == 1
        assert weight(m, rect("2")) == 0

    def test_alternating(self):
        m = empirical_measure(rect("1212"), (1, 1))
        assert weight(m, rect("1")) == F(1, 2)
        assert weight(m, rect("2")) == F(1, 2)

    def test_lifted_window_brute_force(self):
        w = lift_binary("010010", 2)
        r = window_to_rectangle(w)
        m = empirical_measure(r, (2, 2))
        # independent recount of every sub-rectangle frequency
        for rows in (1, 2):
            for width in (1, 2):
                offsets = r.width - width + 1
                seen = {}
                for i in range(offsets):
                    key = tuple(row[i : i + width] for row in r.cells[:rows])
                    seen[key] = seen.get(key, 0) + 1
                for key, count in seen.items():
                    q = Rectangle.from_rows(key)
                    assert weight(m, q) == F(count, offsets)

    def test_truncation_too_large(self):
        with pytest.raises(ValueError):
            empirical_measure(rect("12"), (1, 3))

    @given(words)
    def test_dimension_sums_are_one(self, word):
        m = empirical_measure(rect(word), (1, 3))
        assert set(m.dims) == {(1, 1), (1, 2), (1, 3)}
        for n, counts in m.dims.values():
            assert sum(counts.values()) == n


class TestDstar:
    def test_identity(self):
        r = rect("1212")
        assert dstar(r, r, (1, 3)).value == 0

    def test_hand_value_half(self):
        assert dstar(rect("11"), rect("12"), (1, 2)).value == F(1, 2)

    def test_hand_value_five_twelfths(self):
        pm = point_mass(rect("1"), (1, 2))
        assert dstar(rect("121"), pm, (1, 2)).value == F(5, 12)

    def test_tail_bound(self):
        d = dstar(rect("11"), rect("12"), (1, 2))
        covered = (1 - F(1, 2)) * (1 - F(1, 4))
        assert d.tail_bound == 2 * (1 - covered)
        assert d.value + d.tail_bound <= 2

    def test_tail_bound_every_truncation(self):
        grid = Rectangle.from_rows([[1, 2, 2, 1, 2, 1, 1, 2]] * 8)
        for rows in range(1, 9):
            for width in range(1, 9):
                m = empirical_measure(grid, (rows, width))
                covered = (1 - F(1, 2**rows)) * (1 - F(1, 2**width))
                tail = dstar(m, m, (rows, width)).tail_bound
                assert tail == 2 * (1 - covered), (rows, width)

    def test_truncation_mismatch(self):
        m = empirical_measure(rect("1212"), (1, 2))
        with pytest.raises(TruncationMismatch):
            dstar(m, rect("1212"), (1, 3))

    @given(words, words)
    def test_symmetry(self, a, b):
        t = (1, 3)
        assert dstar(rect(a), rect(b), t).value == dstar(rect(b), rect(a), t).value

    @given(words, words, words)
    def test_triangle(self, a, b, c):
        t = (1, 3)
        ab = dstar(rect(a), rect(b), t).value
        bc = dstar(rect(b), rect(c), t).value
        ac = dstar(rect(a), rect(c), t).value
        assert ac <= ab + bc


def reference_dstar(ma, mb):
    # the per-cylinder body dstar used before measures stored counts
    total = Fraction(0)
    for q in set(weights(ma)) | set(weights(mb)):
        diff = abs(weight(ma, q) - weight(mb, q))
        if diff:
            total += Fraction(diff, 2 ** (q.rows + q.width))
    return total


@st.composite
def counted_measures(draw):
    # 2-4 measures of marked rectangles at one truncation within all of them
    rects = draw(st.lists(small_rectangles(), min_size=2, max_size=4))
    rows = draw(st.integers(1, min(r.rows for r in rects)))
    width = draw(st.integers(1, min(r.width for r in rects)))
    return [empirical_measure(r, (rows, width)) for r in rects]


@st.composite
def lambdas(draw, k):
    # k nonnegative integers, zeros allowed, normalised to sum to one
    raw = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    raw[draw(st.integers(0, k - 1))] += 1
    return [F(x, sum(raw)) for x in raw]


class TestDstarDifferential:
    @settings(max_examples=200, deadline=None)
    @given(counted_measures())
    def test_counted_measures(self, ms):
        t = ms[0].truncation
        for ma in ms:
            for mb in ms:
                assert dstar(ma, mb, t).value == reference_dstar(ma, mb)

    @settings(max_examples=150, deadline=None)
    @given(counted_measures(), st.data())
    def test_mixtures(self, ms, data):
        t = ms[0].truncation
        left = mixture(ms, data.draw(lambdas(len(ms))))
        right = mixture(ms, data.draw(lambdas(len(ms))))
        for ma, mb in [(left, right), (left, ms[0]), (ms[-1], right)]:
            assert dstar(ma, mb, t).value == reference_dstar(ma, mb)


class TestMixture:
    def test_single(self):
        m = empirical_measure(rect("1212"), (1, 2))
        assert weights(mixture([m], [F(1)])) == weights(m)

    def test_equal_point_masses(self):
        t = (1, 1)
        mix = mixture(
            [point_mass(rect("1"), t), point_mass(rect("2"), t)],
            [F(1, 2), F(1, 2)],
        )
        assert weight(mix, rect("1")) == F(1, 2)

    def test_weights_must_sum_to_one(self):
        m = empirical_measure(rect("1212"), (1, 2))
        with pytest.raises(ValueError):
            mixture([m, m], [F(1, 2), F(1, 3)])

    @given(words, words, words, words, st.integers(0, 4))
    def test_convexity(self, a, b, c, d, lam_num):
        t = (1, 2)
        lam = F(lam_num, 4)
        ma, mb = empirical_measure(rect(a), t), empirical_measure(rect(b), t)
        mc, md = empirical_measure(rect(c), t), empirical_measure(rect(d), t)
        left = mixture([ma, mc], [lam, 1 - lam])
        right = mixture([mb, md], [lam, 1 - lam])
        bound = lam * dstar(ma, mb, t).value + (1 - lam) * dstar(mc, md, t).value
        assert dstar(left, right, t).value <= bound


class TestConcat:
    def test_single(self):
        r = rect("121")
        assert concat([r]) == r

    def test_width_adds(self):
        parts = [rect("12"), rect("121"), rect("2")]
        assert concat(parts).width == sum(p.width for p in parts)
        assert concat([rect("11"), rect("2")]).cells == ((1, 1, 2),)

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            concat([rect("11"), Rectangle.from_rows([[1], [2]])])

    def test_concatenation_bound_spot(self):
        # pieces exactly matching their own measures: eps = 0, so the
        # mixture distance is pure boundary effect, within 8*q*Rw/n
        t = (1, 2)
        parts = [rect("12" * 60), rect("1" * 130)]
        measures = [empirical_measure(p, t) for p in parts]
        glued = concat(parts)
        n = glued.width
        lams = [F(p.width, n) for p in parts]
        d = dstar(
            empirical_measure(glued, t),
            mixture(measures, lams),
            t,
        ).value
        assert d <= F(8 * len(parts) * t[1], n)


class TestCesaroSpread:
    def test_periodic_even_blocks(self):
        assert cesaro_spread("12" * 20, "1", 4) == 0

    def test_periodic_odd_blocks(self):
        assert cesaro_spread("12" * 20, "1", 3) == F(1, 3)

    def test_constant(self):
        assert cesaro_spread("1" * 30, "11", 5) == 0

    def test_too_short(self):
        with pytest.raises(ValueError):
            cesaro_spread("121", "1", 2)
