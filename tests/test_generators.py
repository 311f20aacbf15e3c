import math
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from strictform.generators import (
    GeneratorSpec,
    HorizonExhausted,
    LanguageOracle,
    _chacon_text,
    _splitmix64,
    bernoulli_window,
    parse_spec,
    sturmian_word,
)
from test_measures import cesaro_spread

F = Fraction
GOLDEN = F(309017, 500000)  # rational stand-in for 1/phi


def assert_factor_closed(oracle, n):
    longer = set(oracle.words(n + 1))
    shorter = set(oracle.words(n))
    for w in longer:
        assert w[:-1] in shorter and w[1:] in shorter


class TestPeriodicOracle:
    def test_words_of_12(self):
        words = set(parse_spec("periodic:12").oracle(64).words(2))
        assert words == {"12", "21"}

    def test_constant(self):
        assert set(parse_spec("periodic:1").oracle(64).words(4)) == {"1111"}

    def test_cyclic_shifts(self):
        words = set(parse_spec("periodic:112").oracle(64).words(3))
        assert words == {"112", "121", "211"}

    def test_factor_closed(self):
        assert_factor_closed(parse_spec("periodic:1121221").oracle(64), 5)

    def test_horizon_enforced(self):
        o = parse_spec("periodic:12").oracle(8)
        with pytest.raises(HorizonExhausted):
            o.contains("121212121")


class TestFullShiftOracle:
    def test_word_count(self):
        assert len(list(parse_spec("full:2").oracle(10**6).words(3))) == 8

    def test_membership(self):
        o = parse_spec("full:2").oracle(10**6)
        assert o.contains("121")
        assert not o.contains("131")


def reference_sturmian_word(alpha, rho, n):
    # the Fraction loop that sturmian_word used before its integer floors
    def floor(x):
        return x.numerator // x.denominator

    out = []
    prev = floor(rho)
    for i in range(1, n + 1):
        cur = floor(i * alpha + rho)
        out.append(str(cur - prev))
        prev = cur
    return "".join(out)


@st.composite
def rotations(draw):
    # alpha = P/Q with Q up to 10^6, a signed phase and a length below Q
    q = draw(st.integers(2, 10**6))
    alpha = F(draw(st.integers(1, q - 1)), q)
    rho = F(draw(st.integers(-(10**6), 10**6)), draw(st.integers(1, 10**6)))
    n = draw(st.integers(0, min(alpha.denominator - 1, 3000)))
    return alpha, rho, n


class TestSturmian:
    @settings(max_examples=200, deadline=None)
    @given(rotations())
    def test_matches_fraction_reference(self, args):
        assert sturmian_word(*args) == reference_sturmian_word(*args)

    @pytest.mark.parametrize("rho", [F(-7, 5), F(22, 7)])
    def test_long_word_matches_fraction_reference(self, rho):
        assert sturmian_word(GOLDEN, rho, 24302) == reference_sturmian_word(
            GOLDEN, rho, 24302
        )

    def test_frozen_golden_prefix(self):
        # independent evaluation of the floor formula gives 01011
        assert sturmian_word(GOLDEN, F(0), 5) == "01011"

    def test_matches_direct_floor_formula(self):
        a, r = F(7040, 10007), F(1, 3)
        expect = "".join(
            str(math.floor((i + 1) * a + r) - math.floor(i * a + r))
            for i in range(40)
        )
        assert sturmian_word(a, r, 40) == expect

    def test_near_zero_alpha(self):
        assert sturmian_word(F(1, 1000), F(0), 10) == "0" * 10

    def test_denominator_too_small(self):
        with pytest.raises(ValueError):
            sturmian_word(F(2, 5), F(0), 10)

    def test_complement_symmetry(self):
        n = 60
        w = sturmian_word(GOLDEN, F(0), n)
        wc = sturmian_word(1 - GOLDEN, F(0), n)
        flipped = "".join("1" if c == "0" else "0" for c in w)
        # boundary effects allowed at a bounded number of positions
        diffs = sum(1 for a, b in zip(wc, flipped) if a != b)
        assert diffs <= 2

    def test_complexity_n_plus_one(self):
        # the unique-ergodicity signature: exactly n+1 factors of length n
        o = parse_spec("sturmian:309017/500000").oracle(16)
        for n in range(1, 13):
            assert len(list(o.words(n))) == n + 1

    def test_factor_closed(self):
        o = parse_spec("sturmian:309017/500000").oracle(10)
        assert_factor_closed(o, 6)

    def test_cesaro_decay_envelope(self):
        w = sturmian_word(GOLDEN, F(0), 4096)
        spreads = [cesaro_spread(w, "1", n) for n in (8, 16, 32, 64, 128)]
        assert all(b <= a for a, b in zip(spreads, spreads[1:]))
        assert spreads[-1] < spreads[0]


def reference_sturmian_floors(alpha, rho, n):
    # the integer-floor loop that sturmian_word ran as a Python step per
    # symbol before its modular comparison
    (p, q), (u, v) = alpha.as_integer_ratio(), rho.as_integer_ratio()
    out = []
    prev = u * q // (q * v)
    for i in range(1, n + 1):
        cur = (i * p * v + u * q) // (q * v)
        out.append(str(cur - prev))
        prev = cur
    return "".join(out)


@st.composite
def wide_rotations(draw):
    # alpha = P/Q with Q up to 10^9, a phase that is negative or at least 1,
    # and a length up to min(Q - 1, 500), Q being alpha's reduced denominator
    q = draw(st.integers(2, 10**9))
    alpha = F(draw(st.integers(1, q - 1)), q)
    v = draw(st.integers(1, 10**9))
    u = draw(st.integers(-(10**12), -1) | st.integers(v, v + 10**12))
    n = draw(st.integers(0, min(alpha.denominator - 1, 500)))
    return alpha, F(u, v), n


class TestSturmianDifferential:
    @settings(max_examples=300, deadline=None)
    @given(wide_rotations())
    def test_matches_integer_floor_loop(self, args):
        assert sturmian_word(*args) == reference_sturmian_floors(*args)

    @settings(max_examples=200, deadline=None)
    @given(wide_rotations())
    def test_matches_fraction_definition(self, args):
        assert sturmian_word(*args) == reference_sturmian_word(*args)

    @pytest.mark.parametrize("rho", [F(-1), F(-1, 3), F(1), F(7, 3)])
    def test_longest_word_below_the_denominator(self, rho):
        alpha = F(2, 7)
        assert sturmian_word(alpha, rho, 6) == reference_sturmian_word(
            alpha, rho, 6
        )

    def test_heap_peak_of_a_purify_word(self):
        # a 5,187-symbol word peaks at about 11 KB of traced heap: the
        # comparison bytes, then their ASCII copy and the str.  The loop of
        # one str per symbol read 306 KB.
        sturmian_word(GOLDEN, F(1, 3), 5187)
        tracemalloc.start()
        try:
            word = sturmian_word(GOLDEN, F(1, 3), 5187)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(word) == 5187
        assert peak < 16 * 1024


def reference_chacon_text(depth):
    """B_depth as the depth-fold iterate of the substitution 0 -> 0010,
    1 -> 1 from the seed 0, one symbol at a time."""
    rules = {"0": "0010", "1": "1"}
    text = "0"
    for _ in range(depth):
        text = "".join(rules[c] for c in text)
    return text


class TestSubstitution:
    def test_chacon_square(self):
        assert _chacon_text(13) == "0010001010010"

    def test_factor_closed(self):
        # horizon 20 keeps B_4, the 121-symbol iterate
        o = parse_spec("chacon").oracle(20)
        assert o.text == reference_chacon_text(4)
        assert_factor_closed(o, 6)


class TestChaconTextDifferential:
    @pytest.mark.parametrize("d", range(11))
    def test_matches_substitution_iterate(self, d):
        size = (3 ** (d + 1) - 1) // 2
        assert len(reference_chacon_text(d)) == size
        for n in (size - 1, size, size + 1):
            want = reference_chacon_text(d if n <= size else d + 1)
            assert _chacon_text(n) == want, n


class TestChaconOracle:
    # |B_d| = (3^(d+1) - 1) / 2 is 13, 40, 121, 364, 1093 for d = 2..6, so
    # h = 2, 6, 20, 60, 182 are the largest horizons those iterates serve
    @pytest.mark.parametrize(
        "h", [1, 2, 3, 6, 7, 20, 21, 60, 61, 64, 182, 183]
    )
    def test_full_complexity_up_to_twice_horizon(self, h):
        text = parse_spec("chacon").oracle(h).text
        # the shortest iterate with at least 6h + 1 symbols
        assert len(text) >= 6 * h + 1 > (len(text) - 1) // 3
        for n in range(2, 2 * h + 1):
            factors = {text[i : i + n] for i in range(len(text) - n + 1)}
            assert len(factors) == 2 * n - 1, n

    def test_horizon_64_holds_depth_6(self):
        o = parse_spec("chacon").oracle(64)
        assert o.text == reference_chacon_text(6) and len(o.text) == 1093
        assert o.horizon == 64


def reference_bernoulli_window(p, seed, n):
    """bernoulli_window as first written, comparing each draw with the
    fraction p * 2^64: the reference."""
    if not 0 < p < 1:
        raise ValueError("success probability must lie strictly in (0, 1)")
    threshold = p * (1 << 64)
    gen = _splitmix64(seed)
    return "".join(
        "1" if next(gen) < threshold else "0" for _ in range(n)
    )


@st.composite
def probabilities(draw):
    # p * 2^64 is an integer for the dyadic ones
    dyadic = st.sampled_from([F(1, 2), F(3, 4), F(5, 8), F(1, 2**64)])
    b = draw(st.integers(2, 10**6))
    small = st.integers(1, b - 1).map(lambda a: F(a, b))
    return draw(st.one_of(dyadic, small))


seeds = st.integers(0, 2**64 - 1)


class TestBernoulli:
    @settings(max_examples=200, deadline=None)
    @given(probabilities(), seeds, st.integers(0, 2000))
    def test_matches_reference(self, p, seed, n):
        assert bernoulli_window(p, seed, n) == reference_bernoulli_window(p, seed, n)

    @settings(max_examples=100, deadline=None)
    @given(seeds, st.integers(0, 50), st.sampled_from([0, 1]))
    def test_threshold_at_a_draw(self, seed, i, half):
        # p * 2^64 is the i-th draw itself or half a unit above it, where
        # rounding the threshold the wrong way would flip bit i
        x = next(islice(_splitmix64(seed), i, None))
        p = F(2 * x + half, 2**65)
        want = reference_bernoulli_window(p, seed, i + 1)
        assert want[i] == "01"[half]
        assert bernoulli_window(p, seed, i + 1) == want

    def test_deterministic(self):
        a = bernoulli_window(F(1, 2), 42, 64)
        b = bernoulli_window(F(1, 2), 42, 64)
        assert a == b

    def test_bit_stable_reference(self):
        # frozen from an independent splitmix64 implementation
        assert bernoulli_window(F(1, 2), 42, 16) == "0111101010110001"

    def test_seeds_differ(self):
        assert bernoulli_window(F(1, 2), 1, 64) != bernoulli_window(F(1, 2), 2, 64)

    def test_fair_coin_frequency(self):
        w = bernoulli_window(F(1, 2), 7, 10**5)
        ones = w.count("1")
        assert abs(F(ones, 10**5) - F(1, 2)) < F(1, 100)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            bernoulli_window(F(1), 0, 4)


class TestParseSpec:
    def test_periodic(self):
        spec = parse_spec("periodic:112")
        assert spec.word(6) == "112112"

    def test_sturmian_with_rho(self):
        spec = parse_spec("sturmian:309017/500000:rho=1/3")
        assert spec.alpha == GOLDEN and spec.rho == F(1, 3)

    def test_chacon(self):
        assert parse_spec("chacon").word(13) == "0010001010010"

    def test_bernoulli(self):
        spec = parse_spec("bernoulli:1/2:seed=42")
        assert spec.word(16) == "0111101010110001"

    def test_full(self):
        o = parse_spec("full:2").oracle(10)
        assert o.contains("12")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_spec("weird:1")

    def test_bad_option(self):
        with pytest.raises(ValueError):
            parse_spec("sturmian:1/3:phase=2")

    @given(st.sampled_from(["periodic:12", "chacon", "bernoulli:1/3:seed=5"]),
           st.integers(8, 40))
    def test_word_prefix_stability(self, spec_str, n):
        spec = parse_spec(spec_str)
        assert spec.word(n + 5)[:n] == spec.word(n)


def reference_oracle(spec, horizon):
    """GeneratorSpec.oracle as the per-kind oracle constructors built it,
    with their checks: the reference."""
    if spec.kind == "periodic":
        word = spec.word_arg
        if not word:
            raise ValueError("period word must be nonempty")
        reps = 2 * horizon // len(word) + 2
        return LanguageOracle(tuple(sorted(set(word))), horizon, word * reps)
    if spec.kind == "sturmian":
        text = sturmian_word(spec.alpha, spec.rho, 8 * horizon)
        return LanguageOracle(("0", "1"), horizon, text)
    if spec.kind == "chacon":
        depth = 0
        while len(reference_chacon_text(depth)) < 6 * horizon + 1:
            depth += 1
        text = reference_chacon_text(depth)
        return LanguageOracle(("0", "1"), horizon, text)
    if spec.kind == "bernoulli":
        text = bernoulli_window(spec.p, spec.seed, 8 * horizon)
        return LanguageOracle(("0", "1"), horizon, text)
    if spec.kind == "full":
        if not 1 <= spec.size <= 9:
            raise ValueError("alphabet size must be in [1, 9]")
        alphabet = tuple(str(s) for s in range(1, spec.size + 1))
        return LanguageOracle(alphabet, horizon)
    raise ValueError(f"unknown oracle kind {spec.kind!r}")


def _fields_or_error(build, spec, horizon):
    try:
        o = build(spec, horizon)
    except ValueError as exc:
        return type(exc), str(exc)
    return o.alphabet, o.horizon, o.text


class TestOracleDifferential:
    # sturmian:1/3 fails at every horizon and the 1009 denominator from
    # horizon 127 on: the word is longer than the denominator allows
    @pytest.mark.parametrize(
        "spec",
        [
            "periodic:0", "periodic:01", "periodic:1121221",
            "periodic:0123456789", "sturmian:309017/500000",
            "sturmian:309017/500000:rho=1/3", "sturmian:700/1009:rho=-7/5",
            "sturmian:1/3", "chacon", "bernoulli:1/2:seed=42",
            "bernoulli:1/8:seed=3", "full:1", "full:2", "full:9",
        ],
    )
    def test_matches_per_kind_constructors(self, spec):
        parsed = parse_spec(spec)
        for h in [*range(1, 81), 182, 183, 300, 1000]:
            got = _fields_or_error(GeneratorSpec.oracle, parsed, h)
            want = _fields_or_error(reference_oracle, parsed, h)
            assert got == want, h
