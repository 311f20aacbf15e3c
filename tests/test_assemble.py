from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from strictform.arrays import (
    INDEPENDENT,
    ArrayWindow,
    Rectangle,
    lift_binary,
    window_to_rectangle,
    write_arr,
)
from strictform.assemble import (
    NotFoundWithinHorizon,
    NoWitness,
    build_stitch_kit,
    check_stitchable,
    convergence_check,
    embed_aperiodic,
    embed_periodic,
    lifted_contains,
    reconstruct,
    rectangle_to_binary_word,
    tabbed_rectangles,
    transition_length,
    _to_bits,
    _to_oracle_word,
    _witness,
)
from strictform.generators import LanguageOracle, parse_spec
from strictform.markers import MarkerSystem

from array_helpers import from_word
from assemble_helpers import PeriodSpec, detect_exceptional
from test_generators import reference_chacon_text

FULL_SHIFT = parse_spec("full:2").oracle(10**6)


@pytest.fixture(scope="module")
def fs_kit():
    return build_stitch_kit(FULL_SHIFT, 3, 50)


@pytest.fixture(scope="module")
def chacon_kit():
    oracle = parse_spec("chacon").oracle(600)
    return build_stitch_kit(oracle, 2, 200)


class TestDetectExceptional:
    def test_finite_set_not_exceptional(self):
        spec = PeriodSpec(frozenset({2, 4, 6}), all_periodic=True)
        assert not detect_exceptional(spec)

    def test_geometric_not_exceptional(self):
        spec = PeriodSpec(frozenset(), "geometric(2)", all_periodic=True)
        assert not detect_exceptional(spec)

    def test_all_primes_exceptional(self):
        spec = PeriodSpec(frozenset(), "all_primes", all_periodic=True)
        assert detect_exceptional(spec)

    def test_one_defuses_primes(self):
        spec = PeriodSpec(frozenset({1}), "all_primes", all_periodic=True)
        assert not detect_exceptional(spec)

    def test_aperiodic_part_defuses(self):
        spec = PeriodSpec(frozenset(), "all_primes", all_periodic=False)
        assert not detect_exceptional(spec)

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError):
            PeriodSpec(frozenset({2}), "geometric(1)")


class TestBinaryWordBridge:
    def test_roundtrip(self):
        word = "0110101"
        rect = window_to_rectangle(lift_binary(word, 3))
        assert rectangle_to_binary_word(rect) == word

    def test_single_row(self):
        assert rectangle_to_binary_word(from_word("121")) == "010"

    def test_inconsistent_returns_none(self):
        rect = Rectangle.from_rows([[1, 2], [1, 1]])
        assert rectangle_to_binary_word(rect) is None

    def test_nonbinary_row_returns_none(self):
        assert rectangle_to_binary_word(from_word("13")) is None

    def test_lifted_contains(self):
        o = parse_spec("periodic:01").oracle(64)
        assert lifted_contains(o, from_word("1212"))
        assert not lifted_contains(o, from_word("11"))


class TestTransitionLength:
    def test_full_shift_12(self):
        assert transition_length(FULL_SHIFT, from_word("12"), 50) == 2

    def test_full_shift_11(self):
        assert transition_length(FULL_SHIFT, from_word("11"), 50) == 1

    def test_periodic_never_transitions(self):
        # period-2 occurrences differ by even amounts only; an odd horizon
        # leaves no certified tail
        o = parse_spec("periodic:12").oracle(64)
        with pytest.raises(NotFoundWithinHorizon):
            transition_length(o, from_word("1"), 31)

    def test_not_in_language_rejected(self):
        o = parse_spec("periodic:12").oracle(64)
        with pytest.raises(ValueError):
            transition_length(o, from_word("11"), 31)


# --- reference lag search: the pair scans the occurrence mask replaced ------


def ref_transition_length(x0, B, horizon):
    bits = rectangle_to_binary_word(B)
    if bits is None or not x0.contains(_to_oracle_word(x0, bits)):
        raise ValueError("base rectangle not in the language")
    n = len(bits)
    witnessed = set()
    if x0.text is None:
        for l in range(1, horizon + 1):
            if l >= n or bits[l:] == bits[: n - l]:
                witnessed.add(l)
    else:
        occ = x0.occurrences(_to_oracle_word(x0, bits))
        occ_set = set(occ)
        for i in occ:
            for l in range(1, horizon + 1):
                if i + l in occ_set:
                    witnessed.add(l)
    for l0 in range(1, horizon + 1):
        if all(l in witnessed for l in range(l0, horizon + 1)):
            return l0
    raise NotFoundWithinHorizon(
        f"no transition length certified up to horizon {horizon}"
    )


def ref_witness(x0, bits, l):
    n = len(bits)
    total = l + n
    if x0.text is None:
        merged = [None] * total
        for start in (0, l):
            for j, c in enumerate(bits):
                if merged[start + j] not in (None, c):
                    raise NoWitness(l)
                merged[start + j] = c
        return "".join(c if c is not None else "0" for c in merged)
    if total > x0.horizon:
        raise NoWitness(l)
    u = _to_oracle_word(x0, bits)
    occ = set(x0.occurrences(u))
    best = None
    for i in sorted(occ):
        if i + l in occ and i + total <= len(x0.text):
            cand = x0.text[i : i + total]
            if best is None or cand < best:
                best = cand
    if best is None:
        raise NoWitness(l)
    return _to_bits(x0, best)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def chacon_iterate(depth):
    # the whole depth-fold iterate, its length the horizon
    text = reference_chacon_text(depth)
    return LanguageOracle(("0", "1"), len(text), text)


horizons = st.integers(8, 64)
lag_oracles = st.one_of(
    st.builds(
        lambda word, h: parse_spec(f"periodic:{word}").oracle(h),
        st.sampled_from(["01", "12"]).flatmap(
            lambda ab: st.text(ab, min_size=1, max_size=7)
        ),
        horizons,
    ),
    st.builds(
        lambda p, seed, h: (
            parse_spec(f"bernoulli:{p}:seed={seed}").oracle(h)
        ),
        st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
        st.integers(0, 50),
        horizons,
    ),
    st.builds(
        lambda alpha, rho, h: (
            parse_spec(f"sturmian:{alpha}:rho={rho}").oracle(h)
        ),
        st.integers(1, 1008).map(lambda a: Fraction(a, 1009)),
        st.integers(0, 6).map(lambda r: Fraction(r, 7)),
        horizons,
    ),
    st.builds(chacon_iterate, st.integers(0, 8)),
    st.just(FULL_SHIFT),
)


class TestLagSearchDifferential:
    @settings(deadline=None, max_examples=150)
    @given(lag_oracles, st.data())
    def test_matches_pair_scans(self, x0, data):
        n = data.draw(st.integers(1, min(6, x0.horizon)))
        word = data.draw(st.sampled_from(sorted(x0.words(n))))
        bits = "".join(str(sorted(x0.alphabet).index(c)) for c in word)
        k = data.draw(st.integers(1, min(3, n)))
        B = window_to_rectangle(lift_binary(bits, k))
        horizon = data.draw(st.integers(1, 40))
        assert _outcome(transition_length, x0, B, horizon) == _outcome(
            ref_transition_length, x0, B, horizon
        )
        if len(x0.alphabet) != 2:
            return
        for l in range(1, horizon + 3):
            assert _outcome(_witness, x0, bits, l) == _outcome(
                ref_witness, x0, bits, l
            )


class TestBuildKit:
    def test_full_shift_levels(self, fs_kit):
        assert [lb for _, lb in fs_kit.bases] == [1, 1, 1]
        assert fs_kit.l_sequence == [2, 3, 4]
        B1, _ = fs_kit.bases[0]
        assert B1.cells == ((1, 1),)

    def test_base_shapes(self, fs_kit):
        for k, (B, _) in enumerate(fs_kit.bases, start=1):
            assert B.rows == k and B.width == 2 * k
            assert lifted_contains(fs_kit.x0, B)

    def test_l_sequence_monotone(self, fs_kit, chacon_kit):
        for kit in (fs_kit, chacon_kit):
            ls = kit.l_sequence
            assert all(b > a for a, b in zip(ls, ls[1:]))

    def test_level_for(self, fs_kit):
        assert fs_kit.level_for(2) == 1
        assert fs_kit.level_for(3) == 2
        assert fs_kit.level_for(100) == 3
        with pytest.raises(ValueError):
            fs_kit.level_for(1)

    def test_chacon_frozen_outcome(self, chacon_kit):
        assert [lb for _, lb in chacon_kit.bases] == [3, 197]
        assert chacon_kit.l_sequence == [4, 199]


def _kit_and_pairs(x0, levels, horizon):
    """The kit's bases and l_sequence and the tabbed pairs around them, or
    the error that stopped the kit."""
    try:
        kit = build_stitch_kit(x0, levels, horizon)
    except ValueError as exc:
        return type(exc), str(exc)
    ls = kit.l_sequence
    lengths = {ls[0] - 1, *ls, *(l + 1 for l in ls), horizon - 1, horizon}
    pairs = [_outcome(tabbed_rectangles, kit, l) for l in sorted(lengths)]
    return kit.bases, ls, pairs


class TestChaconOracleDifferential:
    # the depth-10 iterate (88,573 symbols) holds every factor of length
    # up to 29,524, far beyond twice each horizon below
    REFERENCE_TEXT = reference_chacon_text(10)

    @pytest.mark.parametrize(
        "levels, horizon",
        [(1, 1), (1, 3), (1, 64), (2, 10), (2, 40), (2, 200), (2, 300),
         (3, 400)],
    )
    def test_matches_long_text(self, levels, horizon):
        short = parse_spec("chacon").oracle(horizon)
        long = LanguageOracle(("0", "1"), horizon, self.REFERENCE_TEXT)
        assert _kit_and_pairs(short, levels, horizon) == (
            _kit_and_pairs(long, levels, horizon)
        )


class TestPeriodicOracleDifferential:
    # the lag search reads the base word at offsets i and i + l, with l up
    # to the horizon, so a text of one horizon plus two periods missed lags
    @pytest.mark.parametrize("word", ["01", "011", "0010", "12"])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("horizon", [21, 29, 30, 31, 40])
    def test_matches_long_text(self, word, levels, horizon):
        short = parse_spec(f"periodic:{word}").oracle(horizon)
        # 200 periods: far more than twice each horizon here
        long = LanguageOracle(short.alphabet, horizon, word * 200)
        assert _kit_and_pairs(short, levels, horizon) == (
            _kit_and_pairs(long, levels, horizon)
        )


class TestTabbedRectangles:
    def test_widths(self, fs_kit):
        R, Rbar = tabbed_rectangles(fs_kit, 4)
        assert R.width == 4 and Rbar.width == 5

    def test_full_shift_all_ones(self, fs_kit):
        R, _ = tabbed_rectangles(fs_kit, 4)
        assert R.cells == ((1, 1, 1, 1),) * 3

    def test_chacon_level_one(self, chacon_kit):
        R, Rbar = tabbed_rectangles(chacon_kit, 4)
        assert R.cells == ((1, 1, 2, 1),)
        assert Rbar.cells == ((1, 1, 2, 1, 1),)

    def test_boundary_halves(self, chacon_kit):
        # each tabbed rectangle starts with the right half of the base
        # rectangle and ends with its left half
        k = 2
        B, _ = chacon_kit.bases[1]
        for rect in tabbed_rectangles(chacon_kit, 199):
            for row, base in zip(rect.cells, B.cells):
                assert row[:k] == base[k:]
                assert row[-k:] == base[:k]

    def test_cached(self, fs_kit):
        assert tabbed_rectangles(fs_kit, 4) is tabbed_rectangles(fs_kit, 4)


class TestCheckStitchable:
    def test_full_shift_all_lengths(self, fs_kit):
        for l in fs_kit.l_sequence:
            ok, bad = check_stitchable(fs_kit, l)
            assert ok and bad == []

    def test_chacon_all_lengths(self, chacon_kit):
        for l in chacon_kit.l_sequence:
            ok, bad = check_stitchable(chacon_kit, l)
            assert ok and bad == []

    def test_corrupted_pair_flagged(self):
        kit = build_stitch_kit(FULL_SHIFT, 2, 50)
        _, Rbar = tabbed_rectangles(kit, 3)
        # a non-lift-consistent tab cannot sit next to anything
        kit.tabbed[3] = (Rectangle.from_rows([[1, 2, 1], [1, 1, 1]]), Rbar)
        ok, bad = check_stitchable(kit, 3)
        assert not ok and bad
        assert all(rectangle_to_binary_word(r) is None for r in bad)


class TestEmbedPeriodic:
    def test_rows_below_rewritten(self, fs_kit):
        w = lift_binary("01101001101", 2)  # 10 columns
        cuts = [0, 2, 4, 6, 8]
        out = embed_periodic(w, cuts, 2, fs_kit)
        assert out.cells[0][1:9] == (1,) * 8
        assert out.cells[0][0] == w.cells[0][0]
        assert out.cells[0][9] == w.cells[0][9]
        assert out.cells[1] == w.cells[1]
        assert out.mode == INDEPENDENT

    def test_idempotent(self, fs_kit):
        w = lift_binary("01101001101", 2)
        cuts = [0, 2, 4, 6, 8]
        once = embed_periodic(w, cuts, 2, fs_kit)
        twice = embed_periodic(once, cuts, 2, fs_kit)
        assert once.cells == twice.cells

    def test_bad_cuts_rejected(self, fs_kit):
        w = lift_binary("01101001101", 2)
        with pytest.raises(ValueError):
            embed_periodic(w, [0, 2, 5], 2, fs_kit)

    def test_needs_row_above(self, fs_kit):
        w = lift_binary("011010", 1)
        with pytest.raises(ValueError):
            embed_periodic(w, [0, 2, 4], 2, fs_kit)


class TestEmbedAperiodic:
    def test_mixed_gaps(self, fs_kit):
        w = lift_binary("01101001101", 2)  # columns 0..9
        ms = MarkerSystem.from_positions(((0, 2, 5, 7, 9),), (2,), 0, 9)
        out = embed_aperiodic(w, ms, 1, fs_kit)
        assert out.cells[0][1:10] == (1,) * 9
        assert out.cells[1] == w.cells[1]

    def test_window_cuts_have_one_owner(self, fs_kit, tmp_path, monkeypatch):
        # every reader of a window's markers asks MarkerSystem.cuts, so the
        # window convention is decided in one place: flags, which renders
        # purify's flag rows and write_arr's "|" marks, asks it too
        w = lift_binary("01101001101", 2)
        ms = MarkerSystem.from_positions(((0, 2, 5, 7, 9),), (2,), 0, 9)
        asked, cuts = [], MarkerSystem.cuts

        def spy(self, k, origin, columns):
            asked.append((k, origin, columns))
            return cuts(self, k, origin, columns)

        monkeypatch.setattr(MarkerSystem, "cuts", spy)
        ms.flags(1, w.origin, w.columns)
        embed_aperiodic(w, ms, 1, fs_kit)
        write_arr(tmp_path / "w.arr", w, ms)
        assert asked == [(1, 0, 10)] * 3

    def test_reconstruct_roundtrip(self, fs_kit):
        w = lift_binary("0110100110", 2)
        ms = MarkerSystem.from_positions(((0, 2, 4, 6, 8),), (2,), 0, 8)
        out = embed_aperiodic(w, ms, 1, fs_kit)
        back = reconstruct(out, 1)
        # row 2 was never touched, so amalgamating it down restores row 1
        assert back.cells[1] == w.cells[1]
        assert back.cells[0] == w.cells[0]


class TestConvergenceCheck:
    def test_clean_windows_pass(self):
        systems = [
            ("a", lift_binary("011010011010", 3), 0, 9),
            ("b", lift_binary("000111000111", 3), 0, 9),
        ]
        rep = convergence_check(systems, FULL_SHIFT, 2)
        assert rep["ok"]
        assert all(s["violations"] == [] for s in rep["systems"])
        assert rep["systems"][0]["checked"] == 9

    def test_violation_located(self):
        w = lift_binary("011010011010", 3)
        cells = [list(r) for r in w.cells]
        cells[1][4] = 1 if cells[1][4] != 1 else 2  # break lift consistency
        broken = ArrayWindow(
            w.sizes, 0, tuple(tuple(r) for r in cells), INDEPENDENT
        )
        rep = convergence_check([("bad", broken, 0, 9)], FULL_SHIFT, 2)
        assert not rep["ok"]
        cols = [v["column"] for v in rep["systems"][0]["violations"]]
        assert cols and all(3 <= c <= 4 for c in cols)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            convergence_check(
                [("a", lift_binary("0110", 1), 0, 2)], FULL_SHIFT, 2
            )


class TestReconstruct:
    def test_identity_on_lifted(self):
        w = lift_binary("011010010", 3)
        out = reconstruct(w, 2)
        assert out.cells == w.cells

    def test_repairs_corrupted_lower_rows(self):
        w = lift_binary("011010010", 3)
        cells = [list(r) for r in w.cells]
        cells[0] = [1] * len(cells[0])
        broken = ArrayWindow(
            w.sizes, 0, tuple(tuple(r) for r in cells), INDEPENDENT
        )
        assert reconstruct(broken, 1).cells == w.cells

    def test_inconsistent_upper_rows_rejected(self):
        w = lift_binary("011010010", 3)
        cells = [list(r) for r in w.cells]
        cells[2] = [1] * len(cells[2])
        broken = ArrayWindow(
            w.sizes, 0, tuple(tuple(r) for r in cells), INDEPENDENT
        )
        with pytest.raises(ValueError):
            reconstruct(broken, 1)

    def test_needs_row_above(self):
        with pytest.raises(ValueError):
            reconstruct(lift_binary("0110", 1), 1)
