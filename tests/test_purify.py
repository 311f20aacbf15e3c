from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from strictform.arrays import Rectangle, lift_binary, window_to_rectangle
from strictform.markers import MarkerSystem, build_marker_system
from strictform.measures import dstar, empirical_measure, point_mass
from strictform.purify import (
    GOOD,
    BAD,
    MissingLength,
    PurifyConfig,
    SeparationViolation,
    TargetFamily,
    classify,
    config_from_dict,
    extract_k_rectangles,
    purify_pipeline,
    replace_bad,
    select_tabbed,
)

F = Fraction


def reference_classify(rect, family):
    """classify without a memo, as first written: the reference."""
    bare = rect.without_marks()
    for member in family.members:
        if dstar(bare, member, family.truncation).value < family.gamma:
            return GOOD
    return BAD


def point_family(symbol, gamma, truncation=(1, 2)):
    pm = point_mass(Rectangle.from_word(str(symbol)), truncation)
    return TargetFamily((1,), (pm,), F(gamma))


def mixed_tree_config():
    """Depth-2 config whose noisy samples force replacements at both stages
    while the clean samples guarantee tabbed availability."""
    return config_from_dict(
        {
            "truncation": [1, 2],
            "gaps": [12, 1296],
            "depths": [1, 2],
            "epsilons": ["1/2", "1/4"],
            "columns": 5186,
            "tree": [
                {"families": [
                    {"target": "periodic:0",
                     "samples": ["periodic:0", "bernoulli:1/4:seed=1"]},
                    {"target": "periodic:0011",
                     "samples": ["periodic:0011"]},
                ]},
                {"families": [
                    {"target": "periodic:1",
                     "samples": ["periodic:1", "bernoulli:3/4:seed=2"]},
                    {"target": "periodic:1101",
                     "samples": ["periodic:1101"]},
                ]},
            ],
        }
    )


class TestExtractKRectangles:
    def test_two_widths(self):
        w = lift_binary("01001010", 1)
        ms = MarkerSystem(((0, 3, 7),), (3,), 0, 7)
        rects = extract_k_rectangles(w, ms, 1)
        assert [r.width for r in rects] == [3, 4]

    def test_no_complete_gap(self):
        w = lift_binary("0101", 1)
        ms = MarkerSystem(((-2, 6),), (8,), -2, 6)
        assert extract_k_rectangles(w, ms, 1) == []

    def test_bad_gap_rejected(self):
        w = lift_binary("0100101", 1)
        ms = MarkerSystem(((0, 6),), (3,), 0, 6)
        with pytest.raises(ValueError):
            extract_k_rectangles(w, ms, 1)

    def test_interior_markers_embedded(self):
        w = lift_binary("010010100", 2)
        ms = MarkerSystem(((0, 3, 7), (0, 7)), (3, 7), 0, 7)
        rects = extract_k_rectangles(w, ms, 2)
        assert len(rects) == 1
        assert rects[0].marks[0] == (False, False, True, False, False, False, True)


class TestClassify:
    def test_exact_match_good(self):
        fam = point_family(1, F(3, 10))
        assert classify(Rectangle.from_word("111"), fam) == GOOD

    def test_far_rectangle_bad(self):
        # d*("121", point-mass on 1) = 5/12 > 3/10
        fam = point_family(1, F(3, 10))
        assert classify(Rectangle.from_word("121"), fam) == BAD

    def test_gamma_zero_strict(self):
        fam = point_family(1, F(0))
        assert classify(Rectangle.from_word("111"), fam) == BAD

    def test_flags_ignored(self):
        fam = point_family(1, F(3, 10))
        marked = Rectangle.from_rows([[1, 1, 1]], [[False, True, False]])
        assert classify(marked, fam) == GOOD

    def test_min_over_members(self):
        t = (1, 2)
        fam = TargetFamily(
            (1,),
            (point_mass(Rectangle.from_word("1"), t),
             point_mass(Rectangle.from_word("2"), t)),
            F(1, 10),
        )
        assert classify(Rectangle.from_word("222"), fam) == GOOD


def _grids(rows, min_width, max_width):
    return st.integers(min_width, max_width).flatmap(
        lambda w: st.lists(
            st.lists(st.integers(1, 2), min_size=w, max_size=w),
            min_size=rows,
            max_size=rows,
        )
    )


@st.composite
def family_and_calls(draw):
    """A family of 1-3 members and a sequence of classify calls that mixes
    marked and unmarked copies of the same cells and repeats them."""
    rows, width = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    trunc = (rows, width)
    members = tuple(
        empirical_measure(Rectangle.from_rows(g), trunc)
        for g in draw(st.lists(_grids(rows, width, 8), min_size=1, max_size=3))
    )
    pool = []
    for grid in draw(st.lists(_grids(rows, width, 5), min_size=2, max_size=5)):
        marks = draw(
            st.lists(
                st.lists(st.booleans(), min_size=len(grid[0]),
                         max_size=len(grid[0])),
                min_size=rows,
                max_size=rows,
            )
        )
        pool += [Rectangle.from_rows(grid), Rectangle.from_rows(grid, marks)]
    # a radius equal to one rectangle's distance splits the pool
    gamma = draw(
        st.sampled_from(
            [min(dstar(r, m, trunc).value for m in members) for r in pool]
        )
    )
    family = TargetFamily((1,), members, gamma)
    calls = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return family, pool + calls


class TestClassifyMemo:
    @given(family_and_calls())
    def test_matches_reference(self, case):
        family, calls = case
        for rect in calls:
            assert classify(rect, family) == reference_classify(rect, family)

    @given(
        st.lists(st.sampled_from([3, 4]), min_size=1, max_size=6),
        st.data(),
    )
    def test_replace_bad_output_good_on_fresh_family(self, widths, data):
        # judged by the reference on a new family, so no verdict cached
        # during the replacement can vouch for its own output
        cuts = [0]
        for width in widths:
            cuts.append(cuts[-1] + width)
        word = data.draw(
            st.text("01", min_size=cuts[-1] + 1, max_size=cuts[-1] + 1)
        )
        w = lift_binary(word, 1)
        ms = MarkerSystem((tuple(cuts),), (3,), 0, cuts[-1])
        tabbed = {
            3: Rectangle.from_word("111"),
            4: Rectangle.from_word("1111"),
        }
        fam = point_family(1, F(3, 10))
        out, ms2, _, _ = replace_bad(w, ms, 1, fam, tabbed)
        fresh = point_family(1, F(3, 10))
        for rect in extract_k_rectangles(out, ms2, 1):
            assert reference_classify(rect, fresh) == GOOD


class TestSelectTabbed:
    def test_basic_pair(self):
        good = [Rectangle.from_word("111"), Rectangle.from_word("1111")]
        short, long = select_tabbed(good, 3)
        assert short.width == 3 and long.width == 4

    def test_missing_length(self):
        good = [Rectangle.from_word("111"), Rectangle.from_word("112")]
        with pytest.raises(MissingLength) as exc:
            select_tabbed(good, 3)
        assert exc.value.width == 4

    def test_lexicographic_and_order_free(self):
        a = Rectangle.from_word("112")
        b = Rectangle.from_word("111")
        c = Rectangle.from_word("2111")
        assert select_tabbed([a, b, c], 3) == select_tabbed([c, a, b], 3)
        assert select_tabbed([a, b, c], 3)[0] == b

    def test_flag_breaks_tie(self):
        plain = Rectangle.from_word("111")
        marked = Rectangle.from_rows([[1, 1, 1]], [[True, False, False]])
        wide = Rectangle.from_word("1111")
        assert select_tabbed([marked, plain, wide], 3)[0] == plain


class TestReplaceBad:
    def _fixture(self):
        # row 1 reads 1111121111; the middle 3-gap reads 121, which is bad
        w = lift_binary("0000010000", 1)
        ms = MarkerSystem(((0, 3, 6, 9),), (3,), 0, 9)
        fam = point_family(1, F(3, 10))
        tabbed = {
            3: Rectangle.from_word("111"),
            4: Rectangle.from_word("1111"),
        }
        return w, ms, fam, tabbed

    def test_identity_when_all_good(self):
        w = lift_binary("0000000000", 1)
        ms = MarkerSystem(((0, 3, 6, 9),), (3,), 0, 9)
        fam = point_family(1, F(3, 10))
        tabbed = {3: Rectangle.from_word("111"), 4: Rectangle.from_word("1111")}
        out, _, changed, replaced = replace_bad(w, ms, 1, fam, tabbed)
        assert out.cells == w.cells and changed == 0 and replaced == 0

    def test_direct_rule(self):
        # window 111|121|111: the middle 3-gap is bad and becomes 111
        w, ms, fam, tabbed = self._fixture()
        out, _, changed, replaced = replace_bad(w, ms, 1, fam, tabbed)
        assert out.cells[0] == (1,) * 10
        assert changed == 3 and replaced == 1

    def test_changed_fraction_accounting(self):
        w, ms, fam, tabbed = self._fixture()
        out, _, changed, _ = replace_bad(w, ms, 1, fam, tabbed)
        diff = sum(
            1 for a, b in zip(w.cells[0], out.cells[0]) if a != b
        )
        assert diff <= changed  # changed counts whole replaced gaps

    def test_rows_above_untouched(self):
        w = lift_binary("01101011101", 2)
        ms = MarkerSystem(((0, 3, 6, 9), (0, 9)), (3, 9), 0, 9)
        fam = point_family(1, F(1, 10))
        tabbed = {3: Rectangle.from_word("111"), 4: Rectangle.from_word("1111")}
        out, _, _, _ = replace_bad(w, ms, 1, fam, tabbed)
        assert out.cells[1] == w.cells[1]

    def test_all_good_after(self):
        w, ms, fam, tabbed = self._fixture()
        out, ms2, _, _ = replace_bad(w, ms, 1, fam, tabbed)
        fresh = point_family(1, F(3, 10))
        for rect in extract_k_rectangles(out, ms2, 1):
            assert classify(rect, fam) == GOOD
            assert reference_classify(rect, fresh) == GOOD

    def test_submarkers_rewritten(self):
        # replacing a 2-rectangle moves the interior row-1 markers to the
        # tabbed rectangle's flags
        w = lift_binary("01101011101", 2)
        ms = MarkerSystem(((0, 4, 9), (0, 9)), (4, 9), 0, 9)
        fam = TargetFamily(
            (1,),
            (empirical_measure(
                window_to_rectangle(lift_binary("0" * 12, 2)), (1, 2)),),
            F(1, 10),
        )
        block = window_to_rectangle(
            lift_binary("0" * 11, 2),
            MarkerSystem(((0, 5, 9), (0, 9)), (5, 9), 0, 9),
        ).sub(2, 1, 9)
        tabbed = {9: block}
        out, ms2, _, replaced = replace_bad(w, ms, 2, fam, tabbed)
        assert replaced == 1
        assert ms2.row(1) == (0, 5, 9)
        assert ms2.row(2) == ms.row(2)


class TestConfigValidation:
    def test_epsilon_summability_guard(self):
        # eps_2 must not exceed eps_1 / 2
        with pytest.raises(ValueError):
            config_from_dict(
                {
                    "truncation": [1, 2], "gaps": [3, 81], "depths": [1, 2],
                    "epsilons": ["1/4", "1/4"], "columns": 100,
                    "tree": [{"families": [
                        {"target": "periodic:0", "samples": ["periodic:0"]},
                    ]}],
                }
            )

    def test_depths_strictly_increasing(self):
        with pytest.raises(ValueError):
            PurifyConfig((1, 2), (3, 81), (2, 2), (F(1, 2), F(1, 4)), 400, ())

    def test_truncation_rows_within_first_depth(self):
        with pytest.raises(ValueError):
            config_from_dict(
                {
                    "truncation": [2, 2], "gaps": [3], "depths": [1],
                    "epsilons": ["1/4"], "columns": 100,
                    "tree": [{"target": "periodic:0", "samples": ["periodic:0"]}],
                }
            )


class TestPipeline:
    def test_depth_one_pure_families(self):
        rep = purify_pipeline(
            config_from_dict(
                {
                    "truncation": [1, 2], "gaps": [3], "depths": [1],
                    "epsilons": ["1/4"], "columns": 2000,
                    "tree": [
                        {"target": "periodic:0", "samples": ["periodic:0"]},
                        {"target": "periodic:1", "samples": ["periodic:1"]},
                    ],
                }
            )
        )
        assert rep["ok"]
        for fam in rep["stages"][0]["families"].values():
            assert fam["census"][BAD] == 0
            assert all(s["replaced"] == 0 for s in fam["samples"])

    def test_fair_coin_mostly_replaced(self):
        rep = purify_pipeline(
            config_from_dict(
                {
                    "truncation": [1, 2], "gaps": [3], "depths": [1],
                    "epsilons": ["1/4"], "columns": 2000,
                    "tree": [
                        {"target": "periodic:0", "samples": ["periodic:0"]},
                        {"target": "periodic:1",
                         "samples": ["bernoulli:1/2:seed=7"]},
                    ],
                }
            )
        )
        assert rep["ok"]
        fam = rep["stages"][0]["families"]["2"]
        census = fam["census"]
        assert census[BAD] > 2 * census[GOOD]
        assert all(s["all_good_after"] for s in fam["samples"])

    def test_mixed_tree_end_to_end(self):
        rep = purify_pipeline(mixed_tree_config())
        assert rep["ok"] and rep["nesting_ok"]
        replaced = [
            s["replaced"]
            for st in rep["stages"]
            for fam in st["families"].values()
            for s in fam["samples"]
        ]
        assert any(r > 0 for r in replaced)  # both mechanisms exercised
        for st in rep["stages"]:
            for fam in st["families"].values():
                assert all(s["all_good_after"] for s in fam["samples"])
                assert fam["diameter_ok"] and fam["displacement_ok"]
        # cumulative accounting is per stage, never exceeding the window
        for entry in rep["cumulative_changes"]:
            assert entry["changed_columns_total"] <= 2 * 5186

    def test_explicit_gamma_validated(self):
        cfg = config_from_dict(
            {
                "truncation": [1, 2], "gaps": [3], "depths": [1],
                "epsilons": ["1/4"], "gammas": ["1/2"], "columns": 2000,
                "tree": [
                    {"target": "periodic:0", "samples": ["periodic:0"]},
                    {"target": "periodic:1", "samples": ["periodic:1"]},
                ],
            }
        )
        with pytest.raises(SeparationViolation):
            purify_pipeline(cfg)

    def test_separation_violation_identical_targets(self):
        cfg = config_from_dict(
            {
                "truncation": [1, 2], "gaps": [3], "depths": [1],
                "epsilons": ["1/4"], "columns": 2000,
                "tree": [
                    {"target": "periodic:0", "samples": ["periodic:0"]},
                    {"target": "periodic:0", "samples": ["periodic:0"]},
                ],
            }
        )
        with pytest.raises(SeparationViolation):
            purify_pipeline(cfg)
