import contextlib
import importlib.util
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import strictform.purify as purify

from strictform.arrays import (
    INDEPENDENT,
    ArrayWindow,
    Rectangle,
    canonical_sizes,
    extract_rectangle,
    lift_binary,
    replace_cells,
    window_to_rectangle,
)
from strictform.markers import MarkerSystem, build_marker_system
from strictform.measures import _measure_key, dstar, empirical_measure
from strictform.purify import (
    GOOD,
    BAD,
    MissingLength,
    PurifyConfig,
    SeparationViolation,
    TargetFamily,
    _census,
    _gap_keys,
    _piece_bounds,
    _repair,
    _stage_gamma,
    check_nesting,
    classify,
    config_from_dict,
    purify_pipeline,
    replace_bad,
    select_tabbed,
)

from array_helpers import from_word
from marker_helpers import PositionRows
from measure_helpers import mixture, point_mass
from test_golden import NOISY_CONFIG

F = Fraction


class Grid(NamedTuple):
    """A k-gap as the flag grid that a Rectangle once carried: its cells,
    and ``marks[i][j]`` set iff a row-(i+1) marker sits right after cell
    (i+1, j).  The references work on grids; a purify key is the cells."""

    cells: tuple
    marks: tuple

    @property
    def width(self):
        return len(self.cells[0])


def row_slices(ms, k, origin, columns):
    """The slices of the row-k gaps of ms over the window of ``columns``
    columns at ``origin``, cut as the purify set-up cuts its hierarchy:
    from the column after one marker to the column of the next."""
    bounds = [p - origin + 1 for p in ms.cuts(k, origin, columns)]
    return [*map(slice, bounds, bounds[1:])]


def gap_keys(w, ms, k):
    """Every k-gap of w under ms as (p, key), p its left row-k marker, in
    window order."""
    slices = row_slices(ms, k, w.origin, w.columns)
    ps = [w.origin + s.start - 1 for s in slices]
    return list(zip(ps, _gap_keys(w.cells[:k], slices)))


def sample_of(w, ms, **fields):
    """A sample of window w under ms: the window that the stage loop reads,
    and ms for the position-based references."""
    return SimpleNamespace(window=w, markers=ms, **fields)


def at_markers(bad, w):
    """Census bad gaps ``(s, key)`` as ``(p, key)``, p the left row-k
    marker of the slice s of w."""
    return [(w.origin + s.start - 1, key) for s, key in bad]


def reference_classify(rect, family):
    """classify without a memo, as first written: the reference."""
    for member in family.members:
        if dstar(rect, member, family.truncation).value < family.gamma:
            return GOOD
    return BAD


def gap_marks(rows, p, q):
    """The flag grid marks of the gap (p, q], ``rows`` the sets of the
    marker rows 1..k."""
    return tuple(tuple(x in row for x in range(p + 1, q + 1)) for row in rows)


def reference_extract_k_rectangles(w, ms, k):
    """The k-gaps of w as first extracted, one extract_rectangle and one
    marker scan per gap, each as (p, grid) with the flag grid that
    ``extract_rectangle(..., markers)`` copied: the reference."""
    ps = ms.cuts(k, w.origin, w.columns)
    rows = [set(ms.row(j)) for j in range(1, k + 1)]
    return [
        (p, Grid(extract_rectangle(w, k, p + 1, q).cells, gap_marks(rows, p, q)))
        for p, q in zip(ps, ps[1:])
    ]


def as_grids(tabbed, w, ms, k):
    """The tabbed keys as flag grids: each key's cells, with the marks of a
    gap of its width in w under ms."""
    marks = {
        rect.width: rect.marks
        for _, rect in reference_extract_k_rectangles(w, ms, k)
    }
    return {width: Grid(tabbed[width], m) for width, m in marks.items()}


def reference_select_tabbed(good, l):
    """select_tabbed as first written, on flag grids in their (cells, marks)
    order: the reference."""
    chosen = {}
    for rect in good:
        cur = chosen.get(rect.width)
        if cur is None or (rect.cells, rect.marks) < (cur.cells, cur.marks):
            chosen[rect.width] = rect
    for width in (l, l + 1):
        if width not in chosen:
            raise MissingLength(width)
    return chosen[l], chosen[l + 1]


def reference_replace_bad(w, ms, k, family, tabbed):
    """replace_bad as first written, extracting, locating and classifying the
    window's k-gaps itself and rescanning each finer row per bad gap, with
    ``tabbed`` the flag grid of each width: the reference.  It writes the
    tabbed grid's finer markers into each bad gap and returns the marker
    system they make."""
    sub_rows = {j: set(ms.row(j)) for j in range(1, k)}
    placements = []
    changed = 0
    for p, rect in reference_extract_k_rectangles(w, ms, k):
        if classify(Rectangle(rect.cells), family) == GOOD:
            continue
        q = p + rect.width
        block = tabbed[rect.width]
        placements.append((p + 1, Rectangle(block.cells)))
        for j in range(1, k):
            inside = {x for x in sub_rows[j] if p < x < q}
            fresh = {
                p + 1 + c
                for c, flag in enumerate(block.marks[j - 1])
                if flag and p + 1 + c < q
            }
            sub_rows[j] = (sub_rows[j] - inside) | fresh
        changed += q - p
    rows = [tuple(sorted(sub_rows[j])) for j in range(1, k)]
    rows += [tuple(ms.row(j)) for j in range(k, ms.row_count + 1)]
    new_ms = PositionRows(tuple(rows), ms.gaps, ms.lo, ms.hi)
    return replace_cells(w, k, placements), new_ms, changed, len(placements)


def same_rows(a, b):
    """Whether two marker systems hold the same rows: a MarkerSystem stores
    its top row and patterns, PositionRows every row."""
    rows = range(1, a.row_count + 1)
    return a.row_count == b.row_count and all(
        tuple(a.row(k)) == tuple(b.row(k)) for k in rows
    )


def reference_census(samples, family, k):
    """_census as first written, extracting each window into (p, grid) gaps
    and classifying each distinct grid: the reference."""
    census = {GOOD: 0, BAD: 0}
    verdicts = {}
    bad_gaps = []
    for sample in samples:
        bad = []
        for p, rect in reference_extract_k_rectangles(
            sample.window, sample.markers, k
        ):
            verdict = verdicts.get(rect)
            if verdict is None:
                verdict = verdicts[rect] = classify(Rectangle(rect.cells), family)
            census[verdict] += 1
            if verdict == BAD:
                bad.append((p, rect))
        bad_gaps.append(bad)
    return census, verdicts, bad_gaps


def reference_repair(sample, family, k, bad, tabbed, verdicts):
    """_repair as first written, re-checking every gap of the repaired
    window under the sample's markers: the reference."""
    trunc = family.truncation
    before = sample.measure
    window, replaced, changed = purify.replace_bad(
        sample.window, k, bad, tabbed
    )
    sample.window = window
    sample.measure = empirical_measure(window_to_rectangle(window), trunc)
    all_good = all(
        (verdicts.get(rect.cells) or classify(Rectangle(rect.cells), family))
        == GOOD
        for _, rect in reference_extract_k_rectangles(window, sample.markers, k)
    )
    moved = dstar(before, sample.measure, trunc).value
    return replaced, changed, moved, all_good


def census_bad(w, ms, k, family):
    """The bad (s, key) gaps that _census finds in one window."""
    slices = row_slices(ms, k, w.origin, w.columns)
    _, _, (bad,) = _census([sample_of(w, ms)], family, k, slices)
    return bad


def reference_purify_stage(samples, config, stage, targets, coarse, slices):
    """purify_stage as first written, extracting every window three times
    per stage into flag grids under the built hierarchy, with the nesting
    check of reference_check_nesting against the coarse good sets: the
    reference for the census/repair split.  It takes ``slices`` to match
    purify_stage, and cuts the hierarchy itself.  Each replacement rewrites
    the finer markers from the tabbed grid, and must leave them as they
    were.  It returns the good sets of every stage, the last one included."""
    ms = build_marker_system(config.columns, 0, config.gaps)
    k = config.depths[stage - 1]
    eps = config.epsilons[stage - 1]
    trunc = config.truncation
    paths = sorted({s.path[:stage] for s in samples})
    members = {
        p: [targets[lp] for lp in sorted(targets) if lp[:stage] == p]
        for p in paths
    }
    gamma = _stage_gamma(config, stage, members)
    report = {"stage": stage, "k": k, "gamma": gamma, "families": {}}
    good_records = {}

    for path in paths:
        family = TargetFamily(path, tuple(members[path]), gamma)
        record = set()
        census = {GOOD: 0, BAD: 0}
        fam_samples = [s for s in samples if s.path[:stage] == path]
        for sample in fam_samples:
            for _, rect in reference_extract_k_rectangles(sample.window, ms, k):
                verdict = classify(Rectangle(rect.cells), family)
                census[verdict] += 1
                if verdict == GOOD:
                    record.add(rect)
        l = config.gaps[k - 1]
        short, long = reference_select_tabbed(record, l)
        tabbed = {short.width: short, long.width: long}

        fam_report = {
            "census": dict(census),
            "census_ok": census[GOOD] * 1
            >= (census[GOOD] + census[BAD]) * (1 - gamma),
            "samples": [],
        }
        displacement_max = Fraction(0)
        out_measures = []
        for sample in fam_samples:
            before = sample.measure
            window, new_ms, changed, replaced = reference_replace_bad(
                sample.window, ms, k, family, tabbed
            )
            assert same_rows(new_ms, ms), "a replacement moved a marker"
            sample.window = window
            sample.changed.append(changed)
            if changed:
                sample.measure = empirical_measure(
                    window_to_rectangle(window), trunc
                )
            out_measures.append(sample.measure)
            moved = dstar(before, sample.measure, trunc).value
            displacement_max = max(displacement_max, moved)
            total_good = all(
                classify(Rectangle(rect.cells), family) == GOOD
                for _, rect in reference_extract_k_rectangles(window, ms, k)
            )
            fam_report["samples"].append(
                {
                    "generator": sample.spec.spec,
                    "replaced": replaced,
                    "changed_columns": changed,
                    "changed_fraction": Fraction(changed, config.columns),
                    "displacement": moved,
                    "all_good_after": total_good,
                }
            )
        fam_report["displacement_max"] = displacement_max
        fam_report["displacement_ok"] = displacement_max < 2 * eps
        diameter = Fraction(0)
        for i, ma in enumerate(out_measures):
            for mb in out_measures[i + 1 :]:
                diameter = max(diameter, dstar(ma, mb, trunc).value)
        fam_report["diameter"] = diameter
        fam_report["diameter_ok"] = diameter <= 3 * eps
        report["families"]["/".join(map(str, path))] = fam_report
        good_records[path] = record
    nested = True
    if coarse is not None:
        coarse_k = config.depths[stage - 2]
        for path, fine in good_records.items():
            if not reference_check_nesting(
                fine, coarse[path[:-1]], coarse_k, config.gaps[coarse_k - 1]
            ):
                nested = False
    return report, nested, good_records


def point_family(symbol, gamma, truncation=(1, 2)):
    pm = point_mass(from_word(str(symbol)), truncation)
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
    # the k-gaps of a window, cut at the set-up's slices by _gap_keys
    def test_two_widths(self):
        w = lift_binary("01001010", 1)
        ms = build_marker_system(7, 0, (3,))
        keys = gap_keys(w, ms, 1)
        assert [(p, len(key[0])) for p, key in keys] == [(0, 3), (3, 4)]

    def test_no_complete_gap(self):
        w = lift_binary("0101", 1)
        ms = MarkerSystem(-2, (8,), (), (8,))
        assert gap_keys(w, ms, 1) == []

    def test_bad_gap_rejected(self):
        # no gap of neither width l nor l + 1 reaches a census: the config
        # refuses a column count that the top gap cannot split, and the
        # set-up cuts every row of the built hierarchy into two widths
        with pytest.raises(ValueError, match="columns: "):
            PurifyConfig((1, 2), (3,), (1,), (F(1, 4),), 5, ())
        config = mixed_tree_config()
        _, _, slices = purify._lift_leaves(config)
        assert sorted(slices) == list(config.depths)
        for k, row in slices.items():
            l = config.gaps[k - 1]
            assert {s.stop - s.start for s in row} == {l, l + 1}

    def test_interior_markers_embedded(self):
        # a 2-gap's key is its two cell rows; the row-1 markers inside it
        # are the piece bounds of its width, nine gaps of 2 and six of 3
        w = lift_binary("01001" * 22, 2)
        ms = build_marker_system(109, 0, (2, 36))
        keys = gap_keys(w, ms, 2)
        assert [p for p, _ in keys] == [0, 36]
        assert keys[0][1] == tuple(row[1:37] for row in w.cells)
        fine, coarse = (row_slices(ms, j, 0, w.columns) for j in (2, 1))
        assert _piece_bounds(fine, coarse) == {
            36: [*range(0, 19, 2), *range(21, 37, 3)]
        }


@st.composite
def hierarchies(draw):
    """A built hierarchy of 1 or 2 rows at a random origin, small enough
    for the references' marker scans: 2 rows span 73 to 343 columns."""
    rows = draw(st.integers(1, 2))
    gaps = [draw(st.integers(2, 4 if rows == 1 else 3))]
    if rows == 2:
        gaps.append(9 * gaps[0] ** 2 + draw(st.integers(0, 3)))
    top, most = gaps[-1], 12 if rows == 1 else 3
    a, b = draw(st.integers(1, most)), draw(st.integers(1, most))
    return build_marker_system(a * top + b * (top + 1), draw(st.integers(-20, 20)), gaps)


def windows_over(ms, rows):
    """The window that purify cuts under ms, the columns of ms from its
    origin, with ``rows`` rows of cells 1 and 2.  A 2 is drawn at one of
    three rates, so gaps repeat, differ slightly or differ widely."""
    columns = ms.hi - ms.lo

    @st.composite
    def window(draw):
        rate = draw(st.sampled_from([0, 0.05, 0.5]))
        rnd = draw(st.randoms(use_true_random=True))
        cells = tuple(
            tuple(1 + (rnd.random() < rate) for _ in range(columns))
            for _ in range(rows)
        )
        return ArrayWindow(canonical_sizes(rows), ms.lo, cells, INDEPENDENT)

    return window()


@st.composite
def extraction_cases(draw):
    """A built hierarchy, one of its rows k, and a window over it of k to 3
    rows."""
    ms = draw(hierarchies())
    k = draw(st.integers(1, ms.row_count))
    return draw(windows_over(ms, draw(st.integers(k, 3)))), ms, k


class TestExtractKRectanglesDifferential:
    @settings(max_examples=200, deadline=None)
    @given(extraction_cases())
    def test_matches_reference(self, case):
        w, ms, k = case
        got = gap_keys(w, ms, k)
        # each key is the cells of the reference's gap, k tuple rows
        assert [(p, key) for p, key in got] == [
            (p, rect.cells) for p, rect in reference_extract_k_rectangles(w, ms, k)
        ]
        for _, key in got:
            assert len(key) == k
            assert all(type(row) is tuple for row in key)

    def test_equal_gaps_are_one_object(self):
        # from origin 4, the row reads 1 21 111 21 1 with gaps of 2, 3 and
        # 2; the two bad 2-gaps hold the same cells and share one key
        ms = build_marker_system(10, 4, (2,))
        w = ArrayWindow(
            canonical_sizes(1), 4, ((1, 2, 1, 1, 1, 1, 2, 1, 1, 1),), INDEPENDENT
        )
        (p, a), (q, b) = census_bad(w, ms, 1, point_family(1, F(1, 10)))
        assert (p, q) == (slice(1, 3), slice(6, 8))
        assert a is b
        assert a == ((2, 1),)

    def test_window_with_fewer_rows_rejected(self):
        # no stage is deeper than its windows: the config refuses a depth
        # past the hierarchy, and the set-up lifts every window to one row
        # per marker row
        with pytest.raises(ValueError, match="exceeds the marker hierarchy"):
            PurifyConfig((1, 2), (3,), (2,), (F(1, 4),), 7, ())
        config = mixed_tree_config()
        _, samples, _ = purify._lift_leaves(config)
        assert {s.window.rows for s in samples} == {len(config.gaps)}


@st.composite
def census_cases(draw):
    """1-3 windows of k to 3 rows over one built hierarchy, and a family of
    1-2 members at a truncation within every gap, whose gamma is one gap's
    distance to the family or 1/2, so some gaps are bad."""
    ms = draw(hierarchies())
    k = draw(st.integers(1, ms.row_count))
    l = ms.gaps[k - 1]
    rows = draw(st.integers(k, 3))
    windows = draw(st.lists(windows_over(ms, rows), min_size=1, max_size=3))
    trunc = (draw(st.integers(1, k)), draw(st.integers(1, min(l, 4))))
    grids = draw(st.lists(_grids(trunc[0], trunc[1], 8), min_size=1, max_size=2))
    members = tuple(
        empirical_measure(Rectangle.from_rows(g), trunc) for g in grids
    )
    gaps = [Rectangle(key) for w in windows for _, key in gap_keys(w, ms, k)]
    gamma = draw(
        st.sampled_from(
            [F(1, 2)]
            + [min(dstar(r, m, trunc).value for m in members) for r in gaps]
        )
    )
    samples = [sample_of(w, ms) for w in windows]
    return samples, TargetFamily((1,), members, gamma), k, ms


class TestCensusDifferential:
    @settings(max_examples=150, deadline=None)
    @given(census_cases())
    def test_matches_reference(self, case):
        samples, family, k, ms = case
        w = samples[0].window
        slices = row_slices(ms, k, w.origin, w.columns)
        keys = []

        def counted(rect, family):
            keys.append(_measure_key(rect, family.truncation))
            return classify(rect, family)

        with mock.patch.object(purify, "classify", counted):
            census, verdicts, bad_gaps = _census(samples, family, k, slices)
        expected = reference_census(samples, family, k)
        assert census == expected[0]
        # the same verdicts, first seen in the same order: the reference
        # tells grids apart by their marks too, and a built hierarchy gives
        # every gap of one width the same marks
        assert list(verdicts.items()) == [
            (rect.cells, verdict) for rect, verdict in expected[1].items()
        ]
        assert [
            at_markers(bad, sample.window)
            for bad, sample in zip(bad_gaps, samples)
        ] == [[(p, rect.cells) for p, rect in bad] for bad in expected[2]]
        # one classify per distinct measure key
        trunc = family.truncation
        assert len(keys) == len(set(keys))
        assert set(keys) == {
            _measure_key(Rectangle(key), trunc) for key in verdicts
        }


class TestClassify:
    def test_exact_match_good(self):
        fam = point_family(1, F(3, 10))
        assert classify(from_word("111"), fam) == GOOD

    def test_far_rectangle_bad(self):
        # d*("121", point-mass on 1) = 5/12 > 3/10
        fam = point_family(1, F(3, 10))
        assert classify(from_word("121"), fam) == BAD

    def test_gamma_zero_strict(self):
        fam = point_family(1, F(0))
        assert classify(from_word("111"), fam) == BAD

    def test_flags_ignored(self):
        # two 2-gaps of equal cells, each with its row-1 markers inside: the
        # keys hold cells only, so one key, one verdict, one classify call
        w = lift_binary("0" * 110, 2)
        ms = build_marker_system(109, 0, (2, 36))
        calls = []

        def counted(rect, family):
            calls.append(rect)
            return classify(rect, family)

        slices = row_slices(ms, 2, 0, w.columns)
        fam = point_family(1, F(3, 10))
        with mock.patch.object(purify, "classify", counted):
            census, verdicts, _ = _census([sample_of(w, ms)], fam, 2, slices)
        assert census == {GOOD: 2, BAD: 0}
        assert list(verdicts) == [((1,) * 36, (1,) * 36)]
        assert calls == [Rectangle(((1,) * 36, (1,) * 36))]

    def test_min_over_members(self):
        t = (1, 2)
        fam = TargetFamily(
            (1,),
            (point_mass(from_word("1"), t),
             point_mass(from_word("2"), t)),
            F(1, 10),
        )
        assert classify(from_word("222"), fam) == GOOD


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
    """A family of 1-3 members and a sequence of classify calls that repeats
    rectangles."""
    rows, width = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    trunc = (rows, width)
    members = tuple(
        empirical_measure(Rectangle.from_rows(g), trunc)
        for g in draw(st.lists(_grids(rows, width, 8), min_size=1, max_size=3))
    )
    pool = []
    for grid in draw(st.lists(_grids(rows, width, 5), min_size=2, max_size=5)):
        pool.append(Rectangle.from_rows(grid))
    # a radius equal to one rectangle's distance splits the pool
    gamma = draw(
        st.sampled_from(
            [min(dstar(r, m, trunc).value for m in members) for r in pool]
        )
    )
    family = TargetFamily((1,), members, gamma)
    calls = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return family, pool + calls


@st.composite
def integer_classify_cases(draw):
    """A family of 1-3 members, each the measure of a grid or a mixture of
    two with fractional counts, a pool of rectangles, and a gamma at, or
    just around, one rectangle's distance to one member, so the strict-<
    boundary is hit."""
    rows, width = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    trunc = (rows, width)

    def measure():
        grid = draw(_grids(rows, width, 8))
        return empirical_measure(Rectangle.from_rows(grid), trunc)

    members = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            lam = F(draw(st.integers(1, 6)), 7)
            members.append(mixture([measure(), measure()], [lam, 1 - lam]))
        else:
            members.append(measure())
    pool = []
    for grid in draw(st.lists(_grids(rows, width, 5), min_size=1, max_size=4)):
        pool.append(Rectangle.from_rows(grid))
    at = draw(
        st.sampled_from([dstar(r, m, trunc).value for r in pool for m in members])
    )
    gamma = at + draw(st.sampled_from([F(0), F(0), F(1, 997), F(-1, 997)]))
    return TargetFamily((1,), tuple(members), gamma), pool


class TestClassifyIntegers:
    @settings(max_examples=200, deadline=None)
    @given(integer_classify_cases())
    def test_matches_fraction_comparison(self, case):
        family, pool = case
        trunc = family.truncation
        for rect in pool:
            near = any(
                dstar(rect, m, trunc).value < family.gamma
                for m in family.members
            )
            assert classify(rect, family) == (GOOD if near else BAD)

    def test_mixture_boundary(self):
        # d*("1112", (delta_1 + delta_2) / 2) is exactly gamma: not below it
        t = (1, 2)
        mix = mixture(
            [point_mass(from_word("1"), t),
             point_mass(from_word("2"), t)],
            [F(1, 2), F(1, 2)],
        )
        rect = from_word("1112")
        d = dstar(rect, mix, t).value
        assert classify(rect, TargetFamily((1,), (mix,), d)) == BAD
        nudged = TargetFamily((1,), (mix,), d + F(1, 10**9))
        assert classify(rect, nudged) == GOOD


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
        columns = sum(widths) + 1
        word = data.draw(st.text("01", min_size=columns, max_size=columns))
        w = lift_binary(word, 1)
        ms = MarkerSystem(0, tuple(widths), (), (3,))
        tabbed = {3: ((1, 1, 1),), 4: ((1, 1, 1, 1),)}
        fam = point_family(1, F(3, 10))
        bad = census_bad(w, ms, 1, fam)
        out, _, _ = replace_bad(w, 1, bad, tabbed)
        fresh = point_family(1, F(3, 10))
        for _, key in gap_keys(out, ms, 1):
            assert reference_classify(Rectangle(key), fresh) == GOOD


def reference_check_nesting(fine, coarse, k, coarse_l):
    """check_nesting as first written, on whole flag grids, their cells
    compared: the reference."""
    coarse_good = {r.cells for r in coarse}
    for rect in fine:
        cuts = [
            j + 1
            for j, flag in enumerate(rect.marks[k - 1])
            if flag and j + 1 < rect.width
        ]
        bounds = [0] + cuts + [rect.width]
        for a, b in zip(bounds, bounds[1:]):
            if b - a not in (coarse_l, coarse_l + 1):
                return False
            piece = Rectangle(rect.cells).sub(k, a, b - a)
            if piece.cells not in coarse_good:
                return False
    return True


def width_marks(ms, k):
    """Per width of the row-k gaps in the window that purify cuts under ms,
    the flag grid marks of its first gap of that width."""
    ps = ms.cuts(k, ms.lo, ms.hi - ms.lo)
    rows = [set(ms.row(j)) for j in range(1, k + 1)]
    marks = {}
    for p, q in zip(ps, ps[1:]):
        if q - p not in marks:
            marks[q - p] = gap_marks(rows, p, q)
    return marks


@st.composite
def nesting_cases(draw):
    """A built hierarchy of 2 or 3 rows at origin 0, as purify builds one,
    a coarse depth and a fine depth above it; coarse keys of both widths,
    and fine keys glued from them at the coarse markers that the reference
    reads for their width, under random extra rows.  The first fine key may
    be glued along its pieces in reverse order, or get a changed cell in
    the coarse rows."""
    rows = draw(st.integers(2, 3))
    gaps = [draw(st.integers(2, 3 if rows == 2 else 2))]
    for _ in range(rows - 1):
        gaps.append(9 * gaps[-1] ** 2 + draw(st.integers(0, 3)))
    top = gaps[-1]
    columns = draw(st.integers(1, 2)) * top + draw(st.integers(1, 2)) * (top + 1)
    ms = build_marker_system(columns, 0, gaps)
    coarse_k = draw(st.integers(1, rows - 1))
    k = draw(st.integers(coarse_k + 1, rows))
    l = gaps[coarse_k - 1]
    coarse = {}
    for width in (l, l + 1):
        for _ in range(draw(st.integers(1, 2))):
            key = tuple(map(tuple, draw(_grids(coarse_k, width, width))))
            coarse.setdefault(width, []).append(key)
    rnd = draw(st.randoms(use_true_random=True))
    fine = []
    for width, marks in width_marks(ms, k).items():
        cuts = [c + 1 for c, flag in enumerate(marks[coarse_k - 1]) if flag]
        widths = [b - a for a, b in zip([0, *cuts], cuts)]
        for _ in range(draw(st.integers(0, 2))):
            flip = not fine and draw(st.booleans())
            pieces = [rnd.choice(coarse[w]) for w in widths[:: -1 if flip else 1]]
            cells = [[v for p in pieces for v in p[i]] for i in range(coarse_k)]
            cells += [
                [rnd.choice((1, 2)) for _ in range(width)]
                for _ in range(k - coarse_k)
            ]
            fine.append(cells)
    if fine and draw(st.booleans()):
        cells = fine[0]
        i = draw(st.integers(0, coarse_k - 1))
        j = draw(st.integers(0, len(cells[0]) - 1))
        cells[i][j] = 3 - cells[i][j]
    fine = {tuple(map(tuple, cells)) for cells in fine}
    coarse = {key for keys in coarse.values() for key in keys}
    return ms, k, coarse_k, fine, coarse


class TestCheckNesting:
    @settings(max_examples=100, deadline=None)
    @given(nesting_cases())
    def test_matches_reference(self, case):
        # fine depths 2 and 3, over coarse depths 1 and 2; the reference
        # reads each fine key's cuts from the marks of its width
        ms, k, coarse_k, fine, coarse = case
        marks = width_marks(ms, k)
        expected = reference_check_nesting(
            {Grid(key, marks[len(key[0])]) for key in fine},
            {Grid(key, None) for key in coarse},
            coarse_k,
            ms.gaps[coarse_k - 1],
        )
        columns = ms.hi - ms.lo
        bounds = _piece_bounds(
            row_slices(ms, k, 0, columns), row_slices(ms, coarse_k, 0, columns)
        )
        assert check_nesting(fine, coarse, coarse_k, bounds) == expected


class TestSelectTabbed:
    def test_basic_pair(self):
        good = [((1, 1, 1),), ((1, 1, 1, 1),)]
        short, long = select_tabbed(good, 3)
        assert len(short[0]) == 3 and len(long[0]) == 4

    def test_missing_length(self):
        good = [((1, 1, 1),), ((1, 1, 2),)]
        with pytest.raises(MissingLength) as exc:
            select_tabbed(good, 3)
        assert exc.value.width == 4

    def test_lexicographic_and_order_free(self):
        a = ((1, 1, 2),)
        b = ((1, 1, 1),)
        c = ((2, 1, 1, 1),)
        assert select_tabbed([a, b, c], 3) == select_tabbed([c, a, b], 3)
        assert select_tabbed([a, b, c], 3)[0] == b


@st.composite
def tabbed_cases(draw):
    """Gap keys of depth 1 to 3 and widths l and l + 1, some drawn twice,
    and one set of flag grid marks per width, as a built hierarchy gives
    every gap of one width."""
    k, l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    marks = {
        width: tuple(
            tuple(draw(st.lists(st.booleans(), min_size=width, max_size=width)))
            for _ in range(k)
        )
        for width in (l, l + 1)
    }
    keys = []
    for _ in range(draw(st.integers(1, 6))):
        width = draw(st.sampled_from([l, l + 1]))
        key = tuple(map(tuple, draw(_grids(k, width, width))))
        keys += [key] * draw(st.integers(1, 2))
    return keys, marks, l


class TestSelectTabbedDifferential:
    @settings(max_examples=300, deadline=None)
    @given(tabbed_cases())
    def test_matches_flag_grid_order(self, case):
        keys, marks, l = case
        grids = [Grid(key, marks[len(key[0])]) for key in keys]
        try:
            expected = reference_select_tabbed(grids, l)
        except MissingLength as exc:
            with pytest.raises(MissingLength) as got:
                select_tabbed(keys, l)
            assert got.value.width == exc.width
            return
        assert list(select_tabbed(keys, l)) == [g.cells for g in expected]


class TestReplaceBad:
    def _fixture(self):
        # row 1 reads 1111121111; the middle 3-gap reads 121, which is bad
        w = lift_binary("0000010000", 1)
        ms = MarkerSystem(0, (3, 3, 3), (), (3,))
        fam = point_family(1, F(3, 10))
        tabbed = {3: ((1, 1, 1),), 4: ((1, 1, 1, 1),)}
        return w, ms, fam, tabbed

    def test_identity_when_all_good(self):
        w = lift_binary("0000000000", 1)
        ms = MarkerSystem(0, (3, 3, 3), (), (3,))
        fam = point_family(1, F(3, 10))
        tabbed = {3: ((1, 1, 1),), 4: ((1, 1, 1, 1),)}
        bad = census_bad(w, ms, 1, fam)
        out, replaced, changed = replace_bad(w, 1, bad, tabbed)
        assert bad == []
        assert out.cells == w.cells and changed == 0 and replaced == 0

    def test_direct_rule(self):
        # window 111|121|111: the middle 3-gap is bad and becomes 111
        w, ms, fam, tabbed = self._fixture()
        bad = census_bad(w, ms, 1, fam)
        out, replaced, changed = replace_bad(w, 1, bad, tabbed)
        assert [s for s, _ in bad] == [slice(4, 7)]
        assert out.cells[0] == (1,) * 10
        assert changed == 3 and replaced == 1

    def test_changed_fraction_accounting(self):
        w, ms, fam, tabbed = self._fixture()
        bad = census_bad(w, ms, 1, fam)
        out, _, changed = replace_bad(w, 1, bad, tabbed)
        diff = sum(
            1 for a, b in zip(w.cells[0], out.cells[0]) if a != b
        )
        assert diff <= changed  # changed counts whole replaced gaps

    def test_rows_above_untouched(self):
        w = lift_binary("01101011101", 2)
        ms = MarkerSystem(0, (9,), (((9, (3, 3, 3)),),), (3, 9))
        fam = point_family(1, F(1, 10))
        tabbed = {3: ((1, 1, 1),), 4: ((1, 1, 1, 1),)}
        bad = census_bad(w, ms, 1, fam)
        out, _, _ = replace_bad(w, 1, bad, tabbed)
        assert bad and out.cells[1] == w.cells[1]

    def test_all_good_after(self):
        w, ms, fam, tabbed = self._fixture()
        out, _, _ = replace_bad(w, 1, census_bad(w, ms, 1, fam), tabbed)
        fresh = point_family(1, F(3, 10))
        for _, key in gap_keys(out, ms, 1):
            assert classify(Rectangle(key), fam) == GOOD
            assert reference_classify(Rectangle(key), fresh) == GOOD

    def _two_row_fixture(self):
        # a built hierarchy of gaps 2 and 36 over 109 columns: the window
        # holds two 2-gaps of width 36, and the second, columns 37 to 72,
        # holds ten 2s in row 1, so it is bad; the tabbed keys are all 1s
        w = lift_binary("0" * 45 + "1" * 10 + "0" * 55, 2)
        ms = build_marker_system(109, 0, (2, 36))
        fam = point_family(1, F(1, 10))
        tabbed = {width: ((1,) * width,) * 2 for width in (36, 37)}
        return w, ms, fam, tabbed

    def test_submarkers_rewritten(self):
        # the reference rewrites the row-1 markers inside a replaced 2-gap
        # from the tabbed grid; every 36-gap of a built hierarchy holds
        # the same ones, so they come back as they were and only cells
        # change
        w, ms, fam, tabbed = self._two_row_fixture()
        bad = census_bad(w, ms, 2, fam)
        out, replaced, changed = replace_bad(w, 2, bad, tabbed)
        assert [s for s, _ in bad] == [slice(37, 73)]
        assert (replaced, changed) == (1, 36)
        grids = as_grids(tabbed, w, ms, 2)
        out_ref, ms_ref, _, _ = reference_replace_bad(w, ms, 2, fam, grids)
        assert same_rows(ms_ref, ms)
        assert out == out_ref

    def test_reads_no_window(self, monkeypatch):
        # the census has extracted and classified the gaps already, and no
        # marker is read or written
        w, ms, fam, tabbed = self._two_row_fixture()
        bad = census_bad(w, ms, 2, fam)

        def forbidden(*args):
            raise AssertionError("replace_bad read the window again")

        monkeypatch.setattr(purify, "_gap_keys", forbidden)
        monkeypatch.setattr(purify, "classify", forbidden)
        monkeypatch.setattr(MarkerSystem, "cuts", forbidden)
        monkeypatch.setattr(MarkerSystem, "row", forbidden)
        _, replaced, changed = replace_bad(w, 2, bad, tabbed)
        assert (changed, replaced) == (36, 1)


@st.composite
def replacement_cases(draw):
    """A built hierarchy, one of its rows k and a window over it of k to 3
    rows; a point-mass family under which some gaps are bad, and tabbed
    keys of both widths with random cells."""
    ms = draw(hierarchies())
    k = draw(st.integers(1, ms.row_count))
    l = ms.gaps[k - 1]
    w = draw(windows_over(ms, draw(st.integers(k, 3))))
    family = point_family(
        draw(st.integers(1, 2)), draw(st.sampled_from([F(1, 10), F(3, 10)]))
    )
    tabbed = {
        width: tuple(map(tuple, draw(_grids(k, width, width))))
        for width in (l, l + 1)
    }
    return w, ms, k, family, tabbed


class TestReplaceBadDifferential:
    @settings(max_examples=200, deadline=None)
    @given(replacement_cases())
    def test_matches_reference(self, case):
        # depths 1 and 2: at 2, the reference rewrites the row-1 markers
        # of each replaced gap, and they come back as they were
        w, ms, k, family, tabbed = case
        bad = census_bad(w, ms, k, family)
        window, new_ms, changed, replaced = reference_replace_bad(
            w, ms, k, family, as_grids(tabbed, w, ms, k)
        )
        assert same_rows(new_ms, ms)
        assert replace_bad(w, k, bad, tabbed) == (window, replaced, changed)


def _wrong_blocks(w, k, bad, tabbed):
    # replace_bad writing the cells of every tabbed key as 2s
    wrong = {width: ((2,) * width,) * k for width in tabbed}
    return replace_bad(w, k, bad, wrong)


def _both_repairs(w, ms, k, family, tabbed):
    """_repair and reference_repair of the window's census bad gaps, each
    on its own sample: their results and the samples' repaired states."""
    slices = row_slices(ms, k, w.origin, w.columns)
    _, verdicts, (bad,) = _census([sample_of(w, ms)], family, k, slices)
    measure = empirical_measure(window_to_rectangle(w), family.truncation)
    out = []
    for repair in (_repair, reference_repair):
        sample = sample_of(w, ms, measure=measure)
        result = repair(sample, family, k, bad, tabbed, verdicts)
        out.append((result, sample.window, sample.measure))
    return bad, out


class TestRepairDifferential:
    @settings(max_examples=200, deadline=None)
    @given(replacement_cases(), st.booleans())
    def test_matches_whole_window_recheck(self, case, wrong):
        # random tabbed blocks, or wrong blocks written by replace_bad,
        # make the re-check fail in some cases
        w, ms, k, family, tabbed = case
        patch = mock.patch.object(purify, "replace_bad", _wrong_blocks)
        with patch if wrong else contextlib.nullcontext():
            _, (got, expected) = _both_repairs(w, ms, k, family, tabbed)
        assert got == expected

    def test_wrong_block_fails_recheck(self, monkeypatch):
        # window 111|121|111 under a point mass on 1: the tabbed 111 is good,
        # and a replace_bad that writes 222 instead must be caught
        w = lift_binary("0000010000", 1)
        ms = MarkerSystem(0, (3, 3, 3), (), (3,))
        fam = point_family(1, F(3, 10))
        tabbed = {3: ((1, 1, 1),), 4: ((1, 1, 1, 1),)}
        bad, (got, expected) = _both_repairs(w, ms, 1, fam, tabbed)
        assert len(bad) == 1
        assert got == expected and got[0][3] is True
        monkeypatch.setattr(purify, "replace_bad", _wrong_blocks)
        _, (got, expected) = _both_repairs(w, ms, 1, fam, tabbed)
        assert got == expected and got[0][3] is False
        assert got[1].cells[0][4:7] == (2, 2, 2)


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

    def test_truncation_width_within_first_gap(self):
        # a truncation wider than the first-stage gap l fits no rectangle of
        # width l, so the config is refused before any window is measured
        l = NOISY_CONFIG["gaps"][NOISY_CONFIG["depths"][0] - 1]
        config_from_dict(dict(NOISY_CONFIG, truncation=[1, l]))
        with pytest.raises(ValueError, match="width at most its gap"):
            config_from_dict(dict(NOISY_CONFIG, truncation=[1, l + 1]))


class TestCensusCost:
    def test_one_classify_per_distinct_measure_key(self, monkeypatch):
        # each family's stage-1 census, its repair re-checks included,
        # classifies one rectangle of each distinct measure key of its
        # samples, once; equal measures share the call
        config = config_from_dict(NOISY_CONFIG)
        targets, samples, slices = purify._lift_leaves(config)
        k, trunc = config.depths[0], config.truncation
        distinct = {}
        for s in samples:
            distinct.setdefault(s.path[:1], set()).update(
                map(Rectangle, _gap_keys(s.window.cells[:k], slices[k]))
            )
        calls = []

        def counted(rect, family):
            calls.append((family.path, _measure_key(rect, trunc)))
            return classify(rect, family)

        monkeypatch.setattr(purify, "classify", counted)
        report, _, _ = purify.purify_stage(
            samples, config, 1, targets, None, slices
        )
        assert len(calls) == len(set(calls))
        keys = {
            path: {_measure_key(rect, trunc) for rect in rects}
            for path, rects in distinct.items()
        }
        assert {
            path: {key for p, key in calls if p == path} for path in keys
        } == keys
        for path, fam in report["families"].items():
            # rectangles and measures repeat, and repair ran, so the tables
            # were used
            path = (int(path),)
            assert len(keys[path]) < len(distinct[path])
            assert sum(fam["census"].values()) > len(distinct[path])
        assert any(
            row["replaced"]
            for fam in report["families"].values()
            for row in fam["samples"]
        )

    def test_row_k_split_once_per_stage(self, monkeypatch):
        # the set-up cuts each stage depth's marker row once per run, and
        # every census of that stage gets that one list of gap slices
        cut, seen = [], {}
        cuts, census = MarkerSystem.cuts, purify._census

        def cut_once(self, k, origin, columns):
            cut.append(k)
            return cuts(self, k, origin, columns)

        def recorded(samples, family, k, slices):
            seen.setdefault(k, []).append(slices)
            return census(samples, family, k, slices)

        monkeypatch.setattr(MarkerSystem, "cuts", cut_once)
        monkeypatch.setattr(purify, "_census", recorded)
        config = config_from_dict(NOISY_CONFIG)
        purify_pipeline(config)
        assert cut == list(config.depths)
        assert sorted(seen) == list(config.depths)
        for stage, k in enumerate(config.depths, start=1):
            families = {leaf.path[:stage] for leaf in config.leaves}
            assert len(seen[k]) == len(families)
            assert all(slices is seen[k][0] for slices in seen[k])


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

    def test_gamma_override_reaching_half_separation(self):
        # point masses on 0 and 1 are 3/4 apart at truncation 1x2, so a
        # gamma below epsilon can still reach half the separation
        cfg = config_from_dict(
            {
                "truncation": [1, 2], "gaps": [3], "depths": [1],
                "epsilons": ["1"], "gammas": ["3/8"], "columns": 2000,
                "tree": [
                    {"target": "periodic:0", "samples": ["periodic:0"]},
                    {"target": "periodic:1", "samples": ["periodic:1"]},
                ],
            }
        )
        with pytest.raises(SeparationViolation, match="half separation 3/4/2"):
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


def _outcome(config):
    try:
        return purify_pipeline(config)
    except ValueError as exc:
        return type(exc)


@st.composite
def small_configs(draw, stages=None):
    """One- or two-stage configs on gaps 4,144 with distinct periodic targets
    and Bernoulli samples; the target itself is usually a sample too, so
    tabbed rectangles of both widths are usually available.  ``stages``
    fixes the number of stages."""
    if stages is None:
        stages = draw(st.integers(1, 2))
    targets = iter(
        draw(st.permutations(["0", "1", "01", "0011", "1101", "001", "0111"]))
    )

    def leaf():
        target = next(targets)
        samples = [
            f"bernoulli:{draw(st.integers(1, 7))}/8:seed={draw(st.integers(0, 99))}"
            for _ in range(draw(st.integers(0, 2)))
        ]
        if draw(st.integers(0, 4)) or not samples:
            samples.insert(0, f"periodic:{target}")
        return {"target": f"periodic:{target}", "samples": samples}

    def node(depth):
        if depth == stages:
            return leaf()
        return {"families": [node(depth + 1)
                             for _ in range(draw(st.integers(1, 2)))]}

    return config_from_dict(
        {
            "truncation": [1, 2],
            "gaps": [4, 144],
            "depths": [1, 2][:stages],
            "epsilons": ["1/2", "1/4"][:stages],
            "columns": 578,
            "tree": [node(1) for _ in range(draw(st.integers(1, 3)))],
        }
    )


class TestStageSplit:
    @settings(max_examples=25, deadline=None)
    @given(small_configs())
    def test_matches_reference_stage(self, config):
        with mock.patch.object(purify, "purify_stage", reference_purify_stage):
            expected = _outcome(config)
        assert _outcome(config) == expected

    def test_one_extraction_per_clean_sample(self, monkeypatch):
        calls = {"keys": 0, "replace": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(purify, "_gap_keys",
                            counted("keys", purify._gap_keys))
        monkeypatch.setattr(purify, "replace_bad",
                            counted("replace", replace_bad))
        rep = purify_pipeline(mixed_tree_config())
        rows = [
            s
            for st in rep["stages"]
            for fam in st["families"].values()
            for s in fam["samples"]
        ]
        repaired = sum(1 for s in rows if s["replaced"] > 0)
        assert 0 < repaired < len(rows)
        # a key pass per census window, a second one over a window with
        # bad gaps, and one over the replaced gaps of a repaired window
        assert calls == {
            "keys": len(rows) + 2 * repaired,
            "replace": repaired,
        }


class TestSetUp:
    @pytest.mark.parametrize(
        "config", [mixed_tree_config(), config_from_dict(NOISY_CONFIG)],
        ids=["mixed_tree", "noisy"],
    )
    def test_slices_are_the_reference_gaps(self, config):
        # the set-up cuts each stage depth's row into the gaps that the
        # reference extracts from the built hierarchy
        _, samples, slices = purify._lift_leaves(config)
        ms = build_marker_system(config.columns, 0, config.gaps)
        w = samples[0].window
        for k, row in slices.items():
            assert [(s.start - 1, s.stop - s.start) for s in row] == [
                (p, rect.width)
                for p, rect in reference_extract_k_rectangles(w, ms, k)
            ]


def reference_nesting(config, check):
    """purify_pipeline's nesting check as first written: the good sets of
    every stage are kept to the end, then each fine family's is checked
    against its parent's with ``check``."""
    targets, samples, slices = purify._lift_leaves(config)
    records = {}
    for stage in range(1, config.stage_count + 1):
        _, _, records[stage] = reference_purify_stage(
            samples, config, stage, targets, None, slices
        )
    nesting_ok = True
    for stage in range(2, config.stage_count + 1):
        k, coarse_k = config.depths[stage - 1], config.depths[stage - 2]
        bounds = _piece_bounds(slices[k], slices[coarse_k])
        for path, fine in records[stage].items():
            coarse = records[stage - 1][path[: stage - 1]]
            fine_keys = {rect.cells for rect in fine}
            coarse_keys = {rect.cells for rect in coarse}
            if not check(fine_keys, coarse_keys, coarse_k, bounds):
                nesting_ok = False
    return nesting_ok


def failing_check(fail):
    """check_nesting that records its calls and fails the calls whose index
    is in ``fail``."""
    calls = []

    def check(*args):
        calls.append(args)
        return len(calls) - 1 not in fail and check_nesting(*args)

    return check, calls


class TestNestingPerStage:
    def test_last_stage_returns_no_good_sets(self, monkeypatch):
        returned = []
        stage_fn = purify.purify_stage

        def spy(*args):
            returned.append(stage_fn(*args))
            return returned[-1]

        monkeypatch.setattr(purify, "purify_stage", spy)
        config = mixed_tree_config()
        assert purify_pipeline(config)["nesting_ok"]
        first, last = returned
        assert set(first[2]) == {(1,), (2,)}
        assert last[1] is True and last[2] is None

    @pytest.mark.parametrize("fail", [(), (0,), (3,), (0, 1, 2, 3)])
    def test_matches_all_records_reference(self, monkeypatch, fail):
        # four stage-2 families, so four checks; any failed one fails the
        # report, with the same arguments as the all-records pipeline's
        config = mixed_tree_config()
        check, calls = failing_check(set(fail))
        monkeypatch.setattr(purify, "check_nesting", check)
        nesting_ok = purify_pipeline(config)["nesting_ok"]
        reference, ref_calls = failing_check(set(fail))
        assert nesting_ok == reference_nesting(config, reference) == (not fail)
        assert len(calls) == 4
        assert calls == ref_calls


# leaf 1's Bernoulli sample is leaf 2's target and one of its samples, so one
# lifted window and measure start out shared three ways; both samples are
# repaired
SHARED_SPEC_CONFIG = {
    "truncation": [1, 2],
    "gaps": [12],
    "depths": [1],
    "epsilons": ["1/2"],
    "columns": 2500,
    "tree": [
        {"target": "periodic:0",
         "samples": ["periodic:0", "bernoulli:1/4:seed=5"]},
        {"target": "bernoulli:1/4:seed=5",
         "samples": ["bernoulli:1/4:seed=5", "periodic:0001"]},
    ],
}


class TestSharedLifts:
    def run_counted(self, monkeypatch, raw):
        """Run the pipeline, counting lift_binary calls and keeping the
        targets and samples the stages ran on."""
        lifts, seen = [], {}

        def counted_lift(word, rows):
            lifts.append(word)
            return lift_binary(word, rows)

        def spy(samples, config, stage, targets, coarse, slices):
            seen.update(samples=samples, targets=targets)
            return stage_fn(samples, config, stage, targets, coarse, slices)

        stage_fn = purify.purify_stage
        monkeypatch.setattr(purify, "lift_binary", counted_lift)
        monkeypatch.setattr(purify, "purify_stage", spy)
        config = config_from_dict(raw)
        return config, purify_pipeline(config), lifts, seen

    def test_one_lift_per_distinct_generator(self, monkeypatch):
        # 11 spec uses (4 targets, 7 samples) hold 7 distinct specs
        _, rep, lifts, _ = self.run_counted(monkeypatch, NOISY_CONFIG)
        assert rep["ok"]
        assert len(lifts) == 7

    def test_shared_measures_not_aliased_after_repair(self, monkeypatch):
        config, rep, lifts, seen = self.run_counted(
            monkeypatch, SHARED_SPEC_CONFIG
        )
        assert len(lifts) == 3
        word_len = config.columns + len(config.gaps) - 1

        def fresh(spec):
            window = lift_binary(spec.word(word_len), len(config.gaps))
            rect = window_to_rectangle(window)
            return window, empirical_measure(rect, config.truncation)

        for leaf in config.leaves:
            assert seen["targets"][leaf.path] == fresh(leaf.target)[1]
        repaired = [s for s in seen["samples"] if sum(s.changed) > 0]
        assert {s.spec.spec for s in repaired} == {"bernoulli:1/4:seed=5"}
        assert len(repaired) == 2
        for sample in repaired:
            window, measure = fresh(sample.spec)
            assert sample.window.cells != window.cells
            assert sample.measure != measure


TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_tracer_counts_purify():
    # the benchmark's per-layer counters read replace_bad's result and count
    # classify's calls; a change to either must not silently zero them
    spec = importlib.util.spec_from_file_location("_strictform_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    config = mixed_tree_config()
    with tracer_module.Tracer() as tracer:
        rep = purify.purify_pipeline(config)
    changed = sum(
        s["changed_columns"]
        for st in rep["stages"]
        for fam in st["families"].values()
        for s in fam["samples"]
    )
    assert changed > 0
    assert tracer.counts["purify.replace_bad.replaced_columns"] == changed
    assert tracer.calls["purify.classify"] > 0
