import contextlib
import importlib.util
import itertools
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
from strictform.markers import MarkerSystem, check_congruency, check_two_gaps
from strictform.measures import _measure_key, dstar, empirical_measure
from strictform.purify import (
    GOOD,
    BAD,
    InvalidMarkers,
    MissingLength,
    PurifyConfig,
    SeparationViolation,
    TargetFamily,
    _census,
    _gap_keys,
    _repair,
    _stage_gamma,
    _window_rows,
    check_nesting,
    classify,
    config_from_dict,
    purify_pipeline,
    replace_bad,
    select_tabbed,
)

from array_helpers import from_word
from measure_helpers import mixture, point_mass
from test_golden import NOISY_CONFIG

F = Fraction


class Grid(NamedTuple):
    """A k-gap as the flag grid that a Rectangle once carried: its cells,
    and ``marks[i][j]`` set iff a row-(i+1) marker sits right after cell
    (i+1, j).  Grids compare as the old ``(cells, marks)`` pairs."""

    cells: tuple
    marks: tuple

    @property
    def width(self):
        return len(self.cells[0])


def to_grid(key, k):
    """The flag grid of a depth-k gap key: its flag rows as bools, then row
    k, which flags only the gap's last cell."""
    last = (False,) * (len(key[0]) - 1) + (True,)
    return Grid(key[:k], tuple(tuple(map(bool, row)) for row in key[k:]) + (last,))


def to_key(grid):
    """The gap key of a flag grid, the inverse of to_grid."""
    return (*grid.cells, *map(bytes, grid.marks[:-1]))


def render(ms, w):
    """Every row of ms as a flag row over w, byte j set iff a marker sits
    at column w.origin + j: the form a purify sample holds."""
    rows = []
    for k in range(1, ms.row_count + 1):
        marked = set(ms.row(k))
        rows.append(bytes(w.origin + j in marked for j in range(w.columns)))
    return tuple(rows)


def read_back(flags, w, gaps):
    """The marker system whose rows are the positions flagged in the flag
    rows over w, with base gaps ``gaps``: the inverse of render."""
    rows = tuple(
        tuple(w.origin + j for j, flag in enumerate(row) if flag)
        for row in flags
    )
    return MarkerSystem.from_positions(
        rows, gaps, w.origin, w.origin + w.columns - 1
    )


def sample_of(w, ms, **fields):
    """A sample of window w under ms: the flag rows that the stage loop
    reads, and ms itself for the position-based references."""
    return SimpleNamespace(
        window=w, flag_rows=render(ms, w), markers=ms, **fields
    )


def flag_keys(w, flags, k, l):
    """Every k-gap key of w under its flag rows, in window order."""
    slices, rows = _window_rows(w, flags, k, l)
    return list(_gap_keys(rows, slices))


def gap_keys(w, ms, k):
    """Every k-gap of w under ms as (p, key), p its left row-k marker, in
    window order."""
    slices, rows = _window_rows(w, render(ms, w), k, ms.gaps[k - 1])
    ps = [w.origin + s.start - 1 for s in slices]
    return list(zip(ps, _gap_keys(rows, slices)))


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


def reference_extract_k_rectangles(w, ms, k):
    """The k-gaps of w as first extracted, one extract_rectangle per gap and
    one marker search per row, each as (p, grid) with the flag grid that
    ``extract_rectangle(..., markers)`` copied: the reference."""
    if not 1 <= k <= ms.row_count:
        raise InvalidMarkers(f"marker system has no row {k}")
    if not check_two_gaps(ms, k):
        raise InvalidMarkers(f"row {k} gaps are not two-sized")
    ps = ms.cuts(k, w.origin, w.columns)
    gaps = []
    for p, q in zip(ps, ps[1:]):
        flags = [[False] * (q - p) for _ in range(k)]
        for j in range(k):
            for x in ms.row(j + 1):
                if p < x <= q:
                    flags[j][x - p - 1] = True
        cells = extract_rectangle(w, k, p + 1, q).cells
        gaps.append((p, Grid(cells, tuple(map(tuple, flags)))))
    return gaps


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
    ``tabbed`` the flag grid of each width: the reference."""
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
    new_ms = MarkerSystem.from_positions(
        tuple(rows), ms.gaps, ms.lo, ms.hi, ms.balance_windows
    )
    return replace_cells(w, k, placements), new_ms, changed, len(placements)


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
    window, its flag rows read back as positions, as a flag grid: the
    reference."""
    trunc = family.truncation
    before = sample.measure
    window, flags, changed, replaced = purify.replace_bad(
        sample.window, sample.flag_rows, k, bad, tabbed
    )
    sample.window, sample.flag_rows = window, flags
    sample.measure = empirical_measure(window_to_rectangle(window), trunc)
    ms = read_back(flags, window, sample.markers.gaps)
    known = {to_grid(key, k): verdict for key, verdict in verdicts.items()}
    all_good = all(
        (known.get(rect) or classify(Rectangle(rect.cells), family)) == GOOD
        for _, rect in reference_extract_k_rectangles(window, ms, k)
    )
    moved = dstar(before, sample.measure, trunc).value
    return replaced, changed, moved, all_good


def census_bad(w, ms, k, family):
    """The bad (s, key) gaps that _census finds in one window."""
    _, _, (bad,) = _census([sample_of(w, ms)], family, k, ms.gaps[k - 1])
    return bad


def reference_purify_stage(samples, config, stage, targets, coarse):
    """purify_stage as first written, extracting every window three times
    per stage into flag grids, with the nesting check of
    reference_check_nesting against the coarse good sets: the reference for
    the census/repair split.  It reads each sample's flag rows back as
    positions and renders the repaired markers into them.  It returns the
    good sets of every stage, the last one included."""
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
            ms = read_back(sample.flag_rows, sample.window, config.gaps)
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
            window, ms, changed, replaced = reference_replace_bad(
                sample.window,
                read_back(sample.flag_rows, sample.window, config.gaps),
                k, family, tabbed,
            )
            sample.window, sample.flag_rows = window, render(ms, window)
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
    # the k-gaps of a window, cut by _window_rows and _gap_keys as keys
    def test_two_widths(self):
        w = lift_binary("01001010", 1)
        ms = MarkerSystem.from_positions(((0, 3, 7),), (3,), 0, 7)
        keys = gap_keys(w, ms, 1)
        assert [(p, len(key[0])) for p, key in keys] == [(0, 3), (3, 4)]

    def test_no_complete_gap(self):
        w = lift_binary("0101", 1)
        ms = MarkerSystem.from_positions(((-2, 6),), (8,), -2, 6)
        assert gap_keys(w, ms, 1) == []

    def test_bad_gap_rejected(self):
        w = lift_binary("0100101", 1)
        ms = MarkerSystem.from_positions(((0, 6),), (3,), 0, 6)
        with pytest.raises(ValueError):
            gap_keys(w, ms, 1)

    def test_interior_markers_embedded(self):
        w = lift_binary("010010100", 2)
        ms = MarkerSystem.from_positions(((0, 3, 7), (0, 7)), (3, 7), 0, 7)
        keys = gap_keys(w, ms, 2)
        assert len(keys) == 1
        p, key = keys[0]
        assert p == 0
        # the gap covers columns 1..7, with a row-1 marker after 3 and 7
        assert key[:2] == tuple(row[1:8] for row in w.cells)
        assert key[2] == bytes([0, 0, 1, 0, 0, 0, 1])


@st.composite
def extraction_cases(draw, shape=None):
    """A window of 1-3 rows over {1, 2} at a non-zero origin, with a
    hand-built marker system: row k runs in steps of l or l + 1 from near
    the window's left end, and every other row holds any markers around the
    window, so flags fall inside, on and outside the gaps.  ``shape`` fixes
    (rows, k, l)."""
    if shape is None:
        rows = draw(st.integers(1, 3))
        k = draw(st.integers(1, rows))
        l = draw(st.integers(2, 4))
    else:
        rows, k, l = shape
    origin = draw(st.integers(-20, 20).filter(bool))
    columns = draw(st.integers(1, 30))
    cells = tuple(
        tuple(draw(st.lists(st.integers(1, 2), min_size=columns,
                            max_size=columns)))
        for _ in range(rows)
    )
    w = ArrayWindow(canonical_sizes(rows), origin, cells, INDEPENDENT)
    steps = draw(st.lists(st.sampled_from([l, l + 1]), max_size=12))
    start = origin + draw(st.integers(-3, 3))
    row_k = [start]
    for step in steps:
        row_k.append(row_k[-1] + step)
    positions, gaps = [], []
    for j in range(1, rows + 1):
        if j == k:
            positions.append(tuple(row_k))
            gaps.append(l)
        else:
            around = st.integers(origin - 3, origin + columns + 3)
            positions.append(tuple(sorted(draw(st.sets(around, max_size=12)))))
            gaps.append(draw(st.integers(2, 4)))
    ms = MarkerSystem.from_positions(
        tuple(positions), tuple(gaps), origin - 3, origin + columns + 3
    )
    return w, ms, k


class TestExtractKRectanglesDifferential:
    @settings(max_examples=300, deadline=None)
    @given(extraction_cases())
    def test_matches_reference(self, case):
        w, ms, k = case
        got = gap_keys(w, ms, k)
        # each key is the flag grid of the reference's gap, cells as tuples
        # and k - 1 flag rows as bytes
        assert [(p, to_grid(key, k)) for p, key in got] == (
            reference_extract_k_rectangles(w, ms, k)
        )
        for _, key in got:
            assert len(key) == 2 * k - 1
            assert all(type(row) is tuple for row in key[:k])
            assert all(type(row) is bytes for row in key[k:])

    def test_equal_gaps_are_one_object(self):
        # from origin 4, rows 1 and 2 read 2 1211 1211 and 4 1311 1311; the
        # two 4-gaps of row 2 hold the same cells and row-1 flags, and the
        # census's bad gaps share one key
        w = ArrayWindow(
            canonical_sizes(2), 4,
            ((2, 1, 2, 1, 1, 1, 2, 1, 1), (4, 1, 3, 1, 1, 1, 3, 1, 1)),
            INDEPENDENT,
        )
        ms = MarkerSystem.from_positions(((4, 6, 8, 10, 12), (4, 8, 12)), (2, 4), 4, 12)
        (p, a), (q, b) = census_bad(w, ms, 2, point_family(1, F(1, 10)))
        assert (p, q) == (slice(1, 5), slice(5, 9))
        assert a is b
        assert a == ((1, 2, 1, 1), (1, 3, 1, 1), bytes([0, 1, 0, 1]))

    def test_window_with_fewer_rows_rejected(self):
        w = lift_binary("0100101", 1)
        ms = MarkerSystem.from_positions(((0, 3, 6), (0, 6)), (3, 6), 0, 6)
        with pytest.raises(ValueError):
            gap_keys(w, ms, 2)


@st.composite
def census_cases(draw):
    """1-3 windows of extraction_cases that share rows, k and l, and a
    family of 1-2 members at a truncation within every gap, whose gamma is
    one gap's distance to the family or 1/2, so some gaps are bad.  Small
    cells make rectangles and measures repeat across gaps and windows."""
    rows = draw(st.integers(1, 3))
    shape = rows, draw(st.integers(1, rows)), draw(st.integers(2, 4))
    k, l = shape[1:]
    windows = draw(st.lists(extraction_cases(shape), min_size=1, max_size=3))
    trunc = (draw(st.integers(1, k)), draw(st.integers(1, l)))
    grids = draw(st.lists(_grids(trunc[0], trunc[1], 8), min_size=1, max_size=2))
    members = tuple(
        empirical_measure(Rectangle.from_rows(g), trunc) for g in grids
    )
    gaps = [
        Rectangle(key[:k]) for w, ms, _ in windows for _, key in gap_keys(w, ms, k)
    ]
    gamma = draw(
        st.sampled_from(
            [F(1, 2)]
            + [min(dstar(r, m, trunc).value for m in members) for r in gaps]
        )
    )
    samples = [sample_of(w, ms) for w, ms, _ in windows]
    return samples, TargetFamily((1,), members, gamma), k, l


class TestCensusDifferential:
    @settings(max_examples=200, deadline=None)
    @given(census_cases())
    def test_matches_reference(self, case):
        samples, family, k, l = case
        keys = []

        def counted(rect, family):
            keys.append(_measure_key(rect, family.truncation))
            return classify(rect, family)

        with mock.patch.object(purify, "classify", counted):
            census, verdicts, bad_gaps = _census(samples, family, k, l)
        expected = reference_census(samples, family, k)
        assert census == expected[0]
        # the same verdicts, first seen in the same order
        got = [(to_grid(key, k), verdict) for key, verdict in verdicts.items()]
        assert got == list(expected[1].items())
        assert [
            [(p, to_grid(key, k)) for p, key in at_markers(bad, sample.window)]
            for bad, sample in zip(bad_gaps, samples)
        ] == expected[2]
        # one classify per distinct measure key
        trunc = family.truncation
        assert len(keys) == len(set(keys))
        assert set(keys) == {
            _measure_key(Rectangle(key[:k]), trunc) for key in verdicts
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
        # two 2-gaps of equal cells whose row-1 markers differ: two keys,
        # one verdict from the cells, one classify call
        w = lift_binary("0" * 10, 2)
        ms = MarkerSystem.from_positions(((0, 2, 4, 7, 8), (0, 4, 8)), (2, 4), 0, 8)
        calls = []

        def counted(rect, family):
            calls.append(rect)
            return classify(rect, family)

        sample = sample_of(w, ms)
        fam = point_family(1, F(3, 10))
        with mock.patch.object(purify, "classify", counted):
            census, verdicts, _ = _census([sample], fam, 2, 4)
        assert census == {GOOD: 2, BAD: 0}
        assert [key[2] for key in verdicts] == [
            bytes([0, 1, 0, 1]), bytes([0, 0, 1, 1])
        ]
        assert calls == [Rectangle(((1,) * 4, (1,) * 4))]

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
        cuts = [0]
        for width in widths:
            cuts.append(cuts[-1] + width)
        word = data.draw(
            st.text("01", min_size=cuts[-1] + 1, max_size=cuts[-1] + 1)
        )
        w = lift_binary(word, 1)
        ms = MarkerSystem.from_positions((tuple(cuts),), (3,), 0, cuts[-1])
        tabbed = {3: ((1, 1, 1),), 4: ((1, 1, 1, 1),)}
        fam = point_family(1, F(3, 10))
        bad = census_bad(w, ms, 1, fam)
        out, flags, _, _ = replace_bad(w, render(ms, w), 1, bad, tabbed)
        fresh = point_family(1, F(3, 10))
        for key in flag_keys(out, flags, 1, 3):
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


def _flag_rows(draw, width, n):
    # n random 0/1 flag rows of a gap key, as bytes
    row = st.lists(st.integers(0, 1), min_size=width, max_size=width)
    return [*map(bytes, draw(st.lists(row, min_size=n, max_size=n)))]


@st.composite
def nesting_cases(draw):
    """Coarse gap keys of depth 1 or 2 and widths l and l+1 with random flag
    rows, and fine keys of a depth up to 3 above it, glued from their cells
    under extra rows and random flag rows, with coarse-row cuts at the
    junctions; the first fine key may get a stray cut or a changed cell in
    the coarse rows."""
    coarse_k, l = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    k = draw(st.integers(coarse_k + 1, 3))
    coarse = [
        (*map(tuple, grid), *_flag_rows(draw, len(grid[0]), coarse_k - 1))
        for grid in draw(
            st.lists(_grids(coarse_k, l, l + 1), min_size=1, max_size=4)
        )
    ]
    grids = []
    for _ in range(draw(st.integers(1, 3))):
        pieces = draw(st.lists(st.sampled_from(coarse), min_size=1, max_size=4))
        cells = [[v for p in pieces for v in p[i]] for i in range(coarse_k)]
        width = len(cells[0])
        cells += draw(_grids(k - coarse_k, width, width))
        flags = [bytearray(row) for row in _flag_rows(draw, width, k - 1)]
        ends = set(itertools.accumulate(len(p[0]) for p in pieces))
        flags[coarse_k - 1] = bytearray(j + 1 in ends for j in range(width))
        grids.append((cells, flags))
    cells, flags = grids[0]
    j = draw(st.integers(0, len(cells[0]) - 1))
    change = draw(st.sampled_from(["none", "cut", "cell"]))
    if change == "cut":
        flags[coarse_k - 1][j] ^= 1
    elif change == "cell":
        i = draw(st.integers(0, coarse_k - 1))
        cells[i][j] = 3 - cells[i][j]
    fine = {(*map(tuple, c), *map(bytes, f)) for c, f in grids}
    return fine, set(coarse), k, coarse_k, l


class TestCheckNesting:
    @settings(max_examples=300, deadline=None)
    @given(nesting_cases())
    def test_matches_reference(self, case):
        # fine depths 2 and 3, over coarse depths 1 and 2
        fine, coarse, k, coarse_k, l = case
        expected = reference_check_nesting(
            {to_grid(key, k) for key in fine},
            {to_grid(key, coarse_k) for key in coarse},
            coarse_k,
            l,
        )
        assert check_nesting(*case) == expected


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

    def test_flag_breaks_tie(self):
        # equal cells: the key with no row-1 marker inside sorts first
        cells = ((1, 1, 1), (1, 1, 1))
        plain = (*cells, bytes([0, 0, 1]))
        marked = (*cells, bytes([1, 0, 1]))
        wide = ((1,) * 4, (1,) * 4, bytes([0, 0, 0, 1]))
        assert select_tabbed([marked, plain, wide], 3)[0] == plain


@st.composite
def tabbed_cases(draw):
    """Gap keys of depth 2 or 3 and widths l and l + 1, each cell grid drawn
    with 1-3 flag variants, so equal cells with different flags meet."""
    k, l = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    keys = []
    for _ in range(draw(st.integers(1, 6))):
        width = draw(st.sampled_from([l, l + 1]))
        cells = tuple(map(tuple, draw(_grids(k, width, width))))
        for _ in range(draw(st.integers(1, 3))):
            keys.append((*cells, *_flag_rows(draw, width, k - 1)))
    return keys, k, l


class TestSelectTabbedDifferential:
    @settings(max_examples=300, deadline=None)
    @given(tabbed_cases())
    def test_matches_flag_grid_order(self, case):
        keys, k, l = case
        grids = [to_grid(key, k) for key in keys]
        try:
            expected = reference_select_tabbed(grids, l)
        except MissingLength as exc:
            with pytest.raises(MissingLength) as got:
                select_tabbed(keys, l)
            assert got.value.width == exc.width
            return
        chosen = select_tabbed(keys, l)
        assert [to_grid(key, k) for key in chosen] == list(expected)


class TestReplaceBad:
    def _fixture(self):
        # row 1 reads 1111121111; the middle 3-gap reads 121, which is bad
        w = lift_binary("0000010000", 1)
        ms = MarkerSystem.from_positions(((0, 3, 6, 9),), (3,), 0, 9)
        fam = point_family(1, F(3, 10))
        tabbed = {3: ((1, 1, 1),), 4: ((1, 1, 1, 1),)}
        return w, ms, fam, tabbed

    def test_identity_when_all_good(self):
        w = lift_binary("0000000000", 1)
        ms = MarkerSystem.from_positions(((0, 3, 6, 9),), (3,), 0, 9)
        fam = point_family(1, F(3, 10))
        tabbed = {3: ((1, 1, 1),), 4: ((1, 1, 1, 1),)}
        bad = census_bad(w, ms, 1, fam)
        out, _, changed, replaced = replace_bad(w, render(ms, w), 1, bad, tabbed)
        assert bad == []
        assert out.cells == w.cells and changed == 0 and replaced == 0

    def test_direct_rule(self):
        # window 111|121|111: the middle 3-gap is bad and becomes 111
        w, ms, fam, tabbed = self._fixture()
        bad = census_bad(w, ms, 1, fam)
        out, _, changed, replaced = replace_bad(w, render(ms, w), 1, bad, tabbed)
        assert [s for s, _ in bad] == [slice(4, 7)]
        assert out.cells[0] == (1,) * 10
        assert changed == 3 and replaced == 1

    def test_changed_fraction_accounting(self):
        w, ms, fam, tabbed = self._fixture()
        bad = census_bad(w, ms, 1, fam)
        out, _, changed, _ = replace_bad(w, render(ms, w), 1, bad, tabbed)
        diff = sum(
            1 for a, b in zip(w.cells[0], out.cells[0]) if a != b
        )
        assert diff <= changed  # changed counts whole replaced gaps

    def test_rows_above_untouched(self):
        w = lift_binary("01101011101", 2)
        ms = MarkerSystem.from_positions(((0, 3, 6, 9), (0, 9)), (3, 9), 0, 9)
        fam = point_family(1, F(1, 10))
        tabbed = {3: ((1, 1, 1),), 4: ((1, 1, 1, 1),)}
        bad = census_bad(w, ms, 1, fam)
        out, _, _, _ = replace_bad(w, render(ms, w), 1, bad, tabbed)
        assert bad and out.cells[1] == w.cells[1]

    def test_all_good_after(self):
        w, ms, fam, tabbed = self._fixture()
        out, flags, _, _ = replace_bad(
            w, render(ms, w), 1, census_bad(w, ms, 1, fam), tabbed
        )
        fresh = point_family(1, F(3, 10))
        for key in flag_keys(out, flags, 1, 3):
            assert classify(Rectangle(key), fam) == GOOD
            assert reference_classify(Rectangle(key), fresh) == GOOD

    def _two_row_fixture(self):
        # one bad 2-gap (0, 9] with a row-1 marker at 4 inside, and a
        # tabbed key whose interior row-1 flag lands on 5
        w = lift_binary("01101011101", 2)
        ms = MarkerSystem.from_positions(((0, 4, 9), (0, 9)), (4, 9), 0, 9)
        fam = TargetFamily(
            (1,),
            (empirical_measure(
                window_to_rectangle(lift_binary("0" * 12, 2)), (1, 2)),),
            F(1, 10),
        )
        block = ((1,) * 9, (1,) * 9, bytes([0, 0, 0, 0, 1, 0, 0, 0, 1]))
        return w, ms, fam, {9: block}

    def test_submarkers_rewritten(self):
        # replacing a 2-gap moves the interior row-1 flags to the tabbed
        # key's flags
        w, ms, fam, tabbed = self._two_row_fixture()
        bad = census_bad(w, ms, 2, fam)
        flags = render(ms, w)
        out, flags2, _, replaced = replace_bad(w, flags, 2, bad, tabbed)
        assert replaced == 1
        assert flags2[0] == bytes(j in (0, 5, 9) for j in range(10))
        assert flags2[1] is flags[1]
        grids = {9: to_grid(tabbed[9], 2)}
        out_ref, ms_ref, _, _ = reference_replace_bad(w, ms, 2, fam, grids)
        assert (out, flags2) == (out_ref, render(ms_ref, w))

    def test_reads_no_window(self, monkeypatch):
        # the census has extracted and classified the gaps already, and
        # the flag rows are written in place of any marker system
        w, ms, fam, tabbed = self._two_row_fixture()
        bad = census_bad(w, ms, 2, fam)
        flags = render(ms, w)

        def forbidden(*args):
            raise AssertionError("replace_bad read the window again")

        monkeypatch.setattr(purify, "_window_rows", forbidden)
        monkeypatch.setattr(purify, "_gap_keys", forbidden)
        monkeypatch.setattr(purify, "classify", forbidden)
        monkeypatch.setattr(MarkerSystem, "cuts", forbidden)
        _, flags2, changed, replaced = replace_bad(w, flags, 2, bad, tabbed)
        row = bytes(j in (0, 5, 9) for j in range(10))
        assert (flags2[0], changed, replaced) == (row, 9, 1)


@st.composite
def replacement_cases(draw):
    """A three-row window whose row k (1 to 3) has gaps of l and l + 1, with
    the markers of each row below k drawn anywhere in it; a point-mass
    family under which some gaps are bad, and tabbed keys of both widths
    with random cells and flag rows, the last-cell flags included."""
    k, l = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    cuts = [draw(st.integers(0, 2))]
    widths = st.lists(st.sampled_from([l, l + 1]), min_size=1, max_size=6)
    for width in draw(widths):
        cuts.append(cuts[-1] + width)
    columns = cuts[-1] + 1 + draw(st.integers(0, 2))
    word = draw(st.text("01", min_size=columns + 2, max_size=columns + 2))
    w = lift_binary(word, 3)
    fine = st.sets(st.integers(0, columns - 1))
    rows = [tuple(sorted(draw(fine))) for _ in range(k - 1)] + [tuple(cuts)]
    ms = MarkerSystem.from_positions(tuple(rows), (1,) * (k - 1) + (l,), 0, columns - 1)
    family = point_family(
        draw(st.integers(1, 2)), draw(st.sampled_from([F(1, 10), F(3, 10)]))
    )
    tabbed = {}
    for width in (l, l + 1):
        cells = map(tuple, draw(_grids(k, width, width)))
        tabbed[width] = (*cells, *_flag_rows(draw, width, k - 1))
    return w, ms, k, family, tabbed


class TestReplaceBadDifferential:
    @settings(max_examples=300, deadline=None)
    @given(replacement_cases())
    def test_matches_reference(self, case):
        # depths 1 to 3: at 3, the markers of rows 1 and 2 are rewritten
        w, ms, k, family, tabbed = case
        bad = census_bad(w, ms, k, family)
        grids = {width: to_grid(key, k) for width, key in tabbed.items()}
        window, new_ms, changed, replaced = reference_replace_bad(
            w, ms, k, family, grids
        )
        expected = window, render(new_ms, w), changed, replaced
        assert replace_bad(w, render(ms, w), k, bad, tabbed) == expected


def _wrong_blocks(w, flags, k, bad, tabbed):
    # replace_bad writing the cells of every tabbed key as 2s
    wrong = {
        width: ((2,) * width,) * k + key[k:] for width, key in tabbed.items()
    }
    return replace_bad(w, flags, k, bad, wrong)


def _both_repairs(w, ms, k, family, tabbed):
    """_repair and reference_repair of the window's census bad gaps, each
    on its own sample: their results and the samples' repaired states."""
    _, verdicts, (bad,) = _census([sample_of(w, ms)], family, k, ms.gaps[k - 1])
    measure = empirical_measure(window_to_rectangle(w), family.truncation)
    out = []
    for repair in (_repair, reference_repair):
        sample = sample_of(w, ms, measure=measure)
        result = repair(sample, family, k, bad, tabbed, verdicts)
        out.append((result, sample.window, sample.flag_rows, sample.measure))
    return bad, out


class TestRepairDifferential:
    @settings(max_examples=300, deadline=None)
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
        ms = MarkerSystem.from_positions(((0, 3, 6, 9),), (3,), 0, 9)
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
        targets, samples = purify._lift_leaves(config)
        k, trunc = config.depths[0], config.truncation
        l = config.gaps[k - 1]
        distinct = {}
        for s in samples:
            distinct.setdefault(s.path[:1], set()).update(
                Rectangle(key) for key in flag_keys(s.window, s.flag_rows, k, l)
            )
        calls = []

        def counted(rect, family):
            calls.append((family.path, _measure_key(rect, trunc)))
            return classify(rect, family)

        monkeypatch.setattr(purify, "classify", counted)
        report, _, _ = purify.purify_stage(samples, config, 1, targets, None)
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
        # every sample of a stage holds the same row-k flag row, so all the
        # stage's families get one list of gap slices
        seen = {}

        def recorded(w, flags, k, l, slices_of=None):
            slices, rows = _window_rows(w, flags, k, l, slices_of)
            seen.setdefault(k, []).append(slices)
            return slices, rows

        monkeypatch.setattr(purify, "_window_rows", recorded)
        config = config_from_dict(NOISY_CONFIG)
        purify_pipeline(config)
        assert sorted(seen) == list(config.depths)
        for lists in seen.values():
            assert len(lists) == sum(len(lf.samples) for lf in config.leaves)
            assert all(slices is lists[0] for slices in lists)


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


def checked_flag_rows(config):
    """Run the pipeline, reading every sample's flag rows back as positions
    after each stage: they must form a two-gap, congruent marker system.
    Returns the number of samples whose row-1 flags a stage wrote: those
    with replaced columns at a stage of depth 2 or more."""
    stage_fn = purify.purify_stage
    rewritten = set()

    def spy(samples, config, stage, *args):
        result = stage_fn(samples, config, stage, *args)
        for s in samples:
            ms = read_back(s.flag_rows, s.window, config.gaps)
            rows = range(1, ms.row_count + 1)
            assert check_congruency(ms), s.spec.spec
            assert all(check_two_gaps(ms, k) for k in rows), s.spec.spec
            if config.depths[stage - 1] > 1 and s.changed[-1]:
                rewritten.add(id(s))
        return result

    with mock.patch.object(purify, "purify_stage", spy):
        _outcome(config)
    return len(rewritten)


class TestFlagRowsStayMarkers:
    # replacement writes tabbed flags strictly inside bad gaps, so the flag
    # rows stay a two-gap, congruent hierarchy; a flag written one column
    # off breaks one of the two
    @settings(max_examples=15, deadline=None)
    @given(small_configs(stages=2))
    def test_after_every_stage(self, config):
        checked_flag_rows(config)

    def test_rewritten_rows_checked(self):
        # the noisy samples of the mixed tree are repaired at stage 2, so
        # their row-1 flags are written
        assert checked_flag_rows(mixed_tree_config()) > 0

    def test_unchanged_rows_stay_shared(self):
        # a built hierarchy splits every row-2 gap of one width alike, so
        # stage 2 writes row 1 back with the bytes it had: every sample,
        # repaired or not, still holds the base hierarchy's row object
        stage_fn = purify.purify_stage
        seen = {}

        def spy(samples, *args):
            seen.setdefault("base", samples[0].flag_rows[0])
            seen["samples"] = samples
            return stage_fn(samples, *args)

        with mock.patch.object(purify, "purify_stage", spy):
            assert purify_pipeline(mixed_tree_config())["ok"]
        samples = seen["samples"]
        assert any(s.changed[1] for s in samples)
        assert all(s.flag_rows[0] is seen["base"] for s in samples)


def reference_nesting(config, check):
    """purify_pipeline's nesting check as first written: the good sets of
    every stage are kept to the end, then each fine family's is checked
    against its parent's with ``check``."""
    targets, samples = purify._lift_leaves(config)
    records = {}
    for stage in range(1, config.stage_count + 1):
        _, _, records[stage] = reference_purify_stage(
            samples, config, stage, targets, None
        )
    nesting_ok = True
    for stage in range(2, config.stage_count + 1):
        k, coarse_k = config.depths[stage - 1], config.depths[stage - 2]
        for path, fine in records[stage].items():
            coarse = records[stage - 1][path[: stage - 1]]
            fine_keys = {to_key(rect) for rect in fine}
            coarse_keys = {to_key(rect) for rect in coarse}
            if not check(
                fine_keys, coarse_keys, k, coarse_k, config.gaps[coarse_k - 1]
            ):
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

        def spy(samples, config, stage, targets, coarse):
            seen.update(samples=samples, targets=targets)
            return stage_fn(samples, config, stage, targets, coarse)

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
