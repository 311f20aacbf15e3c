"""Good/bad classification of k-rectangles against target families, tabbed
replacement, and the staged purification pipeline over a nested family tree.

A k-gap is handled as its key: its k cell rows, then the finer-row marker
flags inside it.  Classification reads the cells only and is decided on the
truncated metric value; the pipeline is deterministic and platform
independent.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, compress
from typing import Iterable

from ._value import Value, _set
from .arrays import (
    INDEPENDENT,
    ArrayWindow,
    Rectangle,
    lift_binary,
    window_to_rectangle,
)
from .generators import GeneratorSpec, parse_spec
from .markers import (
    NoDecomposition,
    build_marker_system,
    check_gaps,
    decompose_gap,
)
from .measures import (
    EmpiricalMeasure,
    Truncation,
    _l1_sum,
    _measure_key,
    dstar,
    empirical_measure,
)

GOOD = "good"
BAD = "bad"


class MissingLength(ValueError):
    """No good rectangle of one of the two admissible widths."""

    def __init__(self, width: int):
        super().__init__(f"no good rectangle of width {width}")
        self.width = width


class SeparationViolation(ValueError):
    """The closeness radius does not respect the family separation policy."""


class InvalidMarkers(ValueError):
    """The marker system violates the two-gap or congruency conditions."""


class TargetFamily(Value):
    """A node of the partition tree: its member measures and the closeness
    radius used to call a rectangle good at this stage."""

    __slots__ = ("path", "members", "gamma")

    def __init__(self, path, members, gamma):
        _set(self, "path", path)
        _set(self, "members", members)
        _set(self, "gamma", gamma)
        if not members:
            raise ValueError("family needs at least one member")
        trunc = members[0].truncation
        if any(m.truncation != trunc for m in members):
            raise ValueError("family members must share a truncation")

    @property
    def truncation(self) -> Truncation:
        return self.members[0].truncation


def classify(rect: Rectangle, family: TargetFamily) -> str:
    """Good iff the truncated distance to some member is below gamma.

    With the distance d to a member as the unreduced ``num / den`` of
    ``measures._l1_sum`` (den > 0) and gamma = g / h in lowest terms
    (h > 0), d < gamma iff ``num * h < g * den``: the test is exact, and no
    Fraction or TruncatedDistance is built per member.
    """
    g, h = family.gamma.numerator, family.gamma.denominator
    measure = empirical_measure(rect, family.truncation)
    for member in family.members:
        num, den = _l1_sum(measure, member)
        if num * h < g * den:
            return GOOD
    return BAD


# a k-gap as (s, key): s is the slice of the window's columns it covers,
# and the key holds its k cell rows, then the flag rows 1..k-1 cut to s
# (1 where a marker sits right after the cell); row k flags only the gap's
# last cell, so no key carries it
Gap = tuple[slice, tuple]


def _window_rows(
    w: ArrayWindow, flags: tuple, k: int, l: int, slices_of: dict | None = None
) -> tuple:
    """The slices of w's k-gaps, each from the cell after a row-k flag to
    the next flagged cell, and the rows a gap key cuts: cell rows 1..k,
    then the window-long flag rows 1..k-1.  A gap whose width is not l or
    l + 1 raises InvalidMarkers.  ``slices_of`` maps each row-k flag row
    already split to its slices, so a row shared by many windows is split
    once."""
    if not 1 <= k <= len(flags):
        raise InvalidMarkers(f"marker system has no row {k}")
    if k > w.rows:
        raise ValueError(f"window has no row {k}")
    slices_of = {} if slices_of is None else slices_of
    row = flags[k - 1]
    slices = slices_of.get(row)
    if slices is None:
        # split at its flags, row k is the runs of cells before each flagged
        # cell; each run with its flagged cell after the first is a gap, and
        # the running sums of these widths are the gap bounds
        widths = [len(run) + 1 for run in row.split(b"\1")[:-1]]
        if not set(widths[1:]) <= {l, l + 1}:
            raise InvalidMarkers(f"row {k} gaps are not two-sized")
        bounds = [*accumulate(widths)]
        slices = slices_of[row] = [*map(slice, bounds, bounds[1:])]
    return slices, [*w.cells[:k], *flags[: k - 1]]


def _gap_keys(rows: list, slices: list[slice]):
    """A lazy stream of one key per slice, the tuple of the slice of every
    row: each row is cut by a ``map`` over the slices."""
    return zip(*[map(row.__getitem__, slices) for row in rows])


def select_tabbed(good: Iterable[tuple], l: int) -> tuple[tuple, tuple]:
    """The smallest good gap key of each width l and l+1.

    Keys compare as the flag grids of their gaps did: cells first, then the
    flag rows, where the 0/1 bytes order as False/True, and the row-k flags
    that no key carries are equal for every key of one width.
    """
    chosen: dict[int, tuple] = {}
    for key in good:
        width = len(key[0])
        cur = chosen.get(width)
        if cur is None or key < cur:
            chosen[width] = key
    for width in (l, l + 1):
        if width not in chosen:
            raise MissingLength(width)
    return chosen[l], chosen[l + 1]


def replace_bad(
    w: ArrayWindow,
    flags: tuple,
    k: int,
    bad: list[Gap],
    tabbed: dict[int, tuple],
) -> tuple[ArrayWindow, tuple, int, int]:
    """Overwrite each bad k-gap ``(s, key)`` of the window and its flag rows
    with the tabbed key of its width, in the rows it was cut from.

    Cell rows 1..k are written over the whole gap, and flag rows 1..k-1
    strictly inside it: the flag on the gap's last cell is the row-k
    marker, which never moves.  Rows above k and flag rows k and up are
    kept.  Returns (window, flags, changed columns, replaced count); the
    output window is in independent mode.  A flag row that comes out with
    the bytes it came in with is returned as that same object, so samples
    keep sharing the base hierarchy's rows.
    """
    cells = [list(row) for row in w.cells[:k]]
    fine = [bytearray(row) for row in flags[: k - 1]]
    for s, key in bad:
        new = tabbed[len(key[0])]
        for row, new_row in zip(cells, new):
            row[s] = new_row
        inner = slice(s.start, s.stop - 1)
        for row, new_row in zip(fine, new[k:]):
            row[inner] = new_row[:-1]
    cells = (*map(tuple, cells), *w.cells[k:])
    window = ArrayWindow(w.sizes, w.origin, cells, INDEPENDENT)
    changed = sum(s.stop - s.start for s, _ in bad)
    kept = (
        row if row == new else bytes(new) for row, new in zip(flags, fine)
    )
    return window, (*kept, *flags[k - 1 :]), changed, len(bad)


# --- configuration ----------------------------------------------------------


class LeafSpec(Value):
    __slots__ = ("path", "target", "samples")

    def __init__(self, path, target, samples):
        _set(self, "path", path)
        _set(self, "target", target)
        _set(self, "samples", samples)


class PurifyConfig(Value):
    """Declarative experiment description (see README for the JSON schema)."""

    __slots__ = (
        "truncation", "gaps", "depths", "epsilons", "columns", "leaves", "gammas"
    )

    def __init__(
        self, truncation, gaps, depths, epsilons, columns, leaves, gammas=None
    ):
        _set(self, "truncation", truncation)
        _set(self, "gaps", gaps)
        _set(self, "depths", depths)
        _set(self, "epsilons", epsilons)
        _set(self, "columns", columns)
        _set(self, "leaves", leaves)
        _set(self, "gammas", gammas)
        if len(truncation) != 2 or min(truncation) < 1:
            raise ValueError("truncation must be [rows, width], each >= 1")
        m = len(depths)
        if len(epsilons) != m or (gammas and len(gammas) != m):
            raise ValueError("one epsilon (and gamma, if given) per stage")
        if not depths or depths[0] < 1:
            raise ValueError("depths[0]: a stage depth must be at least 1")
        if list(depths) != sorted(set(depths)):
            raise ValueError("stage depths must be strictly increasing")
        if depths[-1] > len(gaps):
            raise ValueError("stage depth exceeds the marker hierarchy")
        for i, eps in enumerate(epsilons):
            if eps <= 0 or eps > epsilons[0] * Fraction(1, 2**i):
                raise ValueError(
                    "epsilons must be positive with eps_m <= eps_1 * 2^(1-m)"
                )
        # good means a distance below gamma, and no distance is below 0
        if gammas and min(gammas) <= 0:
            raise ValueError("gammas must be positive")
        check_gaps(gaps)
        # the top marker row splits the columns into gaps of l_K and l_K + 1
        try:
            decompose_gap(columns, gaps[-1])
        except NoDecomposition as exc:
            raise ValueError(f"columns: {exc}") from None
        # a first-stage rectangle has depths[0] rows and width l or l + 1
        if truncation[0] > depths[0] or truncation[1] > gaps[depths[0] - 1]:
            raise ValueError(
                "truncation must fit the first stage: rows at most its "
                "depth, width at most its gap"
            )
        if not leaves or any(len(l.path) != m for l in leaves):
            raise ValueError("leaf paths must match the number of stages")

    @property
    def stage_count(self) -> int:
        return len(self.depths)

    @property
    def word_length(self) -> int:
        """Length of each generated word: its lift to one row per gap has
        ``columns`` columns."""
        return self.columns + len(self.gaps) - 1


def _exact(field: str, value, kind: type):
    """A JSON int as ``kind`` (int or Fraction), or for Fraction also a "p/q"
    string; a bool, a float or any other value raises ValueError naming the
    field, so no float reaches a verdict."""
    if type(value) is int or kind is Fraction and isinstance(value, str):
        try:
            return kind(value)
        except (ValueError, ZeroDivisionError):
            pass
    want = "an integer" if kind is int else 'an integer or a "p/q" string'
    raise ValueError(f"{field}: expected {want}, got {value!r}")


def _exacts(field: str, value, kind: type) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"{field}: expected a list, got {value!r}")
    return tuple(_exact(f"{field}[{i}]", v, kind) for i, v in enumerate(value))


def _spec(field: str, value) -> GeneratorSpec:
    if not isinstance(value, str):
        raise ValueError(f"{field}: expected a spec string, got {value!r}")
    try:
        spec = parse_spec(value)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None
    if spec.kind == "full":
        raise ValueError(f"{field}: {value!r} is an oracle and generates no words")
    if spec.kind == "periodic" and not set(spec.word_arg) <= {"0", "1"}:
        raise ValueError(f"{field}: {value!r} is not a 0/1 word, so it has no lift")
    return spec


def _specs(field: str, value) -> list[tuple[str, GeneratorSpec]]:
    """Each spec of the list with its JSON path."""
    if not isinstance(value, list):
        raise ValueError(f"{field}: expected a list of spec strings, got {value!r}")
    if not value:
        raise ValueError(f"{field}: expected a non-empty list")
    fields = [f"{field}[{i}]" for i in range(len(value))]
    return [(at, _spec(at, v)) for at, v in zip(fields, value)]


def config_from_dict(raw: dict) -> PurifyConfig:
    """Parse the JSON config.  A value of the wrong JSON type, in the tree as
    elsewhere, raises ValueError naming its JSON path, and so does an empty
    list of nodes or samples: it would drop its targets from the separation
    without a word."""
    if not isinstance(raw, dict):
        raise ValueError(f"config: expected an object, got {type(raw).__name__}")
    for field in ("tree", "truncation", "gaps", "depths", "epsilons", "columns"):
        if field not in raw:
            raise ValueError(f"{field}: a required field is missing")
    leaves: list[LeafSpec] = []
    specs: list[tuple[str, GeneratorSpec]] = []

    def walk(field: str, nodes, prefix: tuple[int, ...]) -> None:
        if not isinstance(nodes, list):
            raise ValueError(f"{field}: expected a list of nodes, got {nodes!r}")
        if not nodes:
            raise ValueError(f"{field}: expected a non-empty list")
        for i, node in enumerate(nodes):
            at, path = f"{field}[{i}]", prefix + (i + 1,)
            if not isinstance(node, dict):
                raise ValueError(f"{at}: expected an object, got {node!r}")
            if "families" in node:
                walk(f"{at}.families", node["families"], path)
                continue
            target = _spec(f"{at}.target", node.get("target"))
            samples = _specs(f"{at}.samples", node.get("samples"))
            specs.append((f"{at}.target", target))
            specs.extend(samples)
            leaves.append(LeafSpec(path, target, tuple(s for _, s in samples)))

    walk("tree", raw["tree"], ())
    config = PurifyConfig(
        truncation=_exacts("truncation", raw["truncation"], int),
        gaps=_exacts("gaps", raw["gaps"], int),
        depths=_exacts("depths", raw["depths"], int),
        epsilons=_exacts("epsilons", raw["epsilons"], Fraction),
        columns=_exact("columns", raw["columns"], int),
        leaves=tuple(leaves),
        gammas=(
            _exacts("gammas", raw["gammas"], Fraction)
            if raw.get("gammas")
            else None
        ),
    )
    # a Sturmian word is exact only below its rotation denominator
    n = config.word_length
    for at, spec in specs:
        if spec.kind == "sturmian" and spec.alpha.denominator <= n:
            raise ValueError(
                f"{at}: {spec.spec!r} needs a denominator above the word "
                f"length {n} (columns + len(gaps) - 1)"
            )
    return config


# --- the staged pipeline ----------------------------------------------------


class _Sample:
    __slots__ = ("path", "spec", "window", "flag_rows", "measure", "changed")

    def __init__(self, path, spec, window, flag_rows, measure):
        self.path: tuple[int, ...] = path
        self.spec: GeneratorSpec = spec
        self.window: ArrayWindow = window
        # one window-long bytes row per marker row; repair replaces them
        self.flag_rows: tuple[bytes, ...] = flag_rows
        # measure of the window; recounted only when replacement changes it
        self.measure: EmpiricalMeasure = measure
        self.changed: list[int] = []


def _stage_gamma(
    config: PurifyConfig,
    stage: int,
    members: dict[tuple[int, ...], list[EmpiricalMeasure]],
) -> Fraction:
    eps = config.epsilons[stage - 1]
    sep: Fraction | None = None
    for pa, pb in combinations(sorted(members), 2):
        for ma in members[pa]:
            for mb in members[pb]:
                d = dstar(ma, mb, config.truncation).value
                sep = d if sep is None else min(sep, d)
    if config.gammas is not None:
        gamma = config.gammas[stage - 1]
        if gamma >= eps:
            raise SeparationViolation(
                f"stage {stage}: gamma {gamma} not below epsilon {eps}"
            )
        if sep is not None and 2 * gamma >= sep:
            raise SeparationViolation(
                f"stage {stage}: gamma {gamma} not below half separation "
                f"{sep}/2"
            )
        return gamma
    if sep is None:
        return eps * Fraction(9, 10)
    if sep == 0:
        raise SeparationViolation(f"stage {stage}: families are not separated")
    return min(eps, sep / 2) * Fraction(9, 10)


def _census(
    samples: list[_Sample],
    family: TargetFamily,
    k: int,
    l: int,
    slices_of: dict | None = None,
) -> tuple[dict[str, int], dict[tuple, str], list[list[Gap]]]:
    """The good/bad counts of the samples' k-gaps, the verdict of each
    distinct gap key and each sample's bad gaps, in window order.
    ``slices_of`` is passed to ``_window_rows``.

    A window's gap keys are counted by one Counter over one key pass, and a
    Rectangle of a key's cells is built only to classify a key the family
    has not seen.  A verdict depends only on the rectangle's measure, so
    ``classify`` runs once per distinct ``measures._measure_key``.  Only a
    window with bad gaps is sliced again, lazily, to collect them; equal
    bad gaps share one key.
    """
    census = {GOOD: 0, BAD: 0}
    verdicts: dict[tuple, str] = {}
    by_measure: dict[tuple, str] = {}
    bad_gaps = []
    slices_of = {} if slices_of is None else slices_of
    for sample in samples:
        slices, rows = _window_rows(
            sample.window, sample.flag_rows, k, l, slices_of
        )
        bad_keys = {}
        for key, n in Counter(_gap_keys(rows, slices)).items():
            verdict = verdicts.get(key)
            if verdict is None:
                rect = Rectangle(key[:k])
                measure_key = _measure_key(rect, family.truncation)
                verdict = by_measure.get(measure_key)
                if verdict is None:
                    verdict = by_measure[measure_key] = classify(rect, family)
                verdicts[key] = verdict
            census[verdict] += n
            if verdict == BAD:
                bad_keys[key] = key
        bad = []
        if bad_keys:
            keys = map(bad_keys.get, _gap_keys(rows, slices))
            bad = [(s, key) for s, key in zip(slices, keys) if key is not None]
        bad_gaps.append(bad)
    return census, verdicts, bad_gaps


# _repair's result for a sample whose k-gaps are all good, which
# replacement would leave as it is
_CLEAN = (0, 0, Fraction(0), True)


def _repair(
    sample: _Sample,
    family: TargetFamily,
    k: int,
    bad: list[Gap],
    tabbed: dict[int, tuple],
    verdicts: dict[tuple, str],
) -> tuple[int, int, Fraction, bool]:
    """Overwrite the sample's bad k-gaps in place and re-check the replaced
    ones against the census verdicts, classifying only a key they lack:
    (replaced, changed columns, displacement, all good after).

    An unreplaced gap keeps its key and its good verdict: replacement
    writes cells and finer-row flags only inside bad gaps, and row-k flags
    never move.  So only the replaced gaps are sliced again, from the new
    window and flag rows.
    """
    trunc = family.truncation
    before = sample.measure
    window, flags, changed, replaced = replace_bad(
        sample.window, sample.flag_rows, k, bad, tabbed
    )
    sample.window, sample.flag_rows = window, flags
    sample.measure = empirical_measure(window_to_rectangle(window), trunc)
    rows = [*window.cells[:k], *flags[: k - 1]]
    all_good = all(
        (verdicts.get(key) or classify(Rectangle(key[:k]), family)) == GOOD
        for key in dict.fromkeys(_gap_keys(rows, [s for s, _ in bad]))
    )
    moved = dstar(before, sample.measure, trunc).value
    return replaced, changed, moved, all_good


def _family_summary(
    rows: list[dict],
    measures: list[EmpiricalMeasure],
    eps: Fraction,
    trunc: Truncation,
) -> dict:
    """Largest sample displacement and the diameter of the repaired
    measures, each with its bound check."""
    displacement = max(row["displacement"] for row in rows)
    diameter = max(
        (dstar(ma, mb, trunc).value for ma, mb in combinations(measures, 2)),
        default=Fraction(0),
    )
    return {
        "displacement_max": displacement,
        "displacement_ok": displacement < 2 * eps,
        "diameter": diameter,
        "diameter_ok": diameter <= 3 * eps,
    }


def purify_stage(
    samples: list[_Sample],
    config: PurifyConfig,
    stage: int,
    targets: dict[tuple[int, ...], EmpiricalMeasure],
    coarse: dict[tuple[int, ...], set[tuple]] | None,
) -> tuple[dict, bool, dict[tuple[int, ...], set[tuple]] | None]:
    """Run one classification/replacement stage in place over the samples.
    Each family's set of good gap keys is checked against its parent's in
    ``coarse`` (None at stage 1) as soon as its census ends.  Returns the
    report, the AND of those checks, and the good sets unless the stage is
    the last."""
    k = config.depths[stage - 1]
    l = config.gaps[k - 1]
    eps = config.epsilons[stage - 1]
    trunc = config.truncation
    paths = sorted({s.path[:stage] for s in samples})
    members = {
        p: [targets[lp] for lp in sorted(targets) if lp[:stage] == p]
        for p in paths
    }
    gamma = _stage_gamma(config, stage, members)
    report: dict = {"stage": stage, "k": k, "gamma": gamma, "families": {}}
    nested = True
    # the last stage's good sets are checked here and then dropped
    good_records = {} if stage < config.stage_count else None
    # repair writes only flag rows below k, so every sample holds the base
    # hierarchy's row k, one shared bytes object, and it is split once
    slices_of: dict[bytes, list[slice]] = {}

    for path in paths:
        family = TargetFamily(path, tuple(members[path]), gamma)
        fam_samples = [s for s in samples if s.path[:stage] == path]
        census, verdicts, bad_gaps = _census(
            fam_samples, family, k, l, slices_of
        )
        good = {key for key, v in verdicts.items() if v == GOOD}
        if coarse is not None:
            coarse_k = config.depths[stage - 2]
            coarse_l = config.gaps[coarse_k - 1]
            if not check_nesting(
                good, coarse[path[:-1]], k, coarse_k, coarse_l
            ):
                nested = False
        tabbed = {len(key[0]): key for key in select_tabbed(good, l)}
        rows = []
        for sample, bad in zip(fam_samples, bad_gaps):
            replaced, changed, moved, all_good = (
                _repair(sample, family, k, bad, tabbed, verdicts)
                if bad
                else _CLEAN
            )
            sample.changed.append(changed)
            rows.append(
                {
                    "generator": sample.spec.spec,
                    "replaced": replaced,
                    "changed_columns": changed,
                    "changed_fraction": Fraction(changed, config.columns),
                    "displacement": moved,
                    "all_good_after": all_good,
                }
            )
        report["families"]["/".join(map(str, path))] = {
            "census": census,
            "census_ok": census[GOOD]
            >= (census[GOOD] + census[BAD]) * (1 - gamma),
            "samples": rows,
            **_family_summary(
                rows, [s.measure for s in fam_samples], eps, trunc
            ),
        }
        if good_records is not None:
            good_records[path] = good
    return report, nested, good_records


def check_nesting(
    fine: set[tuple], coarse: set[tuple], k: int, coarse_k: int, coarse_l: int
) -> bool:
    """Every good fine-stage gap key of depth k, restricted to the coarse
    depth, must split along its row-coarse_k markers into coarse-stage good
    gaps of the parent family.  The cuts are read from that flag row of the
    key with ``compress``, in one C-level pass per key."""
    # flags play no part in the match: compare cell rows only
    coarse_good = {key[:coarse_k] for key in coarse}
    for key in fine:
        width = len(key[0])
        # a flag on the last cell is the gap's right end, not a cut
        cuts = compress(range(1, width), key[k + coarse_k - 1])
        bounds = [0, *cuts, width]
        for a, b in zip(bounds, bounds[1:]):
            if b - a not in (coarse_l, coarse_l + 1):
                return False
            if tuple(row[a:b] for row in key[:coarse_k]) not in coarse_good:
                return False
    return True


def _lift_leaves(
    config: PurifyConfig,
) -> tuple[dict[tuple[int, ...], EmpiricalMeasure], list[_Sample]]:
    """Each leaf's target measure and its samples, lifted and measured once
    per distinct generator.  A target that is also a sample shares its window
    and measure, and all share the base hierarchy's flag rows, which is safe
    because repair rebinds those three and never mutates them."""
    word_len = config.word_length
    rows, trunc = len(config.gaps), config.truncation
    base_ms = build_marker_system(config.columns, 0, config.gaps)
    base_flags = tuple(
        base_ms.flags(k, 0, config.columns) for k in range(1, rows + 1)
    )
    # local to the set-up: held for the whole run, it would keep every
    # replaced sample window alive
    lifted: dict[GeneratorSpec, tuple[ArrayWindow, EmpiricalMeasure]] = {}

    def lift(spec: GeneratorSpec) -> tuple[ArrayWindow, EmpiricalMeasure]:
        if spec not in lifted:
            window = lift_binary(spec.word(word_len), rows)
            measure = empirical_measure(window_to_rectangle(window), trunc)
            lifted[spec] = window, measure
        return lifted[spec]

    targets: dict[tuple[int, ...], EmpiricalMeasure] = {}
    samples: list[_Sample] = []
    for leaf in config.leaves:
        targets[leaf.path] = lift(leaf.target)[1]
        for spec in leaf.samples:
            window, measure = lift(spec)
            samples.append(_Sample(leaf.path, spec, window, base_flags, measure))
    return targets, samples


def purify_pipeline(config: PurifyConfig) -> dict:
    """Run all stages over refining families and verify the stage invariants:
    good-family nesting, per-family diameters, and cumulative column-change
    accounting."""
    targets, samples = _lift_leaves(config)
    report: dict = {"stages": [], "columns": config.columns}
    good, nesting_ok = None, True
    for stage in range(1, config.stage_count + 1):
        stage_report, nested, good = purify_stage(
            samples, config, stage, targets, good
        )
        nesting_ok = nesting_ok and nested
        report["stages"].append(stage_report)
    report["nesting_ok"] = nesting_ok
    report["cumulative_changes"] = [
        {
            "generator": s.spec.spec,
            "path": "/".join(map(str, s.path)),
            "changed_columns_per_stage": list(s.changed),
            "changed_columns_total": sum(s.changed),
        }
        for s in samples
    ]
    report["ok"] = (
        nesting_ok
        and all(
            fam["displacement_ok"] and fam["diameter_ok"]
            and all(s["all_good_after"] for s in fam["samples"])
            for st in report["stages"]
            for fam in st["families"].values()
        )
    )
    return report
