"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE n: PASS" line (visible with pytest -s; the verbose listing
shows the same per-criterion pass/fail status).
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

from strictform.arrays import Rectangle, lift_binary
from strictform.assemble import (
    build_stitch_kit,
    check_stitchable,
    convergence_check,
    embed_aperiodic,
    embed_periodic,
    reconstruct,
)
from strictform.cli import main as cli_main
from strictform.generators import parse_spec
from strictform.markers import (
    build_marker_system,
    check_balanced,
    check_congruency,
    check_two_gaps,
    decompose_gap,
)
from strictform.measures import dstar, empirical_measure
from strictform.purify import config_from_dict, purify_pipeline

from array_helpers import from_word
from assemble_helpers import PeriodSpec, detect_exceptional
from measure_helpers import concat, mixture, point_mass

F = Fraction


def report(n: int, ok: bool) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_gap_decomposition_sweep():
    t0 = time.monotonic()
    ok = True
    for l in range(2, 21):
        base = 9 * l * l
        for p in range(base, base + 501):
            d = decompose_gap(p, l)
            if (
                d.a < 1
                or d.b < 1
                or d.a * l + d.b * (l + 1) != p
                or 3 * min(d.a * l, d.b * (l + 1)) < p
            ):
                ok = False
    elapsed = time.monotonic() - t0
    report(1, ok and elapsed < 10)


def test_criterion_2_marker_system_construction():
    t0 = time.monotonic()
    rng = random.Random(2026)
    ok = True
    for _ in range(50):
        depth = rng.choice([1, 1, 2, 2, 2, 3])
        l = 2 if depth == 3 else rng.randint(2, 6)
        gaps = [l]
        for _ in range(depth - 1):
            gaps.append(9 * gaps[-1] * gaps[-1] + rng.randint(0, 5))
        top = gaps[-1]
        a, b = rng.randint(2, 6), rng.randint(2, 6)
        columns = a * top + b * (top + 1)
        ms = build_marker_system(columns, rng.randint(-3, 3), tuple(gaps))
        if not check_congruency(ms):
            ok = False
        for k in range(1, ms.row_count + 1):
            if not check_two_gaps(ms, k):
                ok = False
            if not check_balanced(ms, k, ms.balance_windows[k - 1]):
                ok = False
    elapsed = time.monotonic() - t0
    report(2, ok and elapsed < 30)


def test_criterion_3_dstar_metric_axioms():
    t0 = time.monotonic()
    trunc = (1, 4)
    # widths start at the truncation width: narrower rectangles have no
    # measure at this truncation by the measures-module contract
    rects = [
        Rectangle.from_rows([word])
        for w in range(trunc[1], 7)
        for word in product((1, 2), repeat=w)
    ]
    measures = [empirical_measure(r, trunc) for r in rects]
    n = len(measures)
    dist = [[F(0)] * n for _ in range(n)]
    ok = True
    for i in range(n):
        if dstar(measures[i], measures[i], trunc).value != 0:
            ok = False
        for j in range(i + 1, n):
            dij = dstar(measures[i], measures[j], trunc).value
            dji = dstar(measures[j], measures[i], trunc).value
            if dij != dji:
                ok = False
            dist[i][j] = dist[j][i] = dij
    # triangle inequality over all ordered triples; float prefilter with an
    # exact recheck near equality
    fd = [[float(v) for v in row] for row in dist]
    for i in range(n):
        fi = fd[i]
        for j in range(n):
            fj = fd[j]
            dij = fi[j]
            for k in range(n):
                if fi[k] > dij + fj[k] + 1e-9:
                    if dist[i][k] > dist[i][j] + dist[j][k]:
                        ok = False
    if dstar(from_word("11"), from_word("12"), (1, 2)).value != F(1, 2):
        ok = False
    pm = point_mass(from_word("1"), (1, 2))
    if dstar(from_word("121"), pm, (1, 2)).value != F(5, 12):
        ok = False
    elapsed = time.monotonic() - t0
    report(3, ok and elapsed < 60)


def test_criterion_4_concatenation_bound():
    rng = random.Random(7)
    trunc = (1, 2)
    ok = True
    for _ in range(1000):
        q = rng.randint(2, 10)
        pieces = [
            Rectangle.from_rows(
                [[rng.randint(1, 2) for _ in range(rng.randint(100, 140))]]
            )
            for _ in range(q)
        ]
        glued = concat(pieces)
        n = glued.width
        measures = [empirical_measure(p, trunc) for p in pieces]
        lams = [F(p.width, n) for p in pieces]
        d = dstar(
            empirical_measure(glued, trunc),
            mixture(measures, lams),
            trunc,
        ).value
        # eps_i = 0: every piece is compared against its own measure
        if d > F(8 * q * trunc[1], n):
            ok = False
    report(4, ok)


STURMIAN_CONFIG = {
    "truncation": [1, 3],
    "gaps": [30, 8100],
    "depths": [1, 2],
    "epsilons": ["1/4", "1/8"],
    "columns": 24302,
    "tree": [
        {"families": [
            {"target": "sturmian:309017/500000",
             "samples": ["sturmian:309017/500000",
                         "sturmian:309017/500000:rho=1/3"]},
            {"target": "sturmian:719997/1000000",
             "samples": ["sturmian:719997/1000000",
                         "sturmian:719997/1000000:rho=1/3"]},
        ]},
        {"families": [
            {"target": "sturmian:190983/500000",
             "samples": ["sturmian:190983/500000",
                         "sturmian:190983/500000:rho=1/3"]},
            {"target": "sturmian:280003/1000000",
             "samples": ["sturmian:280003/1000000",
                         "sturmian:280003/1000000:rho=1/3"]},
        ]},
    ],
}


def test_criterion_5_purification_end_to_end():
    t0 = time.monotonic()
    rep = purify_pipeline(config_from_dict(STURMIAN_CONFIG))
    ok = rep["ok"] and rep["nesting_ok"]
    for stage_rep, eps in zip(rep["stages"], (F(1, 4), F(1, 8))):
        gamma = stage_rep["gamma"]
        for fam in stage_rep["families"].values():
            if not all(s["all_good_after"] for s in fam["samples"]):
                ok = False
            if fam["diameter"] > 3 * eps:
                ok = False
            if any(s["changed_fraction"] > 2 * gamma for s in fam["samples"]):
                ok = False
    elapsed = time.monotonic() - t0
    report(5, ok and elapsed < 300)


def test_criterion_6_stitching():
    kit = build_stitch_kit(parse_spec("full:2").oracle(10**6), 3, 50)
    ok = all(check_stitchable(kit, l)[0] for l in kit.l_sequence)
    # the substitution-oracle kit outcome is horizon-certified and frozen
    chacon = build_stitch_kit(parse_spec("chacon").oracle(600), 2, 200)
    if chacon.l_sequence != [4, 199]:
        ok = False
    if not all(check_stitchable(chacon, l)[0] for l in chacon.l_sequence):
        ok = False
    report(6, ok)


def test_criterion_7_embedding_roundtrip():
    t0 = time.monotonic()
    rng = random.Random(11)
    oracle = parse_spec("full:2").oracle(10**6)
    kit = build_stitch_kit(oracle, 3, 50)
    ok = True
    for trial in range(20):
        rows = 4
        word = "".join(rng.choice("01") for _ in range(120 + rows - 1))
        w = lift_binary(word, rows)
        if trial % 2 == 0:
            p = rng.choice([2, 3, 4])
            k = kit.level_for(p)
            start = rng.randint(0, 5)
            cuts = list(range(start, 110, p))
            out = embed_periodic(w, cuts, p, kit)
        else:
            l = rng.choice([2, 3])
            k = kit.level_for(l)
            ms = build_marker_system(110, 0, (l,))
            out = embed_aperiodic(w, ms, 1, kit)
        back = reconstruct(out, k)
        # rows above the embedding level are exactly the original rows, so
        # amalgamating them down is an exact inverse of the embedding there
        if back.cells[k:] != w.cells[k:]:
            ok = False
        rep = convergence_check(
            [("trial", back, 0, 100)], oracle, min(k, back.rows - 1) or 1
        )
        if not rep["ok"]:
            ok = False
    elapsed = time.monotonic() - t0
    report(7, ok and elapsed < 60)


def test_criterion_8_exceptional_detector():
    ok = (
        not detect_exceptional(PeriodSpec(frozenset({2, 4, 6}), all_periodic=True))
        and not detect_exceptional(
            PeriodSpec(frozenset(), "geometric(2)", all_periodic=True)
        )
        and detect_exceptional(
            PeriodSpec(frozenset(), "all_primes", all_periodic=True)
        )
    )
    report(8, ok)


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "truncation": [1, 2], "gaps": [3], "depths": [1],
                "epsilons": ["1/4"], "columns": 2000, "seed": 1,
                "tree": [
                    {"target": "periodic:0", "samples": ["periodic:0"]},
                    {"target": "periodic:1",
                     "samples": ["bernoulli:1/2:seed=7"]},
                ],
            }
        )
    )
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rc1 = cli_main(["purify", "--config", str(cfg), "--out", str(r1)])
    rc2 = cli_main(["purify", "--config", str(cfg), "--out", str(r2)])
    report(9, rc1 == 0 and rc2 == 0 and r1.read_bytes() == r2.read_bytes())
