"""The four benchmark workloads: their inputs, verdicts and properties.

Every workload keeps a short list of input variants in ``pinned.json``,
together with the verdict the program gave for each when it was pinned.  The
benchmark seed picks a variant (``seed % len(variants)``), so the same seed
always gives the same input and the program only ever sees the generated
config file or argv.

Only verdict fields are pinned, never report bytes: a report may gain fields
without tripping the benchmark, while a changed decision does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PINNED = Path(__file__).with_name("pinned.json")

# Job sizes are chosen so that one job takes 2-3 s on a 2-vCPU host: the
# host's speed swings by +-20 % over seconds, and the median of many jobs per
# run is steadier than that of a few long ones (see README.md).

# The four Sturmian families and the truncation and epsilons of the
# acceptance purify configuration (tests/test_acceptance.py), on the gaps and
# width of the noisy workload; the variant sets the rotation offset rho of
# each leaf's second sample.
STURMIAN_ALPHAS = ("309017/500000", "719997/1000000", "190983/500000", "280003/1000000")

# Two families of two periodic targets; each leaf also gets a Bernoulli
# sample, drawn with the given probability, that stage 1 must repair.
NOISY_LEAVES = (("0", "1/4"), ("0011", "1/3"), ("1", "3/4"), ("1101", "2/3"))

PURIFY_GAPS = [12, 1296]
PURIFY_COLUMNS = 2 * 1296 + 2 * 1297

MARKER_GAPS = "2,36,11664"
MARKER_COLUMNS = 30 * 11664 + 30 * 11665


def _tree(leaves: list[dict]) -> list[dict]:
    return [{"families": leaves[:2]}, {"families": leaves[2:]}]


def sturmian_config(rho: str) -> dict:
    leaves = [
        {"target": f"sturmian:{a}", "samples": [f"sturmian:{a}", f"sturmian:{a}:rho={rho}"]}
        for a in STURMIAN_ALPHAS
    ]
    return {
        "truncation": [1, 3],
        "gaps": PURIFY_GAPS,
        "depths": [1, 2],
        "epsilons": ["1/4", "1/8"],
        "columns": PURIFY_COLUMNS,
        "tree": _tree(leaves),
    }


def noisy_config(seeds: list[int]) -> dict:
    leaves = [
        {"target": f"periodic:{word}",
         "samples": [f"periodic:{word}", f"bernoulli:{p}:seed={n}"]}
        for (word, p), n in zip(NOISY_LEAVES, seeds)
    ]
    return {
        "truncation": [1, 2],
        "gaps": PURIFY_GAPS,
        "depths": [1, 2],
        "epsilons": ["1/2", "1/4"],
        "columns": PURIFY_COLUMNS,
        "tree": _tree(leaves),
    }


# -- verdicts ----------------------------------------------------------------


def purify_verdict(report: dict) -> dict:
    return {
        "ok": report["ok"],
        "nesting_ok": report["nesting_ok"],
        "census": [
            {path: fam["census"] for path, fam in stage["families"].items()}
            for stage in report["stages"]
        ],
        "changed_columns": [
            c["changed_columns_per_stage"] for c in report["cumulative_changes"]
        ],
    }


def assemble_verdict(report: dict) -> dict:
    return {
        "outcome": report["outcome"],
        "l_sequence": report["l_sequence"],
        "transition_lengths": report["transition_lengths"],
        "stitchable": {l: s.get("stitchable") for l, s in report["stitchable"].items()},
    }


def markers_verdict(report: dict) -> dict:
    return {"checks": report["checks"], "rows": report["rows"]}


def sturmian_property(report: dict) -> str | None:
    """Read-only path: no stage may replace a column."""
    changed = sum(c["changed_columns_total"] for c in report["cumulative_changes"])
    return None if changed == 0 else f"sturmian run replaced {changed} columns"


def noisy_property(report: dict) -> str | None:
    """Write path: stage 1 must replace columns."""
    changed = sum(c["changed_columns_per_stage"][0] for c in report["cumulative_changes"])
    return None if changed > 0 else "noisy run replaced no stage-1 column"


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    # (variant inputs, work dir, report path) -> strictform argv
    argv: Callable[[dict, Path, Path], list[str]]
    verdict: Callable[[dict], dict]
    prop: Callable[[dict], str | None] | None = None

    def pinned(self, seed: int) -> dict:
        """The pinned variant ``{"inputs": ..., "verdict": ...}`` for a seed."""
        variants = json.loads(PINNED.read_text())[self.name]
        return variants[seed % len(variants)]

    def check(self, report: dict, verdict: dict | None) -> str | None:
        """None when the report holds the workload's property and, if one is
        given, the pinned verdict."""
        if verdict is not None and self.verdict(report) != verdict:
            return f"verdict {json.dumps(self.verdict(report))} differs from the pinned one"
        return self.prop(report) if self.prop else None


def _purify_argv(config: dict, work: Path, out: Path) -> list[str]:
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=1))
    return ["purify", "--config", str(path), "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "purify-sturmian",
            lambda v, work, out: _purify_argv(sturmian_config(v["rho"]), work, out),
            purify_verdict,
            sturmian_property,
        ),
        Workload(
            "purify-noisy",
            lambda v, work, out: _purify_argv(noisy_config(v["seeds"]), work, out),
            purify_verdict,
            noisy_property,
        ),
        Workload(
            "assemble-chacon",
            lambda v, work, out: [
                "assemble", "--oracle", "chacon", "--levels", str(v["levels"]),
                "--horizon", str(v["horizon"]), "--report", str(out),
            ],
            assemble_verdict,
        ),
        Workload(
            "markers-3row",
            lambda v, work, out: [
                "markers", "--columns", str(MARKER_COLUMNS), "--gaps", MARKER_GAPS,
                "--origin", str(v["origin"]), "--report", str(out),
            ],
            markers_verdict,
        ),
    )
}

# Inputs offered to pin.py; pinned.json keeps those whose runs satisfied the
# workload's property and exited 0.
CANDIDATES = {
    "purify-sturmian": [
        {"rho": r} for r in ("1/3", "2/7", "1/5", "3/8", "2/9", "4/11", "5/13", "3/10")
    ],
    "purify-noisy": [{"seeds": [4 * i + j for j in range(1, 5)]} for i in range(8)],
    "assemble-chacon": [{"levels": 1, "horizon": 64}],
    "markers-3row": [
        {"origin": o} for o in (0, 1, -7, 12345, -99991, 500000, 3, -1)
    ],
}
