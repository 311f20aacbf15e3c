"""Byte-for-byte guards on CLI reports.

Each case runs one small CLI job in-process and compares its exit code and
the SHA-256 of its report file (of stdout for `dstar`) with those recorded
before the purify, markers, generator, lag-search and measure refactors.
Two cases also hash the `.mrk` or `.kit` file that their `--out` writes.  A
refactor that changes any report byte (a verdict, a census, a fraction, a
key) fails here, so update a hash only for a deliberate change of behaviour.
"""

import hashlib
import json

import pytest

from strictform.cli import main

_STURMIAN = ("309017/500000", "190983/500000")

# two Sturmian families: every rectangle is good, nothing is replaced
CLEAN_CONFIG = {
    "truncation": [1, 3],
    "gaps": [8, 576],
    "depths": [1, 2],
    "epsilons": ["1/4", "1/8"],
    "columns": 2 * 576 + 2 * 577,
    "tree": [
        {"families": [
            {"target": f"sturmian:{a}",
             "samples": [f"sturmian:{a}", f"sturmian:{a}:rho={rho}"]},
        ]}
        for a, rho in zip(_STURMIAN, ("1/3", "2/7"))
    ],
}

# periodic targets with Bernoulli samples: both stages replace columns
NOISY_CONFIG = {
    "truncation": [1, 2],
    "gaps": [5, 225],
    "depths": [1, 2],
    "epsilons": ["1/2", "1/4"],
    "columns": 4 * 225 + 4 * 226,
    "tree": [
        {"families": [
            {"target": "periodic:0",
             "samples": ["periodic:0", "bernoulli:1/4:seed=1"]},
            {"target": "periodic:0011", "samples": ["periodic:0011"]},
        ]},
        {"families": [
            {"target": "periodic:1",
             "samples": ["periodic:1", "bernoulli:3/4:seed=2"]},
            {"target": "periodic:1101",
             "samples": ["periodic:1101", "bernoulli:2/3:seed=3"]},
        ]},
    ],
}

# three-row hierarchy purified at depths 2 and 3: each depth-3 gap spans
# markers of rows 1 and 2, and the nesting check cuts each fine gap at the
# row-2 markers of its width
DEEP_CONFIG = {
    "truncation": [1, 2],
    "gaps": [2, 36, 11664],
    "depths": [2, 3],
    "epsilons": ["1/2", "1/4"],
    "columns": 46658,
    "tree": [
        {"families": [
            {"target": "periodic:0",
             "samples": ["periodic:0", "bernoulli:1/8:seed=1"]},
            {"target": "periodic:001",
             "samples": ["periodic:001", "bernoulli:1/4:seed=4"]},
        ]},
        {"families": [
            {"target": "periodic:1",
             "samples": ["periodic:1", "bernoulli:7/8:seed=2"]},
            {"target": "periodic:011", "samples": ["periodic:011"]},
        ]},
    ],
}

# case -> (exit code, report SHA-256)
GOLDEN = {
    "purify-clean": (
        0, "303aaa002654f4e4dc62805cdb35c443472500a03aef29f5c9e94cb1dc25dbf6"
    ),
    "purify-noisy": (
        0, "a8e4dd35b14d4aa091cc311b9f4a0446e5d3a6ef1763e1bf67688b3e9bf4b331"
    ),
    "purify-deep": (
        0, "467ea7ac8c1251539fdc3f4592c596ae1e167fa7eafd7c2b14df2191c1889b93"
    ),
    "assemble-chacon": (
        0, "2fdc74efa8a2a8a53014b864307a4e0d68fd3fe2c0a5151ba79688299b712fc8"
    ),
    "assemble-chacon-2-300": (
        0, "1d02df8da2b87382ee53def2a5db06710d05a1b17f4a0b726610940a64129235"
    ),
    # gap 64 needs a witness of length 66, beyond the oracle horizon
    "assemble-chacon-no-witness": (
        1, "24b18db993aec9c65d767a2a793a2705b72d6e88fe06d30d1be4d1b204aa4a14"
    ),
    # the level-3 base word has length 8, so gaps 9 and 10 are zero-filled
    "assemble-full-gap-fill": (
        0, "7ca32f74a987a2404c1bf50c92bd066803b6cca102efd4b4a91ff45c9ee99932"
    ),
    "markers": (
        0, "41ac474762257e21d497b800e1f92cf7597975d6dcfd8cdc824cee05ef413efa"
    ),
    # three rows [24001, 1601, 6]: two levels of refinement below the top
    "markers-3row": (
        0, "de04b5e6f8c6470b4cd3fd331bce9d7a6f3981b236612f59d71368aaf171faeb"
    ),
}

# case -> SHA-256 of the file its --out flag writes (.mrk or .kit), which
# no command reads back
OUT_GOLDEN = {
    "markers":
        "58bd413465cb3aa928cd2875a60a061cae0ab6135216784be709517309129140",
    "assemble-chacon-2-300":
        "263518980c49ffe29d1596bf5965efc742b46e627640f6cdd1994de5cbfed905",
}

_CLI_ARGV = {
    "assemble-chacon": [
        "assemble", "--oracle", "chacon", "--levels", "1",
        "--horizon", "64", "--report",
    ],
    "assemble-chacon-2-300": [
        "assemble", "--oracle", "chacon", "--levels", "2",
        "--horizon", "300", "--report",
    ],
    "assemble-chacon-no-witness": [
        "assemble", "--oracle", "chacon", "--levels", "1",
        "--horizon", "64", "--tab", "64", "--report",
    ],
    "assemble-full-gap-fill": [
        "assemble", "--oracle", "full:2", "--levels", "3",
        "--horizon", "50", "--tab", "9", "--report",
    ],
    "markers": [
        "markers", "--columns", "4000", "--origin", "7",
        "--gaps", "3,81", "--report",
    ],
    "markers-3row": [
        "markers", "--columns", "58323", "--origin", "-3",
        "--gaps", "2,36,11664", "--report",
    ],
}


def _purify_argv(config: dict, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, sort_keys=True, indent=1))
    return ["purify", "--config", str(path), "--out"]


def _argv(case: str, tmp_path) -> list[str]:
    if case == "purify-clean":
        return _purify_argv(CLEAN_CONFIG, tmp_path)
    if case == "purify-noisy":
        return _purify_argv(NOISY_CONFIG, tmp_path)
    if case == "purify-deep":
        return _purify_argv(DEEP_CONFIG, tmp_path)
    return _CLI_ARGV[case]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_bytes_unchanged(case, tmp_path):
    out = tmp_path / "report.json"
    argv = _argv(case, tmp_path) + [str(out)]
    if case in OUT_GOLDEN:
        argv += ["--out", str(tmp_path / "out")]
    code = main(argv)
    assert (code, _sha256(out)) == GOLDEN[case]
    if case in OUT_GOLDEN:
        assert _sha256(tmp_path / "out") == OUT_GOLDEN[case]


# two fixed 2-row windows for the dstar command, which prints to stdout
DSTAR_WINDOWS = {
    "a.arr": "2 15 0 inverse_limit\n2 4\n"
    "1 2 1 1 2 2 1 2 1 2 2 2 1 1 2\n2 3 1 2 4 3 2 3 2 4 4 3 1 2 3\n",
    "b.arr": "2 15 0 inverse_limit\n2 4\n"
    "1 1 2 2 1 2 1 1 2 2 2 1 1 2 1\n1 2 4 3 2 3 1 2 4 4 3 1 2 3 2\n",
}
DSTAR_GOLDEN = (
    0, "0e15dd6cc1710166efafb5185772c0a4395d6933faec8f9588d29036391f8e86"
)


def test_dstar_stdout_unchanged(tmp_path, capsys):
    for name, text in DSTAR_WINDOWS.items():
        (tmp_path / name).write_text(text)
    a, b = tmp_path / "a.arr", tmp_path / "b.arr"
    code = main(["dstar", "--a", str(a), "--b", str(b), "--trunc", "2x3"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == DSTAR_GOLDEN
