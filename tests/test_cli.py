import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import strictform
import strictform.purify as purify
from strictform.arrays import lift_binary, write_arr
from strictform.cli import main
from strictform.markers import build_marker_system

from test_golden import NOISY_CONFIG

PURIFY_CONFIG = {
    "truncation": [1, 2],
    "gaps": [3],
    "depths": [1],
    "epsilons": ["1/4"],
    "columns": 2000,
    "tree": [
        {"target": "periodic:0", "samples": ["periodic:0"]},
        {"target": "periodic:1", "samples": ["bernoulli:1/2:seed=7"]},
    ],
}

# one config key replaced by a value of the wrong shape or range
MALFORMED_FIELDS = [
    ("truncation", [1]),
    ("truncation", None),
    ("truncation", [0, 2]),
    # wider than the first-stage gap 3, so no rectangle of width 3 fits it
    ("truncation", [1, 4]),
    ("gaps", 4),
    ("depths", None),
    ("columns", None),
    ("epsilons", None),
    ("tree", 5),
    ("tree", [3]),
    ("tree", [{"families": 3}]),
    ("tree", [{"target": 1, "samples": ["periodic:0"]}]),
    ("tree", [{"target": "periodic:0", "samples": 7}]),
    ("gammas", 5),
    # a JSON value of the wrong type is not coerced
    ("columns", 1.5),
    ("columns", True),
    ("columns", "2000"),
    ("gaps", [3, "81"]),
    ("truncation", [1.0, 2]),
    ("epsilons", [0.25]),
    ("epsilons", ["1/0"]),
    # tree nodes of the wrong JSON type
    ("tree", [{"target": "periodic:0", "samples": {"periodic:0": 1}}]),
    ("tree", [{"target": "periodic:0", "samples": ["periodic:0", 5]}]),
    ("tree", [{"families": {}}, *PURIFY_CONFIG["tree"]]),
    # values no run can use: nothing is good with gamma <= 0, and no top
    # marker row splits a column count that is not a*3 + b*4 with a, b >= 1
    ("gammas", ["0"]),
    ("gammas", ["-1/8"]),
    ("columns", 0),
    ("columns", -5),
    ("columns", 1),
    ("columns", 5),
    # no marker row has gaps of length 1 and 2
    ("gaps", [3, 1]),
]

_LEAVES = PURIFY_CONFIG["tree"]

# a malformed tree node -> the start of the message, which names its path
TREE_PATH_ERRORS = [
    ([{"target": "periodic:0", "samples": {"periodic:0": 1}}],
     "tree[0].samples: expected a list of spec strings, got {'periodic:0': 1}"),
    ([_LEAVES[0], {"target": "periodic:1", "samples": ["periodic:1", 5]}],
     "tree[1].samples[1]: expected a spec string, got 5"),
    ([{"families": {}}, *_LEAVES],
     "tree[0].families: expected a list of nodes, got {}"),
    ([{"families": [_LEAVES[0], dict(_LEAVES[1], samples={"periodic:0": 1})]}],
     "tree[0].families[1].samples: expected a list of spec strings, "
     "got {'periodic:0': 1}"),
    ([_LEAVES[0], dict(_LEAVES[1], target="periodic:2x")],
     "tree[1].target: bad generator spec 'periodic:2x'"),
    ([_LEAVES[0], dict(_LEAVES[1], target=None)],
     "tree[1].target: expected a spec string, got None"),
    ([3], "tree[0]: expected an object, got 3"),
    ({"target": "periodic:0"}, "tree: expected a list of nodes"),
    # an empty list would drop its targets from the separation silently
    ([dict(_LEAVES[0], samples=[]), _LEAVES[1]],
     "tree[0].samples: expected a non-empty list"),
    ([_LEAVES[0], {"families": []}],
     "tree[1].families: expected a non-empty list"),
    # a full shift is an oracle only: it generates no word to lift
    ([_LEAVES[0], dict(_LEAVES[1], target="full:2")],
     "tree[1].target: 'full:2' is an oracle and generates no words"),
    ([dict(_LEAVES[0], samples=["periodic:0", "full:2"]), _LEAVES[1]],
     "tree[0].samples[1]: 'full:2' is an oracle and generates no words"),
    # a sample or target must lift to a binary window of 2000 columns
    ([dict(_LEAVES[0], samples=["periodic:0", "periodic:2"]), _LEAVES[1]],
     "tree[0].samples[1]: 'periodic:2' is not a 0/1 word, so it has no lift"),
    ([_LEAVES[0], dict(_LEAVES[1], target="periodic:0120")],
     "tree[1].target: 'periodic:0120' is not a 0/1 word, so it has no lift"),
    ([_LEAVES[0], dict(_LEAVES[1], samples=["sturmian:1/2"])],
     "tree[1].samples[0]: 'sturmian:1/2' needs a denominator above the word "
     "length 2000 (columns + len(gaps) - 1)"),
    ([dict(_LEAVES[0], target="sturmian:1999/2000"), _LEAVES[1]],
     "tree[0].target: 'sturmian:1999/2000' needs a denominator above the "
     "word length 2000"),
    ([_LEAVES[0], dict(_LEAVES[1], target="sturmian:1/0")],
     "tree[1].target: bad generator spec 'sturmian:1/0'"),
]

def _without(key):
    return {k: v for k, v in PURIFY_CONFIG.items() if k != key}


# a config -> the start of its message, which names the stage rule it
# breaks or the field at fault
STAGE_ERRORS = [
    (dict(PURIFY_CONFIG, depths=[2]), "stage depth exceeds the marker hierarchy"),
    (dict(PURIFY_CONFIG, gaps=[3, 81], depths=[1, 2], epsilons=["1/4", "1/8"],
          columns=4 * 81 + 4 * 82),
     "leaf paths must match the number of stages"),
    # 4001 = 3*1000 + 1001 splits, but no row of 12 refines a gap of 1000
    (dict(PURIFY_CONFIG, gaps=[12, 1000], columns=4001),
     "gaps: gap sequence must grow: 1000 < 9*12^2"),
    ([PURIFY_CONFIG], "config: expected an object, got list"),
    (_without("tree"), "tree: a required field is missing"),
    (_without("columns"), "columns: a required field is missing"),
    # a depth of 0 names no marker row; the truncation is not at fault
    (dict(PURIFY_CONFIG, depths=[0]), "depths[0]: a stage depth must be at least 1"),
]


def write_config(tmp_path, data=PURIFY_CONFIG):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    return p


# a count below 1 on the command line is bad input, whatever the subcommand
COUNTS_BELOW_ONE = [
    ["assemble", "--oracle", "chacon", "--levels", "0"],
    ["assemble", "--oracle", "chacon", "--horizon", "0"],
    ["dstar", "--a", "a.arr", "--b", "a.arr", "--trunc", "0x2"],
    ["markers", "--gaps", "3", "--columns", "0"],
]


class TestArgparse:
    def test_unknown_flag_exits_2(self, capsys):
        assert main(["--frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["transmogrify"]) == 2
        capsys.readouterr()

    def test_missing_required_exits_2(self, capsys):
        assert main(["markers", "--gaps", "3"]) == 2
        capsys.readouterr()

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        COUNTS_BELOW_ONE,
        ids=[" ".join(a[:1] + a[-2:]) for a in COUNTS_BELOW_ONE],
    )
    def test_count_below_one_exits_2(self, argv, tmp_path, capsys, monkeypatch):
        # a readable window, so that only the count can make dstar exit 2
        monkeypatch.chdir(tmp_path)
        write_arr("a.arr", lift_binary("0110", 2))
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "strictform.cli", "--version"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0


def _child_env():
    # the child imports the package from wherever this process found it
    src = str(Path(strictform.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _imported(args, cwd):
    """Exit code and the names of the modules loaded by ``python -X
    importtime ARGS``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=_child_env(),
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "imported package" not in line
    }
    return proc.returncode, names


_COMMON = {"strictform", "strictform._value"}

# each command's argv, run in a directory holding the inputs written by
# _write_inputs, and the strictform modules it must load: only its own
STARTUP = {
    "version": (["--version"], {"strictform"}),
    "markers": (
        ["markers", "--columns", "703", "--gaps", "3,100"],
        _COMMON | {"strictform.markers"},
    ),
    "assemble": (
        ["assemble", "--oracle", "full:2", "--levels", "1", "--horizon", "8"],
        _COMMON | {f"strictform.{m}" for m in
                   ("arrays", "assemble", "generators")},
    ),
    "purify": (
        ["purify", "--config", "config.json"],
        _COMMON | {f"strictform.{m}" for m in
                   ("arrays", "generators", "markers", "measures", "purify")},
    ),
    "dstar": (
        ["dstar", "--a", "a.arr", "--b", "b.arr", "--trunc", "1x2"],
        _COMMON | {"strictform.arrays", "strictform.measures"},
    ),
    "verify": (
        ["verify", "--arr", "marked.arr"],
        _COMMON | {"strictform.arrays", "strictform.markers"},
    ),
    "report": (["report", "--input", "report.json"], {"strictform"}),
}


def _write_inputs(path):
    write_config(path)
    write_arr(path / "a.arr", lift_binary("0110", 2))
    write_arr(path / "b.arr", lift_binary("0010", 2))
    ms = build_marker_system(20, 0, (3,))
    write_arr(path / "marked.arr", lift_binary("0" * 20, 1), ms)
    (path / "report.json").write_text(json.dumps(_report_with_family(
        {"diameter": "1/2", "displacement_max": 0}
    )))


class TestStartup:
    """Each command loads only the strictform modules it runs, and no
    command pays for dataclasses or inspect at import."""

    @pytest.mark.parametrize("command", list(STARTUP))
    def test_loads_only_its_modules(self, command, tmp_path):
        argv, expected = STARTUP[command]
        _write_inputs(tmp_path)
        code, names = _imported(["-m", "strictform.cli", *argv], tmp_path)
        assert code == 0
        assert {n for n in names if n.split(".")[0] == "strictform"} == expected
        _, bare = _imported(["-c", "pass"], tmp_path)
        assert not {"dataclasses", "inspect"} & (names - bare)


class TestMarkers:
    def test_build_and_check(self, tmp_path, capsys):
        report = tmp_path / "markers.json"
        out = tmp_path / "markers.mrk"
        rc = main(
            [
                "markers", "--columns", "703", "--gaps", "3,100",
                "--out", str(out), "--report", str(report),
            ]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["checks"] == {
            "two_gaps": True, "congruency": True, "balanced": True,
        }
        assert data["config_sha256"]
        assert out.exists()
        capsys.readouterr()

    @pytest.mark.parametrize("gaps", ["x", "3,", "3;100"])
    def test_unparseable_gaps_exit_2(self, gaps, capsys):
        assert main(["markers", "--columns", "10", "--gaps", gaps]) == 2
        assert "config error" in capsys.readouterr().err

    def test_infeasible_gaps_exit_2(self, capsys):
        # gaps and a column count that no hierarchy can have are bad input
        for argv, message in [
            (["--columns", "100", "--gaps", "3,12"],
             "gaps: gap sequence must grow: 12 < 9*3^2"),
            (["--columns", "5", "--gaps", "3"], "gap 5 too short for pieces 3,4"),
            (["--columns", "10", "--gaps", "1"], "gaps: base gaps must be >= 2"),
        ]:
            assert main(["markers", *argv]) == 2, argv
            err = capsys.readouterr().err
            assert f"config error: bad marker hierarchy: {message}" in err, argv


class TestDstar:
    def test_prints_exact_fraction(self, tmp_path, capsys):
        a, b = tmp_path / "a.arr", tmp_path / "b.arr"
        write_arr(a, lift_binary("00", 1))
        write_arr(b, lift_binary("01", 1))
        rc = main(["dstar", "--a", str(a), "--b", str(b), "--trunc", "1x2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("1/2 ")
        assert lines[1].startswith("tail_bound ")

    def test_bad_truncation_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.arr"
        write_arr(a, lift_binary("00", 1))
        rc = main(["dstar", "--a", str(a), "--b", str(a), "--trunc", "oops"])
        assert rc == 2
        capsys.readouterr()

    # a truncation beyond a window's rows or columns is bad input
    @pytest.mark.parametrize(
        "word, rows, trunc, size",
        [("00", 1, "2x2", "1x2"), ("00000", 3, "1x5", "3x3")],
    )
    def test_oversized_truncation_exits_2(
        self, word, rows, trunc, size, tmp_path, capsys
    ):
        a = tmp_path / "a.arr"
        write_arr(a, lift_binary(word, rows))
        rc = main(["dstar", "--a", str(a), "--b", str(a), "--trunc", trunc])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"config error: bad --trunc: truncation {trunc} exceeds a "
            f"{size} rectangle"
        ]


class TestPurify:
    def test_runs_clean(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.json"
        assert main(["purify", "--config", str(cfg), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["ok"] is True and data["command"] == "purify"
        capsys.readouterr()

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["purify", "--config", str(cfg), "--out", str(r1)]) == 0
        assert main(["purify", "--config", str(cfg), "--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        capsys.readouterr()

    def test_missing_config_exits_2(self, capsys):
        assert main(["purify", "--config", "/nonexistent.json"]) == 2
        capsys.readouterr()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"truncation": [1, 2]}')
        assert main(["purify", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_out_of_range_spec_exits_2(self, tmp_path, capsys):
        tree = [{"target": "periodic:0", "samples": ["bernoulli:3/2:seed=1"]}]
        cfg = write_config(tmp_path, dict(PURIFY_CONFIG, tree=tree))
        assert main(["purify", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", MALFORMED_FIELDS,
        ids=[f"{k}={json.dumps(v)}" for k, v in MALFORMED_FIELDS],
    )
    def test_malformed_field_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, dict(PURIFY_CONFIG, **{key: value}))
        assert main(["purify", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tree, message", TREE_PATH_ERRORS,
        ids=[
            "samples_object", "sample_not_string", "families_object",
            "nested_samples_object", "bad_target_spec", "no_target",
            "node_not_object", "tree_object", "empty_samples", "empty_families",
            "full_target", "full_sample", "periodic_2_sample",
            "periodic_2_target", "sturmian_1_2_sample",
            "sturmian_denominator_at_length", "sturmian_zero_denominator",
        ],
    )
    def test_tree_error_names_json_path(self, tmp_path, capsys, tree, message):
        cfg = write_config(tmp_path, dict(PURIFY_CONFIG, tree=tree))
        assert main(["purify", "--config", str(cfg)]) == 2
        assert f"bad purify config: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message", STAGE_ERRORS,
        ids=["depth", "leaf_paths", "growth", "list", "no_tree", "no_columns",
             "depth_zero"],
    )
    def test_stage_rule_exits_2(self, tmp_path, capsys, config, message):
        cfg = write_config(tmp_path, config)
        assert main(["purify", "--config", str(cfg)]) == 2
        assert f"bad purify config: {message}" in capsys.readouterr().err

    def test_smallest_splittable_columns_runs(self, tmp_path, capsys):
        # 7 = 3 + 4 passes validation, so a failure comes from the run
        cfg = write_config(tmp_path, dict(PURIFY_CONFIG, columns=7))
        assert main(["purify", "--config", str(cfg)]) == 1
        assert "invariant failure: no good rectangle" in capsys.readouterr().err

    def test_gamma_override_is_the_stage_gamma(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(PURIFY_CONFIG, gammas=["1/8"]))
        out = tmp_path / "report.json"
        assert main(["purify", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["stages"][0]["gamma"] == "1/8"
        capsys.readouterr()

    def test_failed_nesting_fails_the_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(purify, "check_nesting", lambda *a: False)
        cfg = write_config(tmp_path, NOISY_CONFIG)
        out = tmp_path / "report.json"
        assert main(["purify", "--config", str(cfg), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["nesting_ok"] is False and report["ok"] is False
        capsys.readouterr()

    def test_stdout_report_is_sorted_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["purify", "--config", str(cfg)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert list(data) == sorted(data)


def _nodes(value, path=()):
    """Every (path, value) pair of a JSON value, the value itself first."""
    yield path, value
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


_NOISY_NODES = list(_nodes(NOISY_CONFIG))
_DELETE = object()

# small integers and the config's own values keep every job within the
# golden config's size; the rest change a value's JSON type
_REPLACEMENTS = st.one_of(
    st.integers(-1, 7),
    st.sampled_from(sorted({v for _, v in _NOISY_NODES if type(v) is int})),
    st.sampled_from(sorted({v for _, v in _NOISY_NODES if type(v) is str})),
    st.sampled_from([None, True, 0.5, "", "x", "1/0", "-1/2", [], {}, _DELETE]),
    st.lists(st.integers(-1, 7), max_size=3),
)
_MUTATIONS = st.lists(
    st.tuples(st.sampled_from([p for p, _ in _NOISY_NODES[1:]]), _REPLACEMENTS),
    min_size=1,
    max_size=3,
)


def _mutated(config, mutations):
    """The config with each value at a path replaced or deleted; a path that
    an earlier mutation removed is skipped."""
    config = copy.deepcopy(config)
    for (*parents, last), value in mutations:
        node = config
        try:
            for key in parents:
                node = node[key]
            if value is _DELETE:
                del node[last]
            else:
                node[last] = copy.deepcopy(value)
        except (LookupError, TypeError):
            pass
    return config


class TestPurifyFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_MUTATIONS)
    def test_mutated_config_exits_cleanly(self, mutations):
        # whatever one to three values of a working config become, purify
        # exits 0, 1 or 2 with at most one line on stderr
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
            cfg.write_text(json.dumps(_mutated(NOISY_CONFIG, mutations)))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["purify", "--config", str(cfg), "--out", str(out)])
        assert rc in (0, 1, 2)
        assert len(err.getvalue().splitlines()) <= 1


class TestAssemble:
    def test_full_shift_kit(self, tmp_path, capsys):
        report = tmp_path / "kit.json"
        out = tmp_path / "fs.kit"
        rc = main(
            [
                "assemble", "--oracle", "full:2", "--levels", "2",
                "--horizon", "20", "--out", str(out), "--report", str(report),
            ]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["outcome"] == "ok"
        assert data["l_sequence"] == [2, 3]
        assert all(v["stitchable"] for v in data["stitchable"].values())
        assert out.exists()
        capsys.readouterr()

    def test_periodic_has_no_transition(self, tmp_path, capsys):
        report = tmp_path / "kit.json"
        rc = main(
            [
                "assemble", "--oracle", "periodic:01", "--levels", "1",
                "--horizon", "21", "--report", str(report),
            ]
        )
        assert rc == 1
        data = json.loads(report.read_text())
        assert data["outcome"] == "not_found_within_horizon"
        capsys.readouterr()

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus", "full", "periodic:", "chacon:3",
            "full:0", "full:10", "bernoulli:2", "bernoulli:0", "sturmian:3/2",
            "sturmian:1/0", "sturmian:1/3:rho=1/0", "bernoulli:1/0:seed=1",
            # these parse, but a stitch kit needs a binary base language
            "periodic:2", "full:1",
        ],
    )
    def test_unparseable_oracle_exits_2(self, spec, capsys):
        assert main(["assemble", "--oracle", spec]) == 2
        assert "config error" in capsys.readouterr().err

    def test_tab_below_l1_reported(self, tmp_path, capsys):
        report = tmp_path / "kit.json"
        rc = main(
            [
                "assemble", "--oracle", "periodic:011", "--levels", "2",
                "--horizon", "30", "--tab", "8", "--report", str(report),
            ]
        )
        assert rc == 1
        data = json.loads(report.read_text())
        assert data["outcome"] == "failed"
        assert data["l_sequence"][0] > 8
        assert data["stitchable"]["8"]["outcome"] == "below_l1"
        capsys.readouterr()

    def test_unparseable_tab_exits_2(self, capsys):
        rc = main(
            [
                "assemble", "--oracle", "chacon", "--levels", "1",
                "--horizon", "64", "--tab", "x",
            ]
        )
        assert rc == 2
        capsys.readouterr()


# case -> (file text, the line the error names)
MALFORMED_ARR = {
    "short_file": ("2 3 0\n2 4\n", 1),
    "short_header": ("2 3 0\n2 4\n1 2 1\n1 2 3\n", 1),
    "unknown_mode": ("1 3 0 bogus\n2\n1 2 1\n", 1),
    # a header of no rows is at fault itself, not the lines after it
    "zero_rows": ("0 3 0 independent\n2\n1 2 1\n", 1),
    "missing_rows": ("2 3 0 independent\n2 4\n1 2 1\n", 1),
    "bad_token": ("1 3 0 independent\n2\n1 x 1\n", 3),
    "bare_bar": ("1 3 0 independent\n2\n1 | 1\n", 3),
    "float_token": ("1 3 0 independent\n2\n1 2.0 1\n", 3),
    # blank lines are skipped but still counted
    "bad_token_after_blank": ("1 3 0 independent\n\n2\n\n1 x 1\n", 5),
    # inverse-limit windows are judged by the canonical map, which fixes
    # the sizes
    "noncanonical_sizes": ("2 3 0 inverse_limit\n2 3\n1 2 2\n1 3 2\n", 2),
    "zero_size": ("1 3 0 independent\n0\n1 1 1\n", 2),
    "negative_size": ("1 3 0 independent\n-2\n1 1 1\n", 2),
    # the error names the first line after the K rows
    "extra_line": ("1 3 0 independent\n2\n1 2 1\njunk here\n", 4),
}


class TestMalformedArr:
    @pytest.mark.parametrize("case", sorted(MALFORMED_ARR))
    def test_verify_exits_2(self, case, tmp_path, capsys):
        text, line = MALFORMED_ARR[case]
        p = tmp_path / "w.arr"
        p.write_text(text)
        assert main(["verify", "--arr", str(p)]) == 2
        assert f"config error: bad .arr file: {p}: line {line}: " in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("case", sorted(MALFORMED_ARR))
    def test_dstar_exits_2(self, case, tmp_path, capsys):
        text, line = MALFORMED_ARR[case]
        good, bad = tmp_path / "a.arr", tmp_path / "b.arr"
        write_arr(good, lift_binary("00", 1))
        bad.write_text(text)
        rc = main(["dstar", "--a", str(good), "--b", str(bad), "--trunc", "1x2"])
        assert rc == 2
        assert f"config error: bad .arr file: {bad}: line {line}: " in (
            capsys.readouterr().err
        )


class TestVerify:
    def test_valid_arr_passes(self, tmp_path, capsys):
        ms = build_marker_system(20, 0, (3,))
        p = tmp_path / "w.arr"
        write_arr(p, lift_binary("0" * 20, 1), ms)
        assert main(["verify", "--arr", str(p)]) == 0
        out = capsys.readouterr().out
        assert "window_valid: pass" in out
        assert "two_gaps: pass" in out

    def test_bad_symbol_fails(self, tmp_path, capsys):
        p = tmp_path / "w.arr"
        p.write_text("1 3 0 independent\n2\n1 3 1\n")
        assert main(["verify", "--arr", str(p)]) == 1
        assert "window_valid: fail" in capsys.readouterr().out

    # an independent window is judged by its sizes only, so they may
    # decrease; a cell above its own row's size still fails
    def test_decreasing_sizes_pass(self, tmp_path, capsys):
        p = tmp_path / "w.arr"
        p.write_text("2 3 0 independent\n4 2\n1 2 1\n1 2 1\n")
        assert main(["verify", "--arr", str(p)]) == 0
        assert "window_valid: pass" in capsys.readouterr().out

    def test_decreasing_sizes_cell_over_smaller_alphabet_fails(
        self, tmp_path, capsys
    ):
        p = tmp_path / "w.arr"
        p.write_text("2 3 0 independent\n4 2\n1 4 1\n1 3 1\n")
        assert main(["verify", "--arr", str(p)]) == 1
        assert "window_valid: fail" in capsys.readouterr().out

    def test_blank_lines_skipped(self, tmp_path, capsys):
        p = tmp_path / "w.arr"
        p.write_text("1 3 0 independent\n\n2\n  \n1 2 1\n\n")
        assert main(["verify", "--arr", str(p)]) == 0
        assert "window_valid: pass" in capsys.readouterr().out

    def test_missing_rows_reported(self, tmp_path, capsys):
        p = tmp_path / "w.arr"
        p.write_text("2 3 0 independent\n2 4\n1 2 1\n")
        assert main(["verify", "--arr", str(p)]) != 0
        assert "header claims 2 rows, found 1" in capsys.readouterr().err


def _report_with_family(fam):
    return {"stages": [{"families": {"1": dict(fam, samples=[])}}]}


class TestReport:
    def test_csv_from_purify_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rep = tmp_path / "report.json"
        assert main(["purify", "--config", str(cfg), "--out", str(rep)]) == 0
        csv_out = tmp_path / "plot.csv"
        assert main(["report", "--input", str(rep), "--out", str(csv_out)]) == 0
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "x,y,series"
        assert any("changed:bernoulli:1/2:seed=7" in l for l in lines[1:])
        capsys.readouterr()

    def test_missing_input_exits_2(self, capsys):
        assert main(["report", "--input", "/nonexistent.json"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "data",
        [
            [1, 2],
            _report_with_family({"displacement_max": "0/1"}),
            _report_with_family({"diameter": "wide", "displacement_max": 0}),
            _report_with_family({"diameter": "1/0", "displacement_max": 0}),
            # a purify config has no stages
            PURIFY_CONFIG,
        ],
        ids=["list", "no_diameter", "word_diameter", "zero_denominator",
             "purify_config"],
    )
    def test_not_a_purify_report_exits_2(self, tmp_path, capsys, data):
        rep = tmp_path / "report.json"
        rep.write_text(json.dumps(data))
        assert main(["report", "--input", str(rep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: not a purify report")
