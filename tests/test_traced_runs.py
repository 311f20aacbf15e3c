"""Benchmark jobs run under the span tracer, as the benchmark runs them.

``perfbench/tracer.py``, run as a script, executes one CLI job in its own
process under its span tracer.  A traced job counts as correct when it exits
0, writes the same report bytes as the untraced job, gives the verdict pinned
in ``perfbench/pinned.json`` and nests its spans, so that no span's self time
is negative.  These tests only read ``perfbench/``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    # a benchmark module, registered before it runs, as the dataclass of
    # workloads.py needs; no bytecode is written next to the benchmark's files
    spec = importlib.util.spec_from_file_location(
        f"_strictform_{name}", PERFBENCH / f"{name}.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=300
    )


@pytest.mark.parametrize("name", ["assemble-chacon", "purify-noisy"])
def test_traced_job_is_correct(name, tmp_path):
    workload = _load("workloads").WORKLOADS[name]
    pinned = workload.pinned(0)
    out = tmp_path / "report.json"
    argv = workload.argv(pinned["inputs"], tmp_path, out)

    untraced = _python(["-m", "strictform.cli", *argv], tmp_path)
    assert untraced.returncode == 0, untraced.stderr
    expected = out.read_bytes()
    out.unlink()

    prefix = str(tmp_path / "trace")
    traced = _python([str(PERFBENCH / "tracer.py"), prefix, *argv], tmp_path)
    assert traced.returncode == 0, traced.stderr
    result = json.loads(Path(prefix + ".json").read_text())
    assert result["exit"] == 0
    data = out.read_bytes()
    assert data == expected
    assert workload.check(json.loads(data), pinned["verdict"]) is None

    lines = Path(prefix + ".spans.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert len(spans) == result["spans"] > 0
    # the tracer's own arithmetic on the spans read back: the sum of |self
    # time| equals the summed root durations only if no self time is negative
    tracer = _load("tracer").Tracer()
    tracer.spans = [[s["name"], s["start"], s["end"], s["parent"]] for s in spans]
    _, self_sum = tracer.self_times()
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
    assert self_sum == pytest.approx(result["self_sum_s"], rel=1e-12)
    assert self_sum == pytest.approx(roots, rel=1e-12, abs=1e-9)
