"""strictform benchmark: batch CLI jobs timed end to end, and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload purify-noisy --seed 1 --seconds 33 --trace 0
    python3 perfbench/run.py --workload all --seconds 240 --trace 0

Closed loop, one client: a single benchmark process starts one ``strictform``
job at a time as a child process (``python3 -m strictform.cli`` on the
checkout's ``src``) and waits for it to exit before starting the next.  With
``--workload all`` the jobs of the four workloads are interleaved round-robin,
because the host's speed drifts over minutes.

``--trace 0`` reports, per workload, the end-to-end metrics named in
``BENCHMARK.json``:

* ``wall_s``: median wall time of one job, from spawn to exit;
* ``peak_rss_mb``: median peak resident memory of a job (``os.wait4``);
* ``setup_s``: median start-up of a fresh process, timed as
  ``strictform --version`` (interpreter plus import of all seven modules),
  two samples before every job.

The host's speed drifts by tens of percent over minutes, so both times are
given in reference seconds.  ``REFERENCE`` is a fixed pure-Python loop that
uses no strictform code; it runs in a child process before and after every
job, and the job's wall and start-up times are multiplied by ``REFERENCE_S``
over the mean of those two loop times.  The metrics are the medians of the
scaled times.  A change to strictform moves them exactly as it moves the raw
times; a slow phase of the host slows the loop with the job.  The benchmark
and its jobs are pinned to one CPU, so the loop and the jobs run on the same
one.  The summary lines give the raw times too.

Each job's exit code and verdict are checked against ``pinned.json``; a
failed job counts in ``failed`` and the run is not ``correct``.  Reports of
the jobs in one run must also be byte-identical.  The error rate
(``failed / attempted``) is printed on the summary line.

``--trace 1`` alternates an untraced job with a traced one, in which
``tracer.py`` calls ``strictform.cli.main`` in its own process under
``tracer.Tracer``, and reports the per-layer metrics.  It checks that tracing
changes no report byte and that the span self times, none negative, add up
to the traced wall within ``SELF_SUM_TOLERANCE``.  ``trace.overhead_s`` is
the traced ``main`` call's wall minus the untraced job's wall less the
median start-up time.  Spans are written to ``.perfbench_work/<workload>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_PER_JOB = 2
SELF_SUM_TOLERANCE = 0.01
# A fixed program of the operations strictform spends its time on: int
# arithmetic, tuple keys, dict counting and a sort over a 200k list.  It
# prints the time its loop takes.  It runs as a child process so that its
# memory does not raise the benchmark's own resident size: a child's peak
# RSS, as wait4 reports it, is never below its parent's RSS at the fork.
REFERENCE = """
from time import perf_counter
start = perf_counter()
xs = [(i * 2654435761) % 1000003 for i in range(200_000)]
counts = {}
for x in xs:
    key = (x & 4095, x >> 12)
    counts[key] = counts.get(key, 0) + 1
xs.sort()
wall = perf_counter() - start
assert sum(counts.values()) == len(xs) and xs[0] <= xs[-1]
print(wall)
"""
# The time the reference loop takes on a host of nominal speed: a 2-vCPU
# Intel Xeon at 2.1 GHz under a hypervisor, Python 3.11.7.
REFERENCE_S = 0.2


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU (children inherit)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def spawn(args: list[str], cwd: Path) -> tuple[int, float, float]:
    """Run ``python3 ARGS`` with the checkout's ``src`` on the path; return
    (exit code, wall s, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(cwd / "stderr.txt", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def strictform(argv: list[str], cwd: Path) -> tuple[int, float, float]:
    return spawn(["-m", "strictform.cli", *argv], cwd)


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4f} [q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}]"


class Run:
    """The jobs of one workload in one benchmark run, with their checks."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.pinned = workload.pinned(seed)
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.out = self.dir / "report.json"
        self.argv = workload.argv(self.pinned["inputs"], self.dir, self.out)
        self.report_bytes: bytes | None = None
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.setups: list[float] = []
        self.refs: list[float] = []
        # the same walls and setups in reference seconds
        self.ref_walls: list[float] = []
        self.ref_setups: list[float] = []
        self.attempted = self.failed = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"{self.workload.name}: FAILED: {why}", file=sys.stderr)

    def setup(self, samples: int) -> list[float]:
        walls = []
        for _ in range(samples):
            code, wall, _ = strictform(["--version"], self.dir)
            if code != 0:
                raise SystemExit(f"strictform --version exited {code}")
            walls.append(wall)
        self.setups.extend(walls)
        return walls

    def reference(self) -> float:
        out = subprocess.run([sys.executable, "-c", REFERENCE], cwd=self.dir,
                             capture_output=True, text=True, check=True)
        self.refs.append(float(out.stdout))
        return self.refs[-1]

    def check(self, code: int) -> bytes | None:
        """Check the report just written against the pinned verdict and the
        first report of this run; return its bytes."""
        self.attempted += 1
        if code != 0:
            err = (self.dir / "stderr.txt").read_text(errors="replace")[-400:]
            self.fail(f"exit {code}: {err}")
            return None
        data = self.out.read_bytes()
        self.out.unlink()
        problem = self.workload.check(json.loads(data), self.pinned["verdict"])
        if problem is None and self.report_bytes not in (None, data):
            problem = "report bytes differ from the first report of the run"
        if problem:
            self.fail(problem)
            return None
        self.report_bytes = self.report_bytes or data
        return data

    def warm_up(self) -> None:
        """One untimed start-up: byte-compiles the modules, fills the cache."""
        strictform(["--version"], self.dir)

    def job(self) -> tuple[float, bytes | None]:
        before = self.reference()
        setups = self.setup(SETUP_PER_JOB)
        code, wall, rss = strictform(self.argv, self.dir)
        # raw seconds to reference seconds, at the host's speed around this job
        scale = REFERENCE_S / ((before + self.reference()) / 2)
        self.walls.append(wall)
        self.ref_walls.append(wall * scale)
        self.ref_setups.extend(s * scale for s in setups)
        self.rss.append(rss)
        return wall, self.check(code)

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": statistics.median(self.ref_walls),
            "peak_rss_mb": statistics.median(self.rss),
            "setup_s": statistics.median(self.ref_setups),
        }

    def summary(self) -> str:
        return (
            f"{self.workload.name}: raw wall {quartiles(self.walls)} s; "
            f"peak_rss_mb {quartiles(self.rss)} MB; "
            f"raw setup {quartiles(self.setups)} s; "
            f"reference loop {quartiles(self.refs)} s; "
            f"error_rate {self.failed}/{self.attempted}"
        )


def measure(runs: list[Run], seconds: float) -> None:
    """Round-robin one job per workload until the next round would overrun."""
    deadline = perf_counter() + seconds
    for run in runs:
        run.warm_up()
    while True:
        start = perf_counter()
        for run in runs:
            run.job()
        if perf_counter() + (perf_counter() - start) > deadline:
            return


def trace(run: Run, seconds: float) -> dict[str, float]:
    """Alternate untraced and traced jobs; return median per-layer metrics."""
    run.warm_up()
    deadline = perf_counter() + seconds
    samples: list[dict[str, float]] = []
    while True:
        start = perf_counter()
        untraced, _ = run.job()
        prefix = str(run.dir / f"trace-{len(samples) + 1}")
        code, _, _ = spawn([str(HERE / "tracer.py"), prefix, *run.argv], run.dir)
        # check() compares the traced report's bytes with the run's first
        # report, which an untraced job wrote
        if run.check(code) is not None:
            traced = json.loads(Path(prefix + ".json").read_text())
            wall = traced["wall_s"]
            gap = abs(traced["self_sum_s"] - wall) / wall
            if gap > SELF_SUM_TOLERANCE:
                run.fail(f"self times sum to {traced['self_sum_s']:.4f} s "
                         f"of a {wall:.4f} s wall")
            samples.append(traced["layers"] | {
                "trace.wall_s": wall,
                "trace.overhead_s": wall - (untraced - statistics.median(run.setups)),
                "trace.self_sum_gap": gap,
                "trace.spans": traced["spans"],
            })
        if perf_counter() + (perf_counter() - start) > deadline:
            break
    return {
        m["name"]: statistics.median(s.get(m["name"], 0) for s in samples)
        if samples else 0
        for m in SPEC["per_layer"]
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "strictform" / "cli.py").is_file():
        print(f"no strictform sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace and len(names) > 1:
        p.error("--trace 1 takes a single workload")
    pin_to_one_cpu()
    runs = [Run(WORKLOADS[n], args.seed) for n in names]
    print(f"env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"seed={args.seed} seconds={args.seconds}")

    if args.trace:
        values = trace(runs[0], args.seconds)
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer"]
        }
    else:
        measure(runs, args.seconds)
        metrics = {}
        for run in runs:
            prefix = "" if len(runs) == 1 else f"{run.workload.name}."
            values = run.end_to_end()
            for m in SPEC["end_to_end"]:
                metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for run in runs:
        print(run.summary())
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
