"""Regenerate pinned.json: run every candidate input of every workload once
and pin the verdict of each run that exits 0 and holds its workload's
property.  Candidates that fail are reported and left out.

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import shutil

from run import WORK, strictform
from workloads import CANDIDATES, PINNED, WORKLOADS


def main() -> None:
    work = WORK / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "report.json"
    pinned = {}
    for name, workload in WORKLOADS.items():
        pinned[name] = []
        for inputs in CANDIDATES[name]:
            code, wall, rss = strictform(workload.argv(inputs, work, out), work)
            report = json.loads(out.read_text()) if code == 0 else None
            problem = f"exit {code}" if code else workload.check(report, None)
            print(f"{name} {json.dumps(inputs)} {wall:.2f} s {rss:.0f} MB: "
                  f"{problem or 'pinned'}", flush=True)
            if not problem:
                pinned[name].append(
                    {"inputs": inputs, "verdict": workload.verdict(report)}
                )
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
