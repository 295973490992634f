#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/spread.py --workloads full-moderate full-high-q --seeds 1-10 \
        --out bench/baseline.json

Runs ``run.py --trace 0`` once per (workload, seed), one run at a time, and
reports for every metric its quartiles over the seeds and the spread
(Q3 - Q1) / median, next to the bound in BENCHMARK.json.  A spread above a
third of its bound is flagged: the benchmark is not steady enough there.
``--out`` also records the machine (nproc, CPU model, Python and NumPy
versions) so later runs can tell noise from a gain.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RAW_LINE = re.compile(r"(run_s|run_cpu_s): scaled .* raw pass median=([0-9.]+) s")
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    # Unscaled pass times, from the human-readable lines, to show the noise.
    for line in lines:
        found = RAW_LINE.match(line)
        if found:
            result["metrics"][f"raw_{found[1]}"] = {"value": float(found[2]), "unit": "s"}
    return result


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"values": values, "q1": q1, "median": median, "q3": q3, "spread": spread,
            "bound": bound, "steady": bound is None or spread < bound / 3}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", type=parse_seeds,
                        help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bounds.update(raw_run_s=None, raw_run_cpu_s=None)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update(raw_run_s="s", raw_run_cpu_s="s")
    record = {"machine": machine(), "run_seconds": args.seconds,
              "seeds": args.seeds, "workloads": {}}
    print(f"machine: {record['machine']}")
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        stats = {name: summarise([r["metrics"][name]["value"] for r in runs], bound)
                 for name, bound in bounds.items()}
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs), "metrics": stats}
        for name, s in stats.items():
            flag = "" if s["steady"] else "   <-- above bound/3"
            values = " ".join(f"{v:.4g}" for v in s["values"])
            print(f"{workload:20s} {name:16s} [{values}] {units[name]}: "
                  f"q1={s['q1']:.5g} median={s['median']:.5g} q3={s['q3']:.5g} "
                  f"spread={s['spread']:.4f} bound={s['bound']}{flag}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
