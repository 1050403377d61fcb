"""Run every workload over ten seeds and record the figures.

Usage (from the repository root):

    python3 perfbench/record.py                 # write perfbench/baseline.json
    python3 perfbench/record.py --digests 0     # record answer digests for seed 0

Every workload runs at seeds 1 to 10 for BENCHMARK.json's run_seconds.
For each workload and end-to-end metric it writes the median over the
seeds and the spread, the distance between the first and third quartile
as a share of the median; then the per-layer metrics of one traced run at
the first seed; and the environment: Python version, CPU count and the
git commit when there is one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(1, 11)
OUT = HERE / "baseline.json"


def run(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stdout}{out.stderr}")
    return result


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "machine": platform.machine(), "commit": commit}


def record_digests(seed: int) -> None:
    """Digest of one pass of each workload at ``seed``, as run.py computes it."""
    path = HERE / "digests.json"
    recorded = json.loads(path.read_text())
    for name in workloads.GENERATORS:
        dw = harness.load_library(name)
        wl = harness.Workload(dw, name, seed, workloads.op_lines(name, seed))
        p = wl.run_pass(False)
        if p["errors"]:
            raise SystemExit(f"{name}: {p['errors'][:3]}")
        recorded.setdefault(name, {})[str(seed)] = p["digest"]
        print(name, seed, p["digest"])
    path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--digests", type=int, help="record answer digests for this seed instead")
    args = parser.parse_args()
    if args.digests is not None:
        record_digests(args.digests)
        return 0
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {"environment": environment(), "seconds": seconds, "seeds": [SEEDS[0], SEEDS[-1]], "workloads": {}}
    for name in workloads.GENERATORS:
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            for metric, m in run(name, seed, seconds)["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        summary = {}
        for metric, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            summary[metric] = {"median": statistics.median(xs), "spread": (q3 - q1) / statistics.median(xs), "values": xs}
            print(f"{name:10s} {metric:12s} median {statistics.median(xs):.6g}  spread {summary[metric]['spread']:.3f}")
        layers = run(name, SEEDS[0], seconds, trace=1)["metrics"]
        report["workloads"][name] = {"why": workloads.WHY[name], "metrics": summary, "per_layer": {k: v["value"] for k, v in layers.items()}}
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
