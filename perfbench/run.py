"""dweyl benchmark: one workload, one seed, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload decompose --seed 0 --seconds 30 --trace 0

Prints every metric by name with its unit, the SHA-256 of the workload's
canonical answers, and as the last line one JSON object with the keys
correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics from
traced passes and writes their spans under ``.perfbench_out/``.  Exits 1
if any answer fails its check or the digest differs from the one
recorded for the seed, 2 if the dweyl sources are missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import harness
import workloads

RECORDED = harness.HERE / "digests.json"

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "ms": ("self_ms", "build_group_ms", "unattributed_ms"),
    "ratio": ("ratio",),
    "bytes": ("output_bytes",),
}


def per_layer_unit(name: str) -> str:
    leaf = name.split(".", 1)[1]
    for unit, endings in PER_LAYER_UNITS.items():
        if leaf.endswith(endings):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    dw = harness.load_library(args.workload)
    lines = workloads.op_lines(args.workload, args.seed)
    # Set-up is probed before and after the passes, so that its median
    # does not rest on one moment of the machine's speed.  The first
    # probe warms the file cache and is dropped.  Traced runs skip it.
    probes = [] if args.trace else harness.setup_probes(args.workload, lines, 6)[1:]
    wl = harness.Workload(dw, args.workload, args.seed, lines)
    untraced, traced = wl.run(args.seconds, bool(args.trace))
    probes += [] if args.trace else harness.setup_probes(args.workload, lines, 4)
    setup_s = statistics.median(probes) if probes else float("nan")

    e2e, info = harness.end_to_end(untraced, setup_s, wl.op_keys())
    errors = [e for p in untraced + traced for e in p["errors"]]
    failed = info["failed"] + sum(t is None for p in traced for t in p["times"])
    attempted = info["attempted"] + len(traced) * info["ops"]

    digests = {p["digest"] for p in untraced + traced}
    digest = digests.pop() if len(digests) == 1 else None
    if digest is None:
        errors.append("answers differ between passes")
    recorded = json.loads(RECORDED.read_text()).get(args.workload, {}).get(str(args.seed))
    if recorded and digest != recorded:
        errors.append(f"digest {digest} differs from the one recorded for seed {args.seed}: {recorded}")

    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print(f"seed {args.seed}, {info['ops']} ops per pass, {info['passes']} untraced and {len(traced)} traced passes, one client, closed loop")
    if args.trace:
        metrics = harness.per_layer(traced, untraced)
        units = {name: per_layer_unit(name) for name in metrics}
        harness.write_trace(harness.HERE.parent / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json", args.workload, args.seed, traced)
    else:
        metrics = e2e
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{info['tail_pct']:.1f} of {info['tail_runs']} runs; {info['tail_beyond']} runs of {info['tail_distinct']} distinct ops beyond)"
        elif name == "op_p50_ms":
            note = f"  (each op's time is the median of its runs over {info['passes']} passes; raw {info['raw_p50_ms']:.6g} ms)"
        elif name == "ops_per_s":
            note = f"  (at the reference speed; raw {info['raw_ops_per_s']:.6g} ops/s)"
        elif name == "setup_s":
            note = f"  (median of {len(probes)} fresh interpreters)"
        elif name == "fail_ratio":
            note = f"  ({info['failed']} of {info['attempted']})"
        print(f"  {name:32s} {value:.6g} {units[name]}{note}")
    status = "matches the recorded digest" if recorded and digest == recorded else "no digest recorded for this seed" if not recorded else "DIFFERS from the recorded digest"
    print(f"answers sha256 {digest} ({status})")
    for e in errors[:20]:
        print(f"FAILED {e}")

    if not args.trace:
        # fail_ratio is zero on a correct run, so it is carried by the
        # failed/attempted counts rather than as a bounded metric.
        metrics = {k: v for k, v in metrics.items() if k != "fail_ratio"}
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
