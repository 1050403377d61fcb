"""Closed-loop runs of one workload: cold ops in forked children, passes
over the op list until the time is up, and the metrics of the result.

One client in one process, no threads: each op waits for the one before.
The parent only imports dweyl and parses the op lines; it then forks one
child per op (one child per pass for ``session``), so every op starts
from the state of a fresh ``import dweyl`` whatever caches the library
keeps, and the child's peak RSS is the op's.  The child times the op,
then normalizes and checks the answer outside the timed region and sends
a small JSON record back through a pipe.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import ops as opmod
import oplines
import spans
import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
HARD_LIMIT_S = 165.0
TAIL_BEYOND = 10
# Session calls take milliseconds, so the speed probe runs between blocks
# of calls rather than around each one.
PROBE_EVERY = 64


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_library(workload: str):
    """Import dweyl from the checkout's own ``src``, never from elsewhere."""
    if not (SRC / "dweyl" / "__init__.py").is_file():
        print(f"error: no dweyl sources under {SRC.name}/ next to the benchmark", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    dw = oplines.load(workload)
    if not dw.__file__.startswith(str(SRC)):
        print(f"error: dweyl was imported from {dw.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return dw


def fork_call(fn, timeout: float) -> dict:
    """Run fn() in a forked child and return its JSON-ready result.

    A child that raises, dies or outlives the timeout yields
    {"crash": reason}; a timed-out child is killed and reaped.
    """
    rfd, wfd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            try:
                payload = fn()
            except Exception as exc:
                payload = {"crash": f"{type(exc).__name__}: {exc}"}
            data = memoryview(json.dumps(payload).encode())
            while data:
                data = data[os.write(wfd, data):]
        finally:
            os._exit(0)
    os.close(wfd)
    chunks = []
    deadline = time.monotonic() + timeout
    timed_out = False
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([rfd], [], [], remaining)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status = os.waitpid(pid, 0)
    if timed_out:
        return {"crash": f"timed out after {timeout:.0f} s"}
    try:
        return json.loads(b"".join(chunks))
    except json.JSONDecodeError:
        return {"crash": f"child ended with status {status} and no result"}


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Workload:
    """One workload's op list, parsed once in the parent before any timing."""

    def __init__(self, dw, name: str, seed: int, lines: list[str]):
        self.dw, self.name, self.seed, self.lines = dw, name, seed, lines
        self.args = oplines.parse_all(dw, name, lines)
        self.started = time.monotonic()

    def op_keys(self) -> list:
        """What makes two ops the same op: see ``end_to_end``."""
        return list(range(len(self.lines))) if self.name == "session" else self.lines

    def timeout(self) -> float:
        return max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))

    # -- children ---------------------------------------------------------

    def _traced(self, traced: bool):
        tracer = spans.Tracer() if traced else None
        wrap = (lambda fn: tracer.wrap(fn, "bench")) if traced else (lambda fn: fn)
        return tracer, opmod.make_api(self.dw, self.name, wrap)

    def _trace_record(self, tracer) -> dict:
        return {
            "tree": tracer.tree(),
            "flat": tracer.flat_cells(),
            "cost": spans.calibrate(),
            "counters": tracer.counters,
            "caches": spans.cache_stats(self.dw),
        }

    def op_child(self, i: int, traced: bool) -> dict:
        tracer, api = self._traced(traced)
        line = self.lines[i]
        if tracer:
            tracer.install()
        try:
            answer, elapsed, scale = speed.timed(lambda: opmod.run_op(api, self.name, self.args[i]))
        finally:
            if tracer:
                tracer.uninstall()
        rss = peak_rss_kb()
        norm = opmod.normalize(self.name, line, answer)
        record = {
            "t": elapsed,
            "scale": scale,
            "rss_kb": rss,
            "errors": opmod.check(self.name, line, norm, self.seed),
            "digest": sha(opmod.canonical_json(opmod.canonical(self.name, line, norm))),
        }
        if tracer:
            record["trace"] = self._trace_record(tracer)
        return record

    def session_child(self, traced: bool) -> dict:
        tracer, api = self._traced(traced)
        digest = hashlib.sha256()
        times, failed, errors, output_bytes = [], [], [], 0
        probes = [speed.probe()]
        if tracer:
            tracer.install()
        try:
            for j, (line, argv) in enumerate(zip(self.lines, self.args)):
                if j and j % PROBE_EVERY == 0:
                    probes.append(speed.probe())
                start = time.perf_counter()
                try:
                    code, stdout = opmod.run_cli(api.main, argv)
                except Exception as exc:
                    code, stdout = f"{type(exc).__name__}: {exc}", ""
                times.append(time.perf_counter() - start)
                output_bytes += len(stdout.encode())
                problems, payload = opmod.check_cli(line, code, stdout)
                if problems:
                    failed.append(j)
                    errors += [f"{line}: {p}" for p in problems[:1]]
                digest.update(f"{line}\n{opmod.canonical_json(payload)}\n".encode())
        finally:
            if tracer:
                tracer.uninstall()
        probes.append(speed.probe())
        # Each call is rescaled by the probes on either side of its block.
        scales = [speed.factor((probes[j // PROBE_EVERY] + probes[j // PROBE_EVERY + 1]) / 2) for j in range(len(times))]
        record = {
            "times": times,
            "scales": scales,
            "failed": failed,
            "errors": errors[:10],
            "digest": digest.hexdigest(),
            "rss_kb": peak_rss_kb(),
            "output_bytes": output_bytes,
        }
        if tracer:
            record["trace"] = self._trace_record(tracer)
        return record

    # -- passes -----------------------------------------------------------

    def run_pass(self, traced: bool) -> dict:
        """One pass over the op list: per-op times rescaled to the reference
        speed and raw (None where the op failed), failures, the pass
        digest and the peak RSS."""
        if self.name == "session":
            rec = fork_call(lambda: self.session_child(traced), self.timeout())
            if "crash" in rec:
                none = [None] * len(self.lines)
                return {"times": none, "raw": none, "errors": [rec["crash"]], "digest": None, "rss_kb": 0, "traces": []}
            failed = set(rec["failed"])
            raw = [None if j in failed else t for j, t in enumerate(rec["times"])]
            times = [None if t is None else t * k for t, k in zip(raw, rec["scales"])]
            trace = rec.get("trace")
            if trace:
                trace["output_bytes"] = rec["output_bytes"]
                trace["t"] = sum(rec["times"])
                trace["scale"] = sum(t * k for t, k in zip(rec["times"], rec["scales"])) / trace["t"]
            return {"times": times, "raw": raw, "errors": rec["errors"], "digest": rec["digest"], "rss_kb": rec["rss_kb"], "traces": [trace] if trace else []}
        times, raw, errors, digests, rss, traces = [], [], [], [], 0, []
        for i, line in enumerate(self.lines):
            rec = fork_call(lambda: self.op_child(i, traced), self.timeout())
            problems = [rec["crash"]] if "crash" in rec else rec["errors"]
            raw.append(None if problems else rec["t"])
            times.append(None if problems else rec["t"] * rec["scale"])
            errors += [f"{line}: {p}" for p in problems[:1]]
            digests.append(rec.get("digest"))
            rss = max(rss, rec.get("rss_kb", 0))
            if "trace" in rec:
                traces.append({**rec["trace"], "t": rec["t"], "scale": rec["scale"], "op": line})
        return {"times": times, "raw": raw, "errors": errors, "digest": sha("\n".join(map(str, digests))), "rss_kb": rss, "traces": traces}

    def run(self, seconds: float, traced: bool) -> tuple[list[dict], list[dict]]:
        """Whole passes until the next would end past ``seconds`` (at least
        one).  Traced runs pair an untraced pass with a traced one, so the
        tracing overhead is measured on the same ops."""
        untraced, traced_passes = [], []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            untraced.append(self.run_pass(False))
            if traced:
                traced_passes.append(self.run_pass(True))
            took = time.monotonic() - began
            if time.monotonic() - start + took > seconds or time.monotonic() - self.started + took > HARD_LIMIT_S - 30:
                return untraced, traced_passes


# ---------------------------------------------------------------------------
# Set-up time


def setup_probes(workload: str, lines: list[str], probes: int) -> list[float]:
    """Seconds of import dweyl plus parsing the ops, each in a fresh
    interpreter and rescaled by a speed probe run there right after."""
    text = "\n".join(lines)
    values = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), workload],
            input=text, capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, probe_s = map(float, out.stdout.split())
        values.append(seconds * speed.factor(probe_s))
    return values


# ---------------------------------------------------------------------------
# Metrics


def tail(runs: list[tuple[float, object]], ops: int) -> tuple[float, float, int, int]:
    """Highest percentile of one pass's op count with at least TAIL_BEYOND
    ops beyond it, taken over every run of every op: (value, percentile,
    runs beyond, distinct ops beyond).  ``runs`` holds (time, op key).

    The percentile depends on the op list only, not on how many passes
    fit into the run, so each further pass adds TAIL_BEYOND runs beyond.
    """
    share = max(0, ops - TAIL_BEYOND) / ops
    xs = sorted(runs, key=lambda run: run[0])
    k = max(0, math.ceil(share * len(xs)) - 1)
    beyond = xs[k + 1:]
    return xs[k][0], 100.0 * share, len(beyond), len({key for _, key in beyond})


def end_to_end(passes: list[dict], setup_s: float, keys: list) -> tuple[dict, dict]:
    """Metrics over untraced passes; returns (metrics, details for the report).

    Times are rescaled to the reference speed (see ``speed``).  Op i's
    time is the median of every run in the run of ops with the same key,
    ``keys[i]``: the op line for cold ops, whose repeats are the same
    work, and the position for session calls, whose repeats hit warm
    caches.  The median and the rate are taken over these per-op times,
    so they do not depend on how many passes fit into the run.  The tail
    is taken over every single run (see ``tail``).
    """
    n_ops = len(keys)
    attempted = n_ops * len(passes)

    def per_op(field: str) -> list[float]:
        runs: dict = {}
        for p in passes:
            for key, t in zip(keys, p[field]):
                if t is not None:
                    runs.setdefault(key, []).append(t)
        return [statistics.median(runs[key]) for key in keys if key in runs] or [float("nan")]

    times, raw = per_op("times"), per_op("raw")
    runs = [(1000 * t, key) for p in passes for key, t in zip(keys, p["times"]) if t is not None] or [(float("nan"), None)]
    failed = attempted - sum(t is not None for p in passes for t in p["times"])
    tail_ms, pct, beyond, distinct = tail(runs, n_ops)
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_tail_ms": tail_ms,
        "fail_ratio": failed / attempted,
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024,
        "setup_s": setup_s,
    }
    details = {
        "attempted": attempted, "failed": failed, "ops": n_ops, "passes": len(passes),
        "tail_pct": pct, "tail_runs": len(runs), "tail_beyond": beyond, "tail_distinct": distinct,
        "raw_p50_ms": 1000 * statistics.median(raw), "raw_ops_per_s": len(raw) / sum(raw),
    }
    return metrics, details


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics from traced passes, averaged per pass."""
    npass = max(1, len(traced))
    sums: Counter = Counter()
    caches = {group: [0, 0, 0] for group in spans.CACHES}
    for r in (r for p in traced for r in p["traces"]):
        totals = spans.layer_totals(r["tree"], r["flat"], r["cost"])
        sums.update(totals)
        sums.update(r["counters"])
        sums["traced_s"] += r["t"]
        # Rescaled like the untraced times, for the overhead ratios.
        sums["traced_scaled_s"] += r["t"] * r["scale"]
        sums["overhead_scaled_s"] += totals["overhead_s"] * r["scale"]
        sums["output_bytes"] += r.get("output_bytes", 0)
        for group, (hits, misses, size) in r["caches"].items():
            c = caches[group]
            c[0], c[1], c[2] = c[0] + hits, c[1] + misses, max(c[2], size)
    # Traced and untraced passes come in pairs over the same ops.
    untraced_s = sum(t for p in untraced for t in p["times"] if t is not None)
    attributed = sum(sums[f"{layer}.self_s"] for layer in spans.LAYERS)

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(group):
        hits, misses, _ = caches[group]
        return ratio(hits, hits + misses)

    out = {}
    for layer in spans.LAYERS:
        out[f"{layer}.calls"] = sums[f"{layer}.calls"] / npass
        out[f"{layer}.self_ms"] = 1000 * sums[f"{layer}.self_s"] / npass
    scanned, nonzero = sums["labels_scanned"], sums["nonzero_multiplicities"]
    out.update({
        "partitions.enum_misses": caches["enum"][1] / npass,
        "lr.nonzero_ratio": ratio(sums["lr_nonzero"], sums["lr_calls"]),
        "lr.cache_hit_ratio": hit_ratio("lr"),
        "lr.cache_entries": caches["lr"][2],
        "symchar.border_strips_calls": sums["border_strips"] / npass,
        "symchar.cache_hit_ratio": hit_ratio("symchar"),
        "bchar.wreath_cache_hit_ratio": hit_ratio("wreath"),
        "bchar.wreath_cache_entries": caches["wreath"][2],
        "dchar.labels_enumerated": sums["labels_enumerated"] / npass,
        "dchar.char_cache_hit_ratio": hit_ratio("dchar"),
        "dchar.char_cache_entries": caches["dchar"][2],
        "decomp.labels_scanned": scanned / npass,
        # Useful outcomes over attempts; an algorithm that builds the
        # support without scanning labels attempts only what it finds.
        "decomp.support_ratio": ratio(nonzero, max(scanned, nonzero)),
        "oracle.build_group_ms": 1000 * sums["build_group_s"] / npass,
        "oracle.group_elements": sums["group_elements"] / npass,
        "cli.output_bytes": sums["output_bytes"] / npass,
        "trace.overhead_ratio": ratio(sums["traced_scaled_s"], untraced_s),
        "trace.corrected_ratio": ratio(sums["traced_scaled_s"] - sums["overhead_scaled_s"], untraced_s),
        "trace.unattributed_ms": 1000 * (sums["traced_s"] - sums["overhead_s"] - attributed) / npass,
    })
    return out


def write_trace(path: Path, workload: str, seed: int, traced: list[dict]) -> None:
    """Spans of every traced op as calling-context trees, one JSON file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    ops = [
        {"pass": k, "op": r.get("op", workload), "t": r["t"], "tree": r["tree"], "flat": r["flat"], "cost": r["cost"]}
        for k, p in enumerate(traced)
        for r in p["traces"]
    ]
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "node": ["layer", "function", "calls", "total_s", "self_s", "truthy", "children"],
        "flat": ["calling_layer", "layer", "function", "calls", "total_s", "truthy"],
        "cost": "seconds per wrapped call, [inside the callee's clock, outside it], per wrapper kind",
        "ops": ops,
    }))

