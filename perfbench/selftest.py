"""Self-tests of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

* a tiny-size smoke run of all four workloads, untraced and traced;
* fault injection: wrong multiplicities, table entries, oracle reports
  and CLI output fed to the checkers are caught, and a corrupted library
  answer run through the harness is counted as a failed op;
* after tracing, every dweyl binding is the original object again and
  the library answers exactly as before;
* every cold op starts from the parent's cache state.

Exits 0 when every test passes and prints one line per test.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace

import combinat as cb
import harness
import ops
import spans
import workloads

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        FAILURES.append(what)
        print(f"  FAIL {what}")


def tiny(dw, name: str) -> harness.Workload:
    return harness.Workload(dw, name, 7, workloads.op_lines(name, 7, tiny=True))


def test_smoke(dw) -> None:
    for name in workloads.GENERATORS:
        wl = tiny(dw, name)
        untraced, traced = wl.run(0.0, True)
        metrics, info = harness.end_to_end(untraced, 0.05, wl.op_keys())
        layer = harness.per_layer(traced, untraced)
        expect(info["failed"] == 0, f"{name}: tiny run has failures: {untraced[0]['errors'][:3]}")
        expect(not traced[0]["errors"], f"{name}: traced pass has failures: {traced[0]['errors'][:3]}")
        expect(untraced[0]["digest"] == traced[0]["digest"], f"{name}: tracing changed the answers")
        expect(all(v > 0 for k, v in metrics.items() if k != "fail_ratio"), f"{name}: a metric is not positive: {metrics}")
        expect(len(layer) == 35, f"{name}: {len(layer)} per-layer metrics, expected 35")
        print(
            f"ok   smoke {name}: {info['ops']} ops, p50 {metrics['op_p50_ms']:.3g} ms, "
            f"trace overhead {layer['trace.overhead_ratio']:.3g}x raw, {layer['trace.corrected_ratio']:.3g}x corrected"
        )


def test_checkers(dw) -> None:
    line = "decompose --n 8 --a 5 --b 3 --A ([2,1],[2]) --B ([2],[1])"
    q = dw.InducedQuery(8, 5, 3, dw.parse_irr_label("([2,1],[2])"), dw.parse_irr_label("([2],[1])"))
    norm = ops.normalize("decompose", line, dw.decompose_induced(q))
    expect(not ops.check_decompose(line, norm), "decompose: correct answer rejected")
    (X, m), rest = norm[0], norm[1:]
    expect(bool(ops.check_decompose(line, [(X, m + 1)] + rest)), "decompose: multiplicity one too high not caught")
    expect(bool(ops.check_decompose(line, rest)), "decompose: missing label not caught")
    expect(bool(ops.check_decompose(line, [(X, 0)] + rest)), "decompose: zero multiplicity not caught")

    rng = random.Random(3)
    for kind, n in (("A", 6), ("B", 4), ("D", 5)):
        tline = f"chartable --type {kind} --n {n}"
        labels, classes, values = ops.normalize("chartable", tline, ops.run_op(ops.make_api(dw, "chartable"), "chartable", (kind, n)))
        expect(not ops.check_table(kind, n, (labels, classes, values), rng), f"{kind}_{n}: correct table rejected")
        for _ in range(30):
            i, j = rng.randrange(len(labels)), rng.randrange(len(classes))
            bad = [row[:] for row in values]
            bad[i][j] = -bad[i][j] if bad[i][j] and rng.random() < 0.5 else bad[i][j] + rng.choice((-2, -1, 1, 2))
            if bad[i][j] == values[i][j]:
                continue
            expect(bool(ops.check_table(kind, n, (labels, classes, bad), rng)), f"{kind}_{n}: wrong entry at ({i},{j}) not caught")
        expect(bool(ops.check_table(kind, n, (labels[1:], classes, values[1:]), rng)), f"{kind}_{n}: missing row not caught")

    vline = "verify --n 4 --a 2 --b 2"
    report = dw.verify_formula(4, 2, 2)
    expect(not ops.check_verify(vline, ops.normalize("verify", vline, report)), "verify: correct report rejected")
    expect(bool(ops.check_verify(vline, (report.pairs_checked, [("A", "B", "X", "1", "0")]))), "verify: mismatch not caught")
    expect(bool(ops.check_verify(vline, (report.pairs_checked - 1, []))), "verify: wrong pair count not caught")

    expect(bool(ops.check_cli("branch --n 4 --X ([3],[1])", 2, "")[0]), "cli: exit code 2 not caught")
    expect(bool(ops.check_cli("branch --n 4 --X ([3],[1])", 0, "not json")[0]), "cli: invalid JSON not caught")
    code, out = ops.run_cli(dw.cli.main, line.split())
    expect(not ops.check_cli(line, code, out)[0], "cli: correct decompose output rejected")
    expect(bool(ops.check_cli(line, code, out.replace(": 1", ": 2", 1))[0]), "cli: wrong multiplicity not caught")
    bline = "branch --n 5 --X ([2,1],[2])"
    code, out = ops.run_cli(dw.cli.main, bline.split())
    members = json.loads(out)
    expect(not ops.check_cli(bline, code, out)[0], "cli: correct branch output rejected")
    for bad, what in (([], "empty"), (members[1:], "missing member"), (members + ["([3],[1])"], "extra member"), (members + members[:1], "repeated member")):
        expect(bool(ops.check_cli(bline, 0, json.dumps(bad))[0]), f"cli: {what} branch set not caught")
    print("ok   checkers catch injected faults" if not FAILURES else "done checkers")


def test_tail() -> None:
    """The tail is taken over every run, at a percentile fixed by the op count."""
    keys = [f"op{i}" for i in range(30)]
    passes = [{"times": [i / 1000 + k / 1e6 for i in range(30)], "raw": [1.0] * 30, "rss_kb": 1} for k in range(2)]
    metrics, info = harness.end_to_end(passes, 0.05, keys)
    expect(
        (round(info["tail_pct"], 3), info["tail_runs"], info["tail_beyond"], info["tail_distinct"]) == (66.667, 60, 20, 10),
        f"tail over 2 passes of 30 ops: {info}",
    )
    expect(abs(metrics["op_tail_ms"] - 19.001) < 1e-9, f"tail value {metrics['op_tail_ms']}")
    print("ok   tail over every run, ten ops beyond per pass")


def test_fault_counted(dw) -> None:
    """A wrong answer from the library is counted as a failed op."""
    original = dw.decompose_induced

    def corrupted(q):
        result = original(q)
        first = next(iter(result.multiplicities))
        return replace(result, multiplicities={**result.multiplicities, first: result.multiplicities[first] + 1})

    dw.decompose_induced = corrupted
    wl = tiny(dw, "decompose")
    try:
        untraced, _ = wl.run(0.0, False)
    finally:
        dw.decompose_induced = original
    metrics, info = harness.end_to_end(untraced, 0.05, wl.op_keys())
    expect(info["failed"] == info["attempted"] and metrics["fail_ratio"] == 1.0, f"corrupted answers counted {info['failed']} of {info['attempted']} as failed")
    print(f"ok   corrupted library answers: {info['failed']} of {info['attempted']} ops failed")


def _bindings() -> dict:
    return {(name, k): v for name, m in sys.modules.items() if name.startswith("dweyl") and m for k, v in vars(m).items()}


def _answers(dw) -> str:
    api = ops.make_api(dw, "chartable")
    table = ops.run_op(api, "chartable", ("D", 5))
    q = dw.InducedQuery(9, 4, 5, dw.parse_irr_label("([2],[1,1])"), dw.parse_irr_label("([2,1],[2])"))
    return repr((table[2], sorted(map(repr, dw.decompose_induced(q).multiplicities.items())), dw.verify_formula(4, 1, 3)))


def test_trace_restores(dw) -> None:
    before, answers = _bindings(), _answers(dw)
    for fn in before.values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()  # so that every layer is called again under tracing
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_answers = _answers(dw)
    finally:
        tracer.uninstall()
    after = _bindings()
    changed = [k for k in before if before[k] is not after.get(k)]
    expect(not changed, f"bindings not restored: {changed[:5]}")
    expect(traced_answers == answers, "answers differ under tracing")
    expect(_answers(dw) == answers, "answers differ after tracing")
    layers = spans.layer_totals(tracer.tree(), tracer.flat_cells(), spans.calibrate())
    expect(all(layers[f"{layer}.calls"] > 0 for layer in ("partitions", "lr", "symchar", "bchar", "dchar", "decomp", "oracle")), f"a layer saw no calls: {layers}")
    print(f"ok   tracing restores {len(before)} bindings and leaves answers unchanged")


def _cache_sizes() -> dict:
    return {f"{name}.{k}": v.cache_info().currsize for name, m in sorted(sys.modules.items()) if name.startswith("dweyl") and m for k, v in vars(m).items() if hasattr(v, "cache_clear")}


def test_cold(dw) -> None:
    parent = _cache_sizes()
    wl = tiny(dw, "decompose")
    starts = [harness.fork_call(_cache_sizes, 30) for _ in range(2)]
    wl.run_pass(False)
    starts.append(harness.fork_call(_cache_sizes, 30))
    expect(all(s == parent for s in starts), "a child did not start from the parent's cache state")
    expect(_cache_sizes() == parent, "running ops changed the parent's caches")
    filled = {k: v for k, v in parent.items() if v}
    expect(not filled, f"caches filled by import and parsing: {filled}")
    print(f"ok   cold ops: {len(parent)} caches, all empty at every op start")


def test_sampler_independent() -> None:
    """Op lists come from the benchmark's sampler alone and repeat per seed."""
    for name in workloads.GENERATORS:
        expect(workloads.op_lines(name, 5) == workloads.op_lines(name, 5), f"{name}: op list not reproducible")
    counts = {n: len(cb.d_labels(n)) for n in (4, 5, 6)}
    expect(counts == {4: 13, 5: 18, 6: 37}, f"own label counts {counts}")
    expect(all(sum(cb.d_degree(x) ** 2 for x in cb.d_labels(n)) == cb.order_d(n) for n in range(2, 9)), "own degrees")
    print("ok   op lists reproducible from the seed")


def main() -> int:
    dw = harness.load_library("session")
    test_sampler_independent()
    test_cold(dw)  # first, while the parent's caches are as import left them
    test_checkers(dw)
    test_tail()
    test_trace_restores(dw)
    test_fault_counted(dw)
    test_smoke(dw)
    print(f"{len(FAILURES)} failures" if FAILURES else "all benchmark self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
