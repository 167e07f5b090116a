#!/usr/bin/env python3
"""Benchmark of the conecover engines: one workload, one seed, one client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The package under test is `src/conecover` next to this directory.  One
client calls it in a closed loop: each op starts after the previous one
returned.  Every op's output is checked.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.  The line before it is a report with the environment,
the set-up samples, the tail percentile and the result digests.  Both
lines are also appended to `perfbench/out/results.jsonl`; a traced run
writes its spans to `perfbench/out/spans-<workload>.jsonl`.

A traced run spends the first half of `--seconds` untraced and the second
half traced, and reports the ratio of the two throughputs as the tracing
overhead.  See README.md for the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans as tracing
import warm
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-ups per run: this process, then cold interpreters, at least
# SETUP_RUNS of them and more until SETUP_SECONDS have gone, so that the
# fast set-ups (import only, about 0.05 s) get a median of many samples.
SETUP_RUNS = 5
SETUP_SECONDS = 3.0
PROBE_RUNS = 5  # interpreter and import probes on the traced cli run
LAYERS = ("angles", "lift", "monodromy", "branch_data", "families", "cli")


class Loop:
    """What one closed-loop phase measured."""

    def __init__(self):
        self.latencies: list[float] = []
        self.tags: list[str] = []
        self.failed = 0
        self.mismatched = 0  # ops whose result differed from an earlier one

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        return self.attempted / sum(self.latencies)


def run_loop(wl, inputs: list, seconds: float, tracer: tracing.Tracer | None = None,
             seen: dict[str, str] | None = None) -> Loop:
    """Call `wl.op` on inputs in order, cycling, until `seconds` have passed
    and the ops done make whole blocks of `wl.block`.

    Only the op is timed; its check runs after the clock stops.  `seen`
    maps an input's index to the digest of its result JSON, and gains the
    inputs this loop runs; an input seen again, here or in the runs that
    filled `seen`, must give the same result.  Only results that pass
    their checks are added.
    """
    loop = Loop()
    seen = {} if seen is None else seen
    wl.tracer = tracer
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i % wl.block:
        key = i % len(inputs)
        inp = inputs[key]
        key = str(key)
        root = None
        if tracer is not None:
            tracer.op = i
            root = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            out = wl.op(inp)
            error = None
        except Exception:  # a failing op is counted, and the run goes on
            error = traceback.format_exc()
        t1 = time.perf_counter()
        if root is not None:
            tracer.end(root)
            tracer.op = -1
        if error is None:
            try:
                ok, result = wl.check(inp, out)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            if loop.failed == 0:
                print(f"op {i} raised:\n{error}", file=sys.stderr)
            ok, result = False, {"error": error.strip().splitlines()[-1]}
        if ok:
            digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()[:32]
            if seen.setdefault(key, digest) != digest:
                ok = False
                loop.mismatched += 1
        loop.latencies.append(t1 - t0)
        loop.tags.append(wl.tag(inp))
        loop.failed += not ok
        i += 1
    wl.tracer = None
    return loop


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it.

    Returns (value, percentile, samples): the 11th largest sample, at
    percentile 100*(n-10)/n.  With ten samples or fewer, the largest.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def cold_setup(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "warm.py"), str(SRC), workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(loop: Loop, setups: list[dict], wl) -> dict:
    lat_ms = [x * 1000.0 for x in loop.latencies]
    tail_ms = tail(lat_ms)[0]
    return {
        "ops_per_s": (loop.ops_per_s(), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (wl.peak_rss_kib() / 1024.0, "MB"),
    }


def probe_ms(code: str, env: dict) -> float:
    times = []
    for _ in range(PROBE_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       capture_output=True, timeout=120, check=True)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def per_layer(tracer: tracing.Tracer, plain: Loop, traced: Loop, setups: list[dict],
              wl) -> dict:
    names, parents, ops, notes = tracer.names, tracer.parents, tracer.ops, tracer.notes
    durations = tracer.durations()
    selfs = tracer.self_times()
    in_ops: dict[str, list[int]] = {}
    anywhere: dict[str, list[int]] = {}
    for k, (name, op) in enumerate(zip(names, ops)):
        anywhere.setdefault(name, []).append(k)
        if op >= 0:
            in_ops.setdefault(name, []).append(k)

    def of(name, ops_only=True):
        return (in_ops if ops_only else anywhere).get(name, [])

    def total(idx):
        return sum(durations[k] for k in idx)

    def ratio(a, b):
        return a / b if b else 0.0

    decide = of("angles.decide")
    lattice = of("angles.lattice")
    coaxial = of("angles.coaxial")
    search = of("lift.search")
    lifts = [k for k in of("lift.lift_angles") if names[parents[k]] == "lift.search"]
    verify = of("lift.verify")
    oracle = of("monodromy.find_witness")
    statuses = [notes[k][0] for k in oracle]
    nodes_all = sum(notes[k][1] for k in oracle)
    nodes_prefix = sum(notes[k][1] for k in oracle if ops[k] < wl.exact_ops)
    oracle_s = total(oracle)
    roots = of("op")
    op_s = total(roots)

    m = {
        "angles.decide.calls": (len(decide), "count"),
        "angles.decide.self_s": (sum(selfs[k] for k in decide), "s"),
        "angles.decide.us_per_call": (ratio(total(decide), len(decide)) * 1e6, "us"),
        "angles.decide.case_A_share": (
            ratio(sum(notes[k] == "A" for k in decide), len(decide)), "ratio"),
        "angles.lattice.calls": (len(lattice), "count"),
        "angles.lattice.s": (total(lattice), "s"),
        "angles.coaxial.calls": (len(coaxial), "count"),
        "angles.coaxial.s": (total(coaxial), "s"),
        "angles.coaxial.witness_share": (
            ratio(sum(bool(notes[k]) for k in coaxial), len(coaxial)), "ratio"),
        "lift.search.calls": (len(search), "count"),
        "lift.search.s": (total(search), "s"),
        "lift.search.self_s": (sum(selfs[k] for k in search), "s"),
        "lift.lift_angles.calls": (len(lifts), "count"),
        "lift.candidates_per_search": (ratio(len(lifts), len(search)), "count"),
        "lift.certified_share": (
            ratio(sum(bool(notes[k]) for k in search), len(search)), "ratio"),
        "lift.exhausted": (sum(not notes[k] for k in search), "count"),
        "lift.verify.calls": (len(verify), "count"),
        "lift.verify.s": (total(verify), "s"),
        "lift.grid_warm_s": (statistics.median(s["grid_warm_s"] for s in setups), "s"),
        "monodromy.find_witness.calls": (len(oracle), "count"),
        "monodromy.find_witness.s": (oracle_s, "s"),
        "monodromy.nodes": (nodes_prefix, "count"),
        "monodromy.nodes_per_s": (ratio(nodes_all, oracle_s), "1/s"),
        "monodromy.realizable": (statuses.count("realizable"), "count"),
        "monodromy.unrealizable": (statuses.count("unrealizable"), "count"),
        "monodromy.unknown": (statuses.count("unknown"), "count"),
        "monodromy.verify_witness.s": (total(of("monodromy.verify_witness")), "s"),
        "branch_data.enumerate.s": (total(of("branch_data.enumerate", ops_only=False)), "s"),
        "branch_data.validate.calls_per_op": (
            ratio(len(of("branch_data.validate")), traced.attempted), "count"),
        "families.certificate.calls": (len(of("families.certificate", ops_only=False)), "count"),
        "families.certificate.s": (total(of("families.certificate", ops_only=False)), "s"),
    }

    interpreter_ms = import_ms = 0.0
    if wl.name == "cli":
        interpreter_ms = probe_ms("pass", wl.env)
        import_ms = probe_ms("import conecover.cli", wl.env) - interpreter_ms
    m["cli.interpreter_ms"] = (interpreter_ms, "ms")
    m["cli.import_ms"] = (import_ms, "ms")
    for command in workloads.Cli.COMMANDS:
        lat = [x * 1000.0 for x, tag in zip(traced.latencies, traced.tags) if tag == command]
        m[f"cli.{command}.p50_ms"] = (statistics.median(lat) if lat else 0.0, "ms")

    own: dict[str, float] = {}
    for name, idx in in_ops.items():
        layer = "bench" if name == "op" else name.split(".")[0]
        own[layer] = own.get(layer, 0.0) + sum(selfs[k] for k in idx)
    for layer in LAYERS + ("bench",):
        m[f"layer.{layer}.self_share"] = (ratio(own.get(layer, 0.0), op_s), "ratio")

    untraced, traced_rate = plain.ops_per_s(), traced.ops_per_s()
    m["trace.untraced_ops_per_s"] = (untraced, "1/s")
    m["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    m["trace.overhead_share"] = (1.0 - traced_rate / untraced, "ratio")
    _, pct, samples = tail(plain.latencies)
    m["op_tail.percentile"] = (pct, "%")
    m["op_tail.samples"] = (samples, "count")
    attempted = plain.attempted + traced.attempted
    m["failed_ratio"] = ((plain.failed + traced.failed) / attempted, "ratio")
    return m


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "conecover").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
    }


def digest_store(source_sha256: str, workload: str, seed: int) -> Path:
    """Where the per-input result digests of earlier runs of the same
    sources, workload and seed are kept."""
    return OUT / "digests" / f"{source_sha256[:16]}-{workload}-{seed}.json"


def save_digests(store: Path, seen: dict[str, str]) -> None:
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, sort_keys=True))
    os.replace(tmp, store)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "conecover" / "__init__.py").is_file():
        print(f"error: no conecover sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    store = digest_store(env["source_sha256"], args.workload, args.seed)
    seen = json.loads(store.read_text()) if store.exists() else {}
    known = len(seen)

    cc, first = warm.load(SRC, args.workload)
    setups = [first]
    start = time.perf_counter()
    while len(setups) < SETUP_RUNS or time.perf_counter() - start < SETUP_SECONDS:
        setups.append(cold_setup(args.workload))
    wl = workloads.WORKLOADS[args.workload](cc, ROOT)
    inputs = wl.inputs(args.seed)

    if args.trace:
        plain = run_loop(wl, inputs, args.seconds / 2, seen=seen)
        tracer = tracing.Tracer()
        tracer.install(cc)
        try:
            span = tracer.begin("inputs")
            regenerated = wl.inputs(args.seed)
            tracer.end(span)
            traced = run_loop(wl, inputs, args.seconds / 2, tracer, seen)
        finally:
            tracer.uninstall()
        loops = [plain, traced]
        same_inputs = regenerated == inputs
        metrics = per_layer(tracer, plain, traced, setups, wl)
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
    else:
        loops = [run_loop(wl, inputs, args.seconds, seen=seen)]
        same_inputs = True
        metrics = end_to_end(loops[0], setups, wl)

    save_digests(store, seen)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    if not same_inputs:  # the seed did not fix the inputs: no op counts
        failed = attempted
    _, pct, samples = tail(loops[0].latencies)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "setups": setups, "op_tail": {"percentile": pct, "samples": samples},
        "digests_known": known, "digests_now": len(seen),
        "digest_mismatches": sum(loop.mismatched for loop in loops),
        "same_inputs": same_inputs,
        "failed_ratio": failed / attempted,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"report": report, "result": result}) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
