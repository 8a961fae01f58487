"""Benchmark for ulmkit: three workloads, end-to-end metrics and a traced run.

Run from the root of a checkout (the package is imported from ./src):

    python3 bench/run.py --workload relation-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

A run repeats passes of one seeded batch for about --seconds seconds
(at least the workload's min_passes untraced passes, or two untraced
and two traced ones with --trace 1, each from a fresh import of
ulmkit). With
--trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 untraced and traced passes alternate and the
JSON carries the per-layer metrics, and the spans of the first traced
pass are written to .bench_out/. `--workload all` runs every workload
both ways in child processes and prints every metric by name with its
unit; it exits non-zero when any run is incorrect. BENCHMARK.json and
bench/design.json describe the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

_clock = time.perf_counter
SETUP_SAMPLES = 15  # setup_s is the median of this many set-ups in a run
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
E2E = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("ops_ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ref", "ref"),
    ("op_tail_ref", "ref"),
    ("part_a_ref", "ref"),
    ("part_b_ref", "ref"),
    ("part_c_ref", "ref"),
)


def tail_percentile(per_pass: int) -> float:
    """Highest ladder percentile with at least ten of one pass's samples beyond it."""
    for q in TAIL_LADDER:
        if per_pass * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def op_costs(passes: list, attr: str = "cost") -> list:
    """Per-operation median cost (or seconds) across passes of the same batch."""
    return [statistics.median(getattr(op, attr) for op in ops) for ops in zip(*(p["log"].ops for p in passes))]


def pass_view(ops: list, per_op: list) -> dict:
    """Part sums, total and latency percentiles of one pass's operations,
    from per-operation values."""
    answered = [t for op, t in zip(ops, per_op) if op.ok]
    q = tail_percentile(len(answered))
    parts = {k: sum(t for op, t in zip(ops, per_op) if op.part == k) for k in "abc"}
    return {
        "parts": parts,
        "wall": sum(parts.values()),
        "p50": percentile(answered, 50.0),
        "tail": percentile(answered, q),
        "tail_name": f"p{q:g}",
        "tail_samples": len(answered),
        "answered": len(per_op),
    }


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@contextlib.contextmanager
def gc_paused():
    """As timeit does: no cyclic collection inside timed code, so a
    collection's pause does not land on whichever step happens to cross
    the allocation threshold."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def set_up(workload, seed: int, workdir: str) -> tuple:
    """A fresh import of ulmkit and the workload's inputs built with it, timed."""
    with gc_paused():
        t0 = _clock()
        m = workloads.Modules()
        spec = workload.spec(seed)
        prepared = workload.setup(m, spec, workdir)
        return m, spec, prepared, _clock() - t0


def run_workload(workload, seed: int, seconds: float, trace: bool, root: str) -> tuple[dict, list[str]]:
    """Run passes for `seconds`; return the result object and report lines."""
    workdir = os.path.join(root, ".bench_out", f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    passes = []
    tracer_dump = None
    min_plain, min_traced = (2, 2) if trace else (workload.min_passes, 0)
    start = _clock()
    try:
        while True:
            n_traced = sum(p["traced"] for p in passes)
            if (
                _clock() - start >= seconds
                and len(passes) - n_traced >= min_plain
                and n_traced >= min_traced
            ):
                break
            traced = trace and len(passes) % 2 == 1
            m, spec, prepared, setup_s = set_up(workload, seed, workdir)
            tracer = None
            if traced:
                tracer = tracing.Tracer()
                tracing.install(tracer, m, workload.sizes.get("stages", 0))
            log = workloads.PassLog()
            with gc_paused(), log.probe:
                workload.run(m, prepared, log)
            log.price()
            entry = {"traced": traced, "setup_s": setup_s, "log": log}
            if tracer is not None:
                entry["counts"] = {**tracing.pass_counts(tracer, m), **log.counts}
                entry["times"] = tracing.pass_times(tracer)
                if tracer_dump is None:
                    tracer_dump = tracer
            passes.append(entry)
            del m, prepared, tracer
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(set_up(workload, seed, workdir)[3])
        problems = workload.verify(workloads.Modules(), spec, [p["log"] for p in passes])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    first = plain[0]["log"].ops
    answers = [[(op.ok, op.answer) for op in p["log"].ops] for p in passes]
    for k, other in enumerate(answers[1:], start=1):
        for i, (x, y) in enumerate(zip(answers[0], other)):
            if x != y:
                problems.append(f"pass {k} answered operation {i} differently: {y!r} vs {x!r}")
                break

    # every pass repeats the batch and must answer it alike (checked above),
    # so the counts are those of one batch and do not depend on the pass count
    attempted = len(first)
    failed = sum(1 for op in first if not op.ok)
    seconds_view = pass_view(first, op_costs(plain, "seconds"))
    cost_view = pass_view(first, op_costs(plain))
    summary = {"ops": first, "spec": spec, **seconds_view}
    lines = [
        f"workload {workload.name} seed {seed}: {len(plain)} untraced and "
        f"{len(passes) - len(plain)} traced passes of {len(first)} operations",
        f"input digest {digest(spec)}",
        f"verdict digest {digest([op.answer for op in first])}",
    ]
    lines.append(
        "pass times: "
        + " ".join(
            f"{sum(op.seconds for op in p['log'].ops):.3f}{'T' if p['traced'] else ''}"
            for p in passes
        )
    )
    reference = statistics.median(d for p in plain for _, d in p["log"].probe.samples)
    lines.append(
        f"1 ref = {reference * 1e3:.4g} ms here (median reference time); op_tail_ref is the "
        f"{cost_view['tail_name']} of {cost_view['tail_samples']} answered operations of a pass"
    )
    lines += workload.report(summary)
    lines += [f"incorrect: {p}" for p in problems[:20]]

    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "wall_ref": cost_view["wall"],
            "ops_ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_p50_ref": cost_view["p50"],
            "op_tail_ref": cost_view["tail"],
            "part_a_ref": cost_view["parts"]["a"],
            "part_b_ref": cost_view["parts"]["b"],
            "part_c_ref": cost_view["parts"]["c"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
    else:
        traced = [p for p in passes if p["traced"]]
        values = dict(traced[0]["counts"])
        for key in traced[0]["times"]:
            values[key] = statistics.median(p["times"][key] for p in traced)
        for p in traced[1:]:
            if p["counts"] != traced[0]["counts"]:
                lines.append("note: per-layer counts differ between traced passes")
                break
        traced_wall = sum(op_costs(traced))
        values["trace.overhead_frac"] = traced_wall / cost_view["wall"] - 1.0
        metrics = {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in tracing.per_layer_catalog()
        }
        lines.append(f"calls digest {digest(sorted((k, v) for k, v in values.items() if k.endswith('.calls')))}")
        path = os.path.join(root, ".bench_out", f"trace-{workload.name}-seed{seed}.json")
        tracer_dump.dump(path, {"workload": workload.name, "seed": seed, "pass": 1})
        lines.append(f"spans of the first traced pass: {len(tracer_dump.spans)} in {os.path.relpath(path, root)}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    lines += [f"metric {name} {v['value']:.6g} {v['unit']}" for name, v in metrics.items()]
    return result, lines


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own interpreter."""
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            out = proc.stdout.strip().splitlines()
            for line in out[:-1]:
                print(f"[{name} trace={trace}] {line}")
            if proc.returncode != 0 or not out:
                print(f"[{name} trace={trace}] exited {proc.returncode}: {proc.stderr.strip()}")
                ok = False
                continue
            result = json.loads(out[-1])
            ok = ok and result["correct"]
            print(f"[{name} trace={trace}] correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ulmkit", "__init__.py")):
        print(f"error: no ulmkit sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload == "all":
        return run_all(args)

    workload = workloads.WORKLOADS[args.workload]()
    result, lines = run_workload(workload, args.seed, args.seconds, bool(args.trace), root)
    for line in lines:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
