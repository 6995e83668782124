"""Seeded benchmark of the chainplan CLI.

    python3 perfbench/run.py --workload plan_long --seed 1 --seconds 36 --trace 0

Run from anywhere; it works in the checkout that contains this directory and
writes only under `.perfbench_out/` there. For the workload it:

1. generates the seed's scenario and trace files, and those of the fixed
   reference seed (untimed);
2. measures set-up (import of chainplan.cli plus a warm-up op) in several
   fresh interpreters and reports the median;
3. runs the timed rounds in one fresh interpreter (worker.py) and reports
   times scaled by the host speed kernel run between the ops, or with
   --trace 1 alternates untraced and traced rounds and reports the per-layer
   metrics and the tracing overhead instead of the end-to-end ones;
4. runs the reference seed once and compares the SHA-256 of its outputs with
   the digest recorded in digests.json (the bit-for-bit contract);
5. checks every op's output with checks.py.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The exit code is 0 when the run is correct, 1 when an
output differs from the recorded digest, between executions, or a traced
count does not repeat, and 2 when chainplan's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = Path(".perfbench_out")
REFERENCE_SEED = 0
REFERENCE_STRIDE = 4  # the reference pass runs every 4th op of the reference pool
SETUP_PROBES = 4  # set-up probes before, and again after, the measuring run
WORKER_TIMEOUT_S = 150
MIN_SAMPLES = 110  # latency samples per run, so that more than 10 lie beyond p90
# End-to-end times are scaled to a host on which worker._kernel takes this
# long on average. The kernel runs between the ops of the timed rounds, so its
# mean time in a run measures the same host slowdown as the ops' mean times;
# scaling by it cancels the drift of a shared host from run to run. 4 ms is
# about its mean on the 2-core Xeon VM the benchmark was sized on.
REFERENCE_KERNEL_S = 0.004

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, how it is derived from one traced round).
# "total" is a layer's inclusive time, "self" its time minus the calls made
# inside it; counts come from results or call counts.
PER_LAYER = {
    "planner.plan.s": ("s", ("total", "planner.plan")),
    "planner.plan.calls": ("count", ("calls", "planner.plan")),
    "planner.steps": ("count", ("count", "planner.steps")),
    "planner.rejected": ("count", ("count", "planner.rejected")),
    "planner.not_overloaded": ("count", ("count", "planner.not_overloaded")),
    "model.with_placement.calls": ("count", ("count", "model.with_placement")),
    "resources.utilization.calls": ("count", ("calls", "resources.utilization")),
    "resources.utilization.s": ("s", ("total", "resources.utilization")),
    "resources.max_chain_throughput.s": ("s", ("total", "resources.max_chain_throughput")),
    "perf.estimate_latency.s": ("s", ("total", "perf.estimate_latency")),
    "perf.count_crossings.calls": ("count", ("calls", "perf.count_crossings")),
    "oracle.verify_plan.s": ("s", ("total", "oracle.verify_plan")),
    "oracle.verify_plan.calls": ("count", ("calls", "oracle.verify_plan")),
    "oracle.enumerate_placements.s": ("s", ("total", "oracle.enumerate_placements")),
    "oracle.placements_examined": ("count", ("count", "oracle.placements_examined")),
    "oracle.reachable_ratio": ("ratio", ("ratio", "oracle.reachable_subsets", "oracle.placements_examined")),
    "oracle.border_peel_closure.s": ("s", ("total", "oracle.border_peel_closure")),
    "oracle.closure_states": ("count", ("count", "oracle.closure_states")),
    "oracle.rejects.resolved_feasibility": ("count", ("count", "oracle.rejects.resolved_feasibility")),
    "oracle.rejects.scale_out_certified": ("count", ("count", "oracle.rejects.scale_out_certified")),
    "simulate.run_trace.s": ("s", ("self", "simulate.run_trace")),
    "simulate.points": ("count", ("count", "simulate.points")),
    "simulate.run_trace.us_per_point": ("us", ("per_point", "simulate.run_trace", "simulate.points")),
    "simulate.compare.s": ("s", ("self", "simulate.compare")),
    "reports.timeline_csv.s": ("s", ("total", "reports.timeline_csv")),
    "reports.timeline_svg.s": ("s", ("total", "reports.timeline_svg")),
    "reports.bytes": ("B", ("count", "reports.bytes")),
    "scenario_io.load_scenario.s": ("s", ("total", "scenario_io.load_scenario")),
    "scenario_io.load_trace.s": ("s", ("total", "scenario_io.load_trace")),
    "scenario_io.bytes_parsed": ("B", ("count", "scenario_io.bytes_parsed")),
    "model.validate.s": ("s", ("total", "model.validate")),
    "cli.main.s": ("s", ("self", "cli.main")),
}

# Where a layer never runs on a workload, its metrics read 0; say why.
ABSENT = {
    "plan_long": "oracle (chains > 20 vNFs), simulate, reports and load_trace never run on plan_long",
    "certify_small": "simulate.run_trace, reports and load_trace never run on certify_small",
    "replay_trace": "oracle and simulate.compare never run on replay_trace",
}


def _worker(mode: str, ops_path: Path, out_dir: Path, seconds: float = 0.0, trace: int = 0,
            min_executions: int = 1) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--ops", str(ops_path),
           "--out-dir", str(out_dir), "--seconds", repr(seconds), "--trace", str(trace),
           "--min-executions", str(min_executions)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _prepare(workload: str, seed: int, tag: str, stride: int = 1) -> tuple[gen.Pool, Path, Path]:
    out_dir = OUT / f"{workload}-{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)
    pool = gen.generate(workload, seed, out_dir)
    pool.ops = pool.ops[::stride]
    sizes = [sum(os.path.getsize(a) for a in op.argv if a.startswith(str(out_dir)) and os.path.exists(a))
             for op in pool.ops]
    ops_path = out_dir / "ops.json"
    ops_path.write_text(json.dumps({
        "warmup": sizes.index(min(sizes)),
        "ops": [{"argv": op.argv, "files": op.out_files} for op in pool.ops],
    }))
    return pool, out_dir, ops_path


def _check_outputs(pool: gen.Pool, out_dir: Path, codes: list) -> list[tuple[int, list[str]]]:
    """Invariant problems per op index, from the outputs saved in the first round."""
    failures = []
    for i, (op, rc) in enumerate(zip(pool.ops, codes)):
        if rc != 0:
            failures.append((i, [f"exit status {rc!r}"]))
            continue
        stdout = (out_dir / f"op{i:03d}.out").read_text()
        chain = pool.chains[op.scenario]
        if op.argv[0] == "plan":
            problems = checks.check_plan(chain, op, stdout)
        elif op.argv[0] == "compare":
            problems = checks.check_compare(chain, op, stdout)
        else:
            csv_text = Path(op.out_files[0]).read_text()
            problems = checks.check_simulate(chain, op, stdout, csv_text)
        if problems:
            failures.append((i, problems))
    return failures


def _groups(pool_size: int) -> int:
    """Latency samples taken per op, so that a run has at least MIN_SAMPLES."""
    return math.ceil(MIN_SAMPLES / pool_size)


def _mean_of(times: list[list[float]]) -> list[float]:
    """Latency samples: each op's mean time over one group of its executions.

    Execution j of an op belongs to group j % groups, so every sample is the
    mean of executions of one op spread over the whole run. A mean, unlike a
    best or a median, slows by the host's mean slowdown whatever the op's
    length, so the kernel's mean measures the same slowdown (see REFERENCE_KERNEL_S).
    """
    groups = _groups(len(times))
    return [statistics.fmean(ts[g::groups]) for g in range(groups) for ts in times]


def _pool_digest(digests: list[str]) -> str:
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
    return h.hexdigest()


def _layer_value(how: tuple, layers: dict) -> float:
    kind, name = how[0], how[1]
    if kind == "total":
        return layers.get(f"{name}.s", 0.0)
    if kind == "self":
        return layers.get(f"{name}.self_s", 0.0)
    if kind == "calls":
        return layers.get(f"{name}.calls", 0)
    if kind == "count":
        return layers.get(name, 0)
    denominator = layers.get(how[2], 0)
    if kind == "ratio":
        return layers.get(name, 0) / denominator if denominator else 0.0
    # per_point: inclusive seconds of `name` per counted point, in microseconds
    return 1e6 * layers.get(f"{name}.s", 0.0) / denominator if denominator else 0.0


def _machine() -> str:
    return (f"{os.cpu_count()} cores, Python {platform.python_version()} ({platform.python_implementation()}), "
            f"{platform.platform()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "chainplan" / "cli.py").is_file():
        print(f"error: chainplan sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    pool, out_dir, ops_path = _prepare(args.workload, args.seed, f"s{args.seed}")
    ref_pool, ref_dir, ref_ops = _prepare(args.workload, REFERENCE_SEED, "ref", REFERENCE_STRIDE)

    # Set-up probes on both sides of the measuring run, so that they meet
    # more than one phase of the host.
    probes = [_worker("setup", ops_path, out_dir) for _ in range(SETUP_PROBES)]
    run = _worker("measure", ops_path, out_dir, args.seconds, args.trace, max(2, _groups(len(pool.ops))))
    probes.append(run)
    probes += [_worker("setup", ops_path, out_dir) for _ in range(SETUP_PROBES)]
    setups = [(p["setup_s"], p["setup_kernel_s"]) for p in probes]
    (out_dir / "measure.json").write_text(json.dumps(dict(run, setups=setups)))
    ref = _worker("once", ref_ops, ref_dir)

    print(f"workload {args.workload}, seed {args.seed}, machine: {_machine()}")
    print("closed loop, 1 caller, 1 op at a time, no threads; each op is one chainplan.cli.main(argv) call")
    errors: list[str] = []

    # Determinism: every execution repeats the first round's outputs byte for byte.
    for i in sorted(set(run["mismatches"])):
        errors.append(f"op {i}: an execution's output differs from round 1")

    # Bit-for-bit contract on the reference seed.
    digests = json.loads((HERE / "digests.json").read_text())
    ref_digest = _pool_digest(ref["rounds"][0]["digests"])
    recorded = digests.get(args.workload)
    print(f"reference digest (seed {REFERENCE_SEED}): {ref_digest} "
          f"({'matches the recorded one' if ref_digest == recorded else f'RECORDED {recorded}'})")
    print(f"output digest (seed {args.seed}): {_pool_digest(run['digests'])}")
    if ref_digest != recorded:
        errors.append("reference outputs differ from the recorded digest")

    failures = _check_outputs(pool, out_dir, run["codes"])
    ref_failures = _check_outputs(ref_pool, ref_dir, ref["rounds"][0]["codes"])
    failed_ops = {i for i, _ in failures}
    for i, problems in failures:
        print(f"FAILED op {i} ({' '.join(pool.ops[i].argv)}): {'; '.join(problems[:3])}")
    print(f"reference seed: {len(ref_failures)} of {len(ref_pool.ops)} ops break an invariant")
    # Every op of the pool is attempted, and checked, once: the later rounds
    # only time it again and must reproduce its first output byte for byte.
    # So `attempted` and `failed` count distinct ops and do not depend on how
    # many rounds fit in the run.
    attempted = len(pool.ops)
    failed = len(failed_ops)

    if args.trace:
        metrics = _layer_metrics(args.workload, run["rounds"], run["spans_written"], out_dir / "spans.jsonl", errors)
    else:
        metrics = _end_to_end(setups, run)
    print(f"  {'error_rate':<12} {failed / attempted:12.4f} ratio  ({failed} failed of {attempted} attempted)")

    for e in errors[:20]:
        print(f"ERROR: {e}")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _ops_per_s(latencies: list[float]) -> float:
    return len(latencies) / sum(latencies)


def _end_to_end(setups: list[tuple[float, float]], run: dict) -> dict:
    times = run["times"]
    kernel = run["kernel"]
    scale = REFERENCE_KERNEL_S / statistics.fmean(kernel)
    latencies = _mean_of(times)
    deciles = statistics.quantiles(latencies, n=10)
    beyond = sum(1 for x in latencies if x > deciles[8])
    groups = _groups(len(times))
    per_sample = sorted(len(ts) // groups for ts in times)
    print(f"{run['rounds']} rounds over {len(times)} ops ({sum(map(len, times))} executions, "
          f"{run['measured_s']:.1f} s); {len(latencies)} latency samples ({beyond} beyond p90), each the mean of "
          f"{per_sample[0]} to {per_sample[-1]} (median {per_sample[len(per_sample) // 2]}) executions of one op")
    print(f"host speed kernel: mean {statistics.fmean(kernel) * 1e3:.3f} ms over {len(kernel)} executions "
          f"(best {min(kernel) * 1e3:.3f} ms); times are scaled by {scale:.4f}, to a host on which its mean is "
          f"{REFERENCE_KERNEL_S * 1e3:g} ms")
    print(f"setup_s samples (unscaled, kernel mean in ms): {', '.join(f'{s:.4f} ({k * 1e3:.2f})' for s, k in setups)}")
    raw = {
        "ops_per_s": (_ops_per_s(latencies), len(latencies)),
        "op_p50_ms": (deciles[4] * 1e3, len(latencies)),
        "op_p90_ms": (deciles[8] * 1e3, len(latencies)),
        "setup_s": (statistics.median(s for s, _ in setups), len(setups)),
    }
    values = {name: (value / scale if name == "ops_per_s" else value * scale, n) for name, (value, n) in raw.items()}
    # Set-up probes run before and after the timed rounds, so each is scaled
    # by the kernel mean its own process took right after set-up.
    values["setup_s"] = (statistics.median(s * REFERENCE_KERNEL_S / k for s, k in setups), len(setups))
    values["peak_rss_mb"] = (run["peak_rss_mb"], 1)
    for name, (value, n) in values.items():
        unscaled = f", unscaled {raw[name][0]:.4f}" if name in raw else ""
        print(f"  {name:<12} {value:12.4f} {END_TO_END_UNITS[name]:<6} (n={n}{unscaled})")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, (v, _) in values.items()}


def _layer_metrics(workload: str, rounds: list[dict], spans: int, spans_path: Path, errors: list[str]) -> dict:
    traced = [r for r in rounds if r["traced"]]
    counts = [{k: v for k, v in r["layers"].items() if not k.endswith((".s", ".self_s"))} for r in traced]
    if any(c != counts[0] for c in counts[1:]):
        errors.append("traced work counts differ between rounds")
    values = {}
    for name, (unit, how) in PER_LAYER.items():
        per_round = [_layer_value(how, r["layers"]) for r in traced]
        values[name] = (statistics.mean(per_round), unit)
    # Round 1 warms the code paths up, so the overhead compares later rounds only.
    untraced_ops_per_s = _ops_per_s([x for r in rounds[1:] if not r["traced"] for x in r["latencies"]])
    traced_ops_per_s = _ops_per_s([x for r in traced for x in r["latencies"]])
    values["trace.ops_per_s_untraced"] = (untraced_ops_per_s, "1/s")
    values["trace.ops_per_s_traced"] = (traced_ops_per_s, "1/s")
    values["trace.overhead_pct"] = (100.0 * (untraced_ops_per_s / traced_ops_per_s - 1.0), "%")
    check = "checked to repeat exactly across them" if len(traced) > 1 else "not cross-checked (one traced round)"
    print(f"{len(traced)} traced and {len(rounds) - 1 - len(traced)} untraced rounds after round 1; "
          f"values are per round (one pass over the op pool); work counts {check}")
    print("time waiting: 0 by construction (one caller, one thread, nothing queues)")
    print(f"{spans} spans written to {spans_path}")
    print(f"absent layers read 0: {ABSENT[workload]}")
    for name, (value, unit) in values.items():
        print(f"  {name:<38} {value:16.6f} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


if __name__ == "__main__":
    sys.exit(main())
