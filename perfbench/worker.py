"""One workload process: imports chainplan, runs benchmark rounds, reports.

Started by run.py in a fresh interpreter, from the root of the checkout.
Each op is one in-process `chainplan.cli.main(argv)` call with stdout and
stderr captured; ops run one at a time, in a closed loop with one caller and
no threads. Prints one JSON object as its last stdout line.

Modes:
  setup    import chainplan.cli and run the warm-up op, report the time and
           the kernel's mean time right after it
  measure  setup, then an untimed first round (one execution of every op,
           whose outputs later executions must reproduce), then timed rounds
           while the next execution still fits in --seconds, and until every
           op has run --min-executions timed times. A round runs every op
           once and cheap ops again in further passes, with the host speed
           kernel between ops. With --trace 1, rounds are single passes,
           alternately traced and untraced
  once     run every op once, for the reference digest
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

MAX_REPEATS = 16  # at most this many executions of one op per round
KERNEL_EVERY_S = 0.1  # op time between two executions of the host speed kernel
SETUP_KERNEL_RUNS = 10  # kernel executions right after set-up, to scale the set-up time


def _op_digest(stdout: str, files: list[str]) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in files:
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def _run_op(cli, argv: list[str]) -> tuple[float, int | str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc: int | str = cli.main(argv)
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op, not a crash
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue()


def _round(cli, ops: list[dict], tracer=None, save_dir: str | None = None) -> dict:
    latencies, codes, digests = [], [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        elapsed, rc, stdout = _run_op(cli, op["argv"])
        latencies.append(elapsed)
        codes.append(rc)
        digests.append(_op_digest(stdout, op["files"]) if rc == 0 else "")
        if save_dir is not None:
            with open(os.path.join(save_dir, f"op{i:03d}.out"), "w") as f:
                f.write(stdout)
    return {"latencies": latencies, "codes": codes, "digests": digests}


def _setup(ops_path: str) -> tuple[object, list[dict], float]:
    """Import chainplan.cli and run the warm-up op; returns (cli, ops, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import chainplan.cli as cli

    with open(ops_path) as f:
        spec = json.load(f)
    _run_op(cli, spec["ops"][spec["warmup"]]["argv"])
    return cli, spec["ops"], time.perf_counter() - start


def _kernel() -> float:
    """Time of one execution of a fixed pure-Python kernel: a host speed reading.

    It allocates tuples and strings and fills a dict, like the planner and the
    reports do, but never touches chainplan, so a change to the program
    cannot move it.
    """
    start = time.perf_counter()
    rows = [tuple(range(40)) for _ in range(4000)]
    names = {i: str(i) for i in range(3000)}
    elapsed = time.perf_counter() - start
    del rows, names
    return elapsed


def _snapshot(tracer) -> dict:
    counts = dict(tracer.counts)
    for name, (calls, total, self_s) in tracer.stats.items():
        counts[f"{name}.calls"] = calls
        counts[f"{name}.s"] = total
        counts[f"{name}.self_s"] = self_s
    return counts


def _repeats(latencies: list[float]) -> list[int]:
    """Executions per round of each op: cheap ops run several times.

    An op that took t in the first round, below the mean m of that round,
    runs about m / t times per round (at most MAX_REPEATS), in separate
    passes over the pool, so that its mean time is taken over many moments of
    the run. A long op already averages the host's short slow phases within
    one execution. A round then takes about twice as long as one pass.
    """
    mean = sum(latencies) / len(latencies)
    return [max(1, min(MAX_REPEATS, round(mean / t))) for t in latencies]


def _differs(first: dict, i: int, rc, stdout: str, files: list[str]) -> bool:
    if rc != first["codes"][i]:
        return True
    return rc == 0 and _op_digest(stdout, files) != first["digests"][i]


def _timed(cli, ops: list[dict], first: dict, seconds: float, min_executions: int, begin: float) -> dict:
    """Timed rounds of passes, while the next execution still fits in `seconds`.

    `first` is the untimed round 1, which warms every code path up. Later
    rounds must reproduce its outputs, and go on at least until every op has
    run `min_executions` timed times. Between ops, after every KERNEL_EVERY_S
    of op time, the kernel runs once.
    """
    repeats = _repeats(first["latencies"])
    passes = [[i for i, k in enumerate(repeats) if k > j] for j in range(max(repeats))]
    last = list(first["latencies"])
    times: list[list[float]] = [[] for _ in ops]
    kernel = []
    since_kernel = KERNEL_EVERY_S
    mismatches = []
    rounds = 1
    while True:
        for members in passes:
            for i in members:
                if time.perf_counter() - begin + last[i] > seconds and min(map(len, times)) >= min_executions:
                    return {"times": times, "kernel": kernel, "rounds": rounds, "repeats": repeats,
                            "mismatches": mismatches}
                if since_kernel >= KERNEL_EVERY_S:
                    kernel.append(_kernel())
                    since_kernel = 0.0
                elapsed, rc, stdout = _run_op(cli, ops[i]["argv"])
                since_kernel += elapsed
                last[i] = elapsed
                times[i].append(elapsed)
                if _differs(first, i, rc, stdout, ops[i]["files"]):
                    mismatches.append(i)
        rounds += 1


def _traced(cli, ops: list[dict], first: dict, seconds: float, begin: float, out_dir: str) -> dict:
    """Rounds of one pass each after `first`, traced and untraced in turn.

    Runs at least one traced and one more untraced round, so that both
    tracing overhead and the repetition of the work counts can be checked.
    """
    import chainplan
    from tracer import Tracer

    tracer = Tracer(chainplan)
    rounds = [{"latencies": first["latencies"], "traced": False}]
    mismatches = []
    while True:
        traced = len(rounds) % 2 == 1
        if traced:
            before = _snapshot(tracer)
            tracer.install()
        r = _round(cli, ops, tracer if traced else None)
        if traced:
            tracer.uninstall()
            after = _snapshot(tracer)
            r["layers"] = {k: v - before.get(k, 0) for k, v in after.items()}
        r["traced"] = traced
        mismatches += [i for i in range(len(ops))
                       if (r["codes"][i], r["digests"][i]) != (first["codes"][i], first["digests"][i])]
        del r["codes"], r["digests"]
        rounds.append(r)
        last = max(sum(x["latencies"]) for x in rounds[-2:])
        if time.perf_counter() - begin + last > seconds and len(rounds) >= 3:
            break
    spans = tracer.write_spans(os.path.join(out_dir, "spans.jsonl"))
    return {"rounds": rounds, "mismatches": mismatches, "spans_written": spans}


def _measure(cli, ops: list[dict], seconds: float, min_executions: int, trace: bool, out_dir: str) -> dict:
    begin = time.perf_counter()
    first = _round(cli, ops, save_dir=out_dir)
    if trace:
        result = _traced(cli, ops, first, seconds, begin, out_dir)
    else:
        result = _timed(cli, ops, first, seconds, min_executions, begin)
    result.update(
        codes=first["codes"],
        digests=first["digests"],
        measured_s=time.perf_counter() - begin,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "once"), required=True)
    parser.add_argument("--ops", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-executions", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    cli, ops, setup_s = _setup(args.ops)
    setup_kernel_s = sum(_kernel() for _ in range(SETUP_KERNEL_RUNS)) / SETUP_KERNEL_RUNS
    result: dict = {"setup_s": setup_s, "setup_kernel_s": setup_kernel_s}
    if args.mode == "measure":
        result.update(_measure(cli, ops, args.seconds, args.min_executions, bool(args.trace), args.out_dir))
    elif args.mode == "once":
        result["rounds"] = [_round(cli, ops, save_dir=args.out_dir)]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
