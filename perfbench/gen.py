"""Seeded input generator for the chainplan benchmark.

Writes scenario JSON and trace CSV files for one workload and returns the
pool of operations (the argv a user would type) that a benchmark round runs.
The generator is pure Python and never imports chainplan: the program only
ever sees the files.

Chain lengths, trace lengths and load classes follow a fixed stratified
design per workload, so every seed exercises the same spread of sizes, while
the chains themselves (vNF types, SmartNIC/CPU runs, capacities, loads,
traces, op order) come from the seed. Host noise on small machines is large;
keeping the cost-relevant design fixed keeps seeds comparable. Nothing is
filtered by what the planner or oracle does with an input: the
certify_small boundary slice keeps the cases the program mishandles. That
slice is the one part that does not depend on the seed: it is the same 40
loads in every run, so the number of ops it fails is a fixed property of the
program (it drops to 0 when the float-order defect is fixed) and does not
change from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

S, C = "SmartNIC", "CPU"

# The largest inputs. A plan costs about n^2 and a replay about n * points,
# so these set how many times a run can repeat each op within its seconds.
# 3000 vNFs and 2000 points leave room for only one or two executions of the
# largest ops in a run of half a minute, too few to see past the noise of a
# small shared host.
LONG_MAX = 1500
TRACE_MAX = 1000


@dataclass
class Chain:
    """The generator's own copy of a scenario, used by the output checks."""

    ids: list[str]
    spec: list[str]
    placement: list[str]
    caps: dict[str, tuple[float, float]]  # spec name -> (cap_smartnic, cap_cpu)
    theta: float
    anchors: tuple[str, str] = (S, S)

    def to_doc(self) -> dict:
        return {
            "chain": [
                {"id": i, "spec": s, "placement": p}
                for i, s, p in zip(self.ids, self.spec, self.placement)
            ],
            "anchors": {"ingress": self.anchors[0], "egress": self.anchors[1]},
            "spec_overrides": {
                name: {"cap_smartnic": cs, "cap_cpu": cc} for name, (cs, cc) in self.caps.items()
            },
            "theta_cur": self.theta,
            "pcie_latency_us": 10.0,
        }


@dataclass
class Op:
    """One benchmark operation: a CLI argv plus what the checks need to know."""

    argv: list[str]  # argv[0] is the command: plan, compare or simulate
    scenario: str  # key into Pool.chains
    policy: str = ""
    trace: list[float] = field(default_factory=list)  # theta per trace point (simulate)
    out_files: list[str] = field(default_factory=list)


@dataclass
class Pool:
    ops: list[Op]
    chains: dict[str, Chain]


def _log_ladder(lo: float, hi: float, k: int) -> list[float]:
    """The log-midpoints of k equal log-strata of [lo, hi]."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (i + 0.5) / k) for i in range(k)]


def _placements(rng: random.Random, n: int, mean_run: float) -> list[str]:
    """SmartNIC runs of geometric length split by groups of 1-3 CPU vNFs."""
    out: list[str] = []
    on_nic = rng.random() < 0.7
    while len(out) < n:
        if on_nic:
            run = 1
            while rng.random() > 1.0 / mean_run:
                run += 1
            out.extend([S] * run)
        else:
            out.extend([C] * rng.randint(1, 3))
        on_nic = not on_nic
    out = out[:n]
    if C not in out:
        out[rng.randrange(n)] = C
    if S not in out:
        out[rng.randrange(n)] = S
    return out


def _chain(
    rng: random.Random,
    n: int,
    *,
    nic_ratio: float,
    cpu_all: float,
    mean_run: float,
    n_types: int = 8,
) -> Chain:
    """A chain whose SmartNIC demand is `nic_ratio` x capacity.

    `cpu_all` is the CPU demand if every vNF sat on the CPU; it sets how much
    the CPU can absorb.
    """
    names = [f"T{j}" for j in range(n_types)]
    raw = {t: (math.exp(rng.uniform(0.0, math.log(10.0))), math.exp(rng.uniform(math.log(2.0), math.log(20.0))))
           for t in names}
    spec = [rng.choice(names) for _ in range(n)]
    placement = _placements(rng, n, mean_run)
    nic_inv = math.fsum(1.0 / raw[s][0] for s, p in zip(spec, placement) if p == S)
    theta = nic_ratio / nic_inv
    cpu_inv = math.fsum(1.0 / raw[s][1] for s in spec)
    scale = theta * cpu_inv / cpu_all
    caps = {t: (raw[t][0], raw[t][1] * scale) for t in sorted(set(spec))}
    return Chain([f"v{i}" for i in range(n)], spec, placement, caps, theta)


def _saturated_cpu_chain(rng: random.Random, n: int) -> Chain:
    """SmartNIC over capacity while the CPU is too full to take any vNF.

    Both policies reject every candidate, so both plans end ScaleOutRequired
    and the oracle runs its exhaustive scan for each.
    """
    placement = _placements(rng, n, mean_run=4.0)
    names = [f"T{j}" for j in range(4)]
    spec = [rng.choice(names) if p == S else "H" for p in placement]
    caps_nic = {t: math.exp(rng.uniform(0.0, math.log(10.0))) for t in [*names, "H"]}
    theta = rng.uniform(1.2, 2.0) / math.fsum(1.0 / caps_nic[s] for s, p in zip(spec, placement) if p == S)
    cpu_used = rng.uniform(0.90, 0.97)
    free = 1.0 - cpu_used
    # The CPU-hosted vNFs (type H) fill the CPU to `cpu_used`; every
    # SmartNIC type costs more than the remaining headroom.
    cpu_cap = {t: theta / (free * rng.uniform(1.2, 3.0)) for t in names}
    cpu_cap["H"] = theta * placement.count(C) / cpu_used
    caps = {t: (caps_nic[t], cpu_cap[t]) for t in sorted(set(spec))}
    return Chain([f"v{i}" for i in range(n)], spec, placement, caps, theta)


def _boundary_chain(rng: random.Random, n: int) -> Chain:
    """Capacities that are small integer multiples of the load (cap = theta * k).

    Device sums of theta/cap then hit exactly 1 in real arithmetic, so the
    `< 1` decisions depend on the order in which floats are added.
    """
    theta = rng.choice((0.3, 0.7, 1.0, 1.1, 2.5))
    names = [f"B{j}" for j in range(5)]
    caps = {t: (theta * rng.choice((2, 3, 4, 6)), theta * rng.choice((3, 4, 6, 12))) for t in names}
    spec = [rng.choice(names) for _ in range(n)]
    placement = [rng.choice((S, S, C)) for _ in range(n)]
    if S not in placement:
        placement[0] = S
    used = sorted(set(spec))
    return Chain([f"n{i}" for i in range(n)], spec, placement, {t: caps[t] for t in used}, theta)


def _write_scenario(path: Path, chain: Chain) -> None:
    path.write_text(json.dumps(chain.to_doc(), indent=1) + "\n")


# plan_long uses one fixed catalog of eight vNF types, so the cost of a plan
# depends on the chain's length and load level rather than on a lucky draw
# of capacities: SmartNIC caps spread evenly (in log) over 1..10 Gbps, CPU
# caps over 2..20 Gbps in a different order.
_LONG_TYPES = {f"T{j}": (10 ** (j / 7), 2 * 10 ** ((3 * j % 8) / 7)) for j in range(8)}

# Load class of each of the 56 rungs of the plan_long size ladder: mostly
# 1.1-1.6x SmartNIC overload with CPU headroom, plus NotOverloaded ("fits")
# and CPU-bound ScaleOutRequired rungs spread over the sizes. ScaleOutRequired
# rungs stay at or below ~650 vNFs: naive then rejects every remaining
# SmartNIC vNF one at a time, a quadratic cost. 56 rungs, rather than fewer
# planned more often, average out the seed's effect on each plan's step count.
_LONG_CLASSES = tuple(
    "fits" if i % 7 == 3 else "scale_out" if i % 7 == 5 and i < 40 else "resolve" for i in range(56)
)


def _long_chain(rng: random.Random, n: int, nic_ratio: float, cpu_all: float) -> Chain:
    names = sorted(_LONG_TYPES)
    spec = [rng.choice(names) for _ in range(n)]
    placement = _placements(rng, n, mean_run=12.0)
    nic_inv = math.fsum(1.0 / _LONG_TYPES[s][0] for s, p in zip(spec, placement) if p == S)
    theta = nic_ratio / nic_inv
    scale = theta * math.fsum(1.0 / _LONG_TYPES[s][1] for s in spec) / cpu_all
    caps = {t: (_LONG_TYPES[t][0], _LONG_TYPES[t][1] * scale) for t in sorted(set(spec))}
    return Chain([f"v{i}" for i in range(n)], spec, placement, caps, theta)


def _plan_long(rng: random.Random, out: Path) -> Pool:
    # 56 log-strata of 100..LONG_MAX vNFs, each planned by both policies. The
    # overload of the i-th resolvable rung walks 1.1..1.6 in a fixed
    # low-discrepancy order, so every seed covers the whole range.
    sizes = [round(x) for x in _log_ladder(100, LONG_MAX, len(_LONG_CLASSES))]
    pool = Pool([], {})
    for i, (n, cls) in enumerate(zip(sizes, _LONG_CLASSES)):
        if cls == "resolve":
            chain = _long_chain(rng, n, 1.1 + 0.5 * ((i * 0.618034) % 1.0), cpu_all=1.6)
        elif cls == "fits":
            chain = _long_chain(rng, n, 0.8, cpu_all=1.6)
        else:
            chain = _long_chain(rng, n, 1.6, cpu_all=4.0)
        name = f"long{i:02d}"
        path = out / f"{name}.scenario.json"
        _write_scenario(path, chain)
        pool.chains[name] = chain
        for policy in ("pam", "naive"):
            pool.ops.append(Op(["plan", "--scenario", str(path), "--policy", policy, "--json"], name, policy))
    rng.shuffle(pool.ops)
    return pool


def _certify_small(rng: random.Random, out: Path) -> Pool:
    chains: list[tuple[str, Chain]] = []
    # 60 cheap loads: 45 resolvable, 15 NotOverloaded, 6..14 vNFs. The CPU
    # could host the whole chain, so every resolvable load is Resolved and no
    # seed slips an exhaustive scan into the cheap class.
    for i, n in enumerate(round(x) for x in _log_ladder(6, 14.99, 60)):
        if i % 4 == 3:
            chain = _chain(rng, n, nic_ratio=rng.uniform(0.5, 0.95), cpu_all=1.6, mean_run=4.0, n_types=4)
        else:
            chain = _chain(rng, n, nic_ratio=rng.uniform(1.05, 1.6), cpu_all=rng.uniform(0.6, 0.9), mean_run=4.0,
                           n_types=4)
        chains.append((f"cheap{i:02d}", chain))
    # 20 ScaleOutRequired loads on a fixed 6..12 ladder: the exhaustive path.
    # Its cost doubles with every vNF; 13 and 14 vNFs (0.5 and 1 s an op)
    # would take most of a run and leave each of them too few executions.
    for i in range(20):
        chains.append((f"scale{i:02d}", _saturated_cpu_chain(rng, 6 + round(6 * i / 19))))
    # 40 boundary loads with capacities theta * k, 5..10 vNFs, the same for
    # every seed (see the module docstring).
    edge_rng = random.Random("chainplan-bench:certify_small:boundary")
    for i in range(40):
        chains.append((f"edge{i:02d}", _boundary_chain(edge_rng, 5 + i % 6)))
    pool = Pool([], {})
    for name, chain in chains:
        path = out / f"{name}.scenario.json"
        _write_scenario(path, chain)
        pool.chains[name] = chain
        pool.ops.append(Op(["compare", "--scenario", str(path), "--json"], name))
    rng.shuffle(pool.ops)
    return pool


def _seasonal_trace(rng: random.Random, points: int, cycles: float) -> list[float]:
    """Daily-like load shape: two sinusoids plus noise, scaled so the top is 1."""
    period = points / cycles
    phase = rng.uniform(0, 2 * math.pi)
    raw = [
        1.0
        + 0.45 * math.sin(2 * math.pi * t / period + phase)
        + 0.15 * math.sin(2 * math.pi * t / (period / 3.7))
        + rng.gauss(0.0, 0.03)
        for t in range(points)
    ]
    top = max(raw)
    return [x / top for x in raw]


def _replay_trace(rng: random.Random, out: Path) -> Pool:
    # 37 scenarios on a 5..50 vNF ladder, each replayed under every policy.
    # Trace lengths come from a 200..TRACE_MAX point ladder in a fixed
    # interleaved order, so long traces meet both short and long chains. The
    # peak overload (1.1..1.4x), the CPU headroom and the number of seasonal
    # cycles (2..6) walk their ranges in fixed low-discrepancy orders, so the
    # share of points that cross capacity, which sets the planner's work, is
    # about the same for every seed; the seed draws the chains, the phases
    # and the noise.
    sizes = [round(x) for x in _log_ladder(5, 50, 37)]
    lengths = [round(x) for x in _log_ladder(200, TRACE_MAX, 37)]
    order = [(5 * i) % 37 for i in range(37)]
    pool = Pool([], {})
    for i, n in enumerate(sizes):
        points = lengths[order[i]]
        peak_ratio = 1.1 + 0.3 * ((i * 0.618034) % 1.0)
        chain = _chain(rng, n, nic_ratio=1.0, cpu_all=1.6 + 0.6 * ((i * 0.414214) % 1.0), mean_run=5.0, n_types=6)
        cycles = 2.0 + 4.0 * ((i * 0.754878) % 1.0)
        thetas = [chain.theta * peak_ratio * x for x in _seasonal_trace(rng, points, cycles)]
        name = f"replay{i:02d}"
        scen = out / f"{name}.scenario.json"
        _write_scenario(scen, chain)
        trace = out / f"{name}.trace.csv"
        trace.write_text("t,theta_cur_gbps\n" + "".join(f"{float(t)!r},{x!r}\n" for t, x in enumerate(thetas)))
        pool.chains[name] = chain
        for policy in ("pam", "naive", "none"):
            csv_path = out / f"{name}.{policy}.timeline.csv"
            svg_path = out / f"{name}.{policy}.timeline.svg"
            argv = ["simulate", "--scenario", str(scen), "--trace", str(trace), "--policy", policy,
                    "--out", str(csv_path), "--svg", str(svg_path)]
            pool.ops.append(Op(argv, name, policy, thetas, [str(csv_path), str(svg_path)]))
    rng.shuffle(pool.ops)
    return pool


_BUILDERS = {"plan_long": _plan_long, "certify_small": _certify_small, "replay_trace": _replay_trace}
WORKLOADS = tuple(_BUILDERS)


def generate(workload: str, seed: int, out: Path) -> Pool:
    """Write the inputs of `workload` for `seed` under `out` and return the op pool."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"chainplan-bench:{workload}:{seed}")
    return _BUILDERS[workload](rng, out)
