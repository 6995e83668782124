"""Exhaustive ground truth for small chains.

`verify_plan` replays an emitted migration plan and certifies its outcome.
A ScaleOutRequired verdict is decided by a pruned walk over every way of
moving SmartNIC vNFs to the CPU without adding crossings. Every placement
that iterated border migration reaches is one of them, so when the walk
finds none that fits, no border migration can relieve the SmartNIC; only
when it finds one is the border-peel closure scanned, to name the first
peelable witness. `enumerate_placements` is the reference full scan of all
2^n placements. Both are capped at 20 vNFs. Every fit decision is a
`resources.fits` call on hosted ratios in chain order; nothing carries sums.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Mapping, NamedTuple, Sequence

from .model import Placement, ServiceChain, VnfSpec
from .perf import count_crossings
from .planner import MigrationPlan, PlanOutcome, identify_borders
from .resources import demand_ratios, device_sums, fits, hosted

MAX_ORACLE_CHAIN = 20


class ChainTooLongError(ValueError):
    """Chain exceeds the exhaustive-enumeration cap."""


class PlacementRecord(NamedTuple):
    """One point of the placement space, scored.

    `migrations_from_input` counts vNFs moved SmartNIC-to-CPU relative to the
    input chain; placements that also move something the other way are not
    reachable by migration and can be recognized by comparing vectors.
    """

    placement_vector: tuple[Placement, ...]
    feasible_smartnic: bool
    feasible_cpu: bool
    crossings: int
    migrations_from_input: int


class AssertionResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class VerificationReport(NamedTuple):
    passed: bool
    assertions: tuple[AssertionResult, ...]
    info: tuple[tuple[str, str], ...] = ()


def _vector_label(vec: tuple[Placement, ...]) -> str:
    return ",".join("S" if p is Placement.SMARTNIC else "C" for p in vec)


def _both_fit(vec: Sequence[Placement], nic: list[float], cpu: list[float]) -> bool:
    return fits(hosted(nic, vec, Placement.SMARTNIC)) and fits(hosted(cpu, vec, Placement.CPU))


def _check_length(chain: ServiceChain) -> None:
    if len(chain) > MAX_ORACLE_CHAIN:
        raise ChainTooLongError(
            f"chain has {len(chain)} vNFs; enumeration is capped at {MAX_ORACLE_CHAIN}"
        )


def enumerate_placements(
    chain: ServiceChain, specs: Mapping[str, VnfSpec], theta_cur: float
) -> tuple[PlacementRecord, ...]:
    """Reference full scan: score all 2^n placements in binary counting order.

    Record index 0 is the all-SmartNIC vector; bit j of the index gives vNF
    j's placement (set bit = CPU), with chain position 0 as the least
    significant bit.
    """
    _check_length(chain)
    n = len(chain)
    s_ratio, c_ratio = demand_ratios(chain, specs, theta_cur)
    input_vec = chain.placements

    records = []
    for k in range(1 << n):
        vec = tuple(
            Placement.CPU if (k >> j) & 1 else Placement.SMARTNIC for j in range(n)
        )
        seq = (chain.ingress_anchor, *vec, chain.egress_anchor)
        crossings = sum(1 for a, b in zip(seq, seq[1:]) if a is not b)
        migrations = sum(
            1
            for j in range(n)
            if input_vec[j] is Placement.SMARTNIC and vec[j] is Placement.CPU
        )
        s_fits = fits(hosted(s_ratio, vec, Placement.SMARTNIC))
        c_fits = fits(hosted(c_ratio, vec, Placement.CPU))
        records.append(PlacementRecord(vec, s_fits, c_fits, crossings, migrations))
    return tuple(records)


def border_peel_closure(chain: ServiceChain) -> Iterator[tuple[Placement, ...]]:
    """Every placement vector reachable by repeatedly migrating border vNFs
    to the CPU, breadth-first from the input's and expanding borders in
    chain order. Each state carries its border set: migrating vNF i drops i
    and makes its SmartNIC neighbours borders, so a vector seen once (its
    borders are fixed by it and the anchors) needs no second visit.
    """
    n = len(chain)
    seen = {chain.placements}
    queue = deque([(chain.placements, identify_borders(chain))])
    while queue:
        vec, borders = queue.popleft()
        yield vec
        for i in sorted(borders):
            nxt = (*vec[:i], Placement.CPU, *vec[i + 1:])
            if nxt not in seen:
                seen.add(nxt)
                peeled = {j for j in (i - 1, i + 1) if 0 <= j < n and nxt[j] is Placement.SMARTNIC}
                queue.append((nxt, borders - {i} | peeled))


def _first_reachable_witness(
    chain: ServiceChain,
    s_ratio: list[float],
    c_ratio: list[float],
    base_crossings: int,
) -> tuple[Placement, ...] | None:
    """First placement, in `enumerate_placements` order, that keeps the
    input's CPU vNFs on the CPU, fits strictly on both devices and has at
    most `base_crossings` crossings; None if there is none.

    Only the 2^k subsets of the k SmartNIC vNFs can qualify. A depth-first
    walk decides them from the highest chain index down, staying on the
    SmartNIC first, so its leaves come in increasing binary-counting index.
    Each decision asks `fits` of the ratios its device hosts so far, in
    chain order: staying, of the SmartNIC vNFs decided to stay; moving (and
    once at the start), of the CPU vNFs. Every leaf below hosts them too,
    and a chain-order sum of ratios >= 0 never decreases when a term is
    inserted (rounding is monotone), so a failed test rules out every leaf
    below, and a leaf that is reached fits on both devices with no further
    test. Crossings only accumulate, so decided ones past `base_crossings`
    rule out every leaf below too.
    """
    # row[j + 1] is vNF j's placement, between the anchors. The anchors and
    # the input's CPU vNFs are fixed; each SmartNIC position reads None until
    # the walk decides it, before anything to its left.
    row: list[Placement | None] = list(chain.placement_sequence())
    free = [j for j in range(len(chain)) if row[j + 1] is Placement.SMARTNIC]
    for j in free:
        row[j + 1] = None
    cross0 = sum(1 for a, b in zip(row, row[1:]) if a is not b and None not in (a, b))
    if cross0 > base_crossings or not fits(hosted(c_ratio, row[1:-1], Placement.CPU)):
        return None

    def walk(t: int, cross: int) -> tuple[Placement, ...] | None:
        if t < 0:
            return tuple(row[1:-1])
        p = free[t]
        left, right = row[p], row[p + 2]  # right is decided, left only if fixed
        for place, ratios in ((Placement.SMARTNIC, s_ratio), (Placement.CPU, c_ratio)):
            cross_next = cross + (place is not right) + (left is not None and place is not left)
            if cross_next > base_crossings:
                continue
            row[p + 1] = place
            if fits(hosted(ratios, row[1:-1], place)):
                found = walk(t - 1, cross_next)
                if found is not None:
                    return found
        row[p + 1] = None
        return None

    try:
        return walk(len(free) - 1, cross0)
    finally:
        # `walk` refers to itself; dropping it here frees it, and the lists it
        # holds, without waiting for the cycle collector.
        del walk


def verify_plan(
    chain: ServiceChain,
    specs: Mapping[str, VnfSpec],
    theta_cur: float,
    plan: MigrationPlan,
    *,
    require_crossing_nonincrease: bool = True,
) -> VerificationReport:
    """Replay and certify a migration plan against brute-force ground truth.

    Asserts that (a) the steps really transform the input into `post_chain`,
    (b) a Resolved plan leaves both devices strictly under capacity, (c) the
    post chain adds no PCIe crossings -- disable for baselines that are
    allowed to add them -- and (d) no placement reachable through iterated
    border migration fits a ScaleOutRequired outcome. (d) is decided by the
    walk behind `global_feasible_subset`, whose leaves include every such
    placement; the border-peel closure is scanned only when the walk finds a
    fitting subset, to name the witness. Failed assertions name the
    witness placement or the differing column. Failures are report
    content, not exceptions.
    """
    _check_length(chain)
    s_ratio, c_ratio = demand_ratios(chain, specs, theta_cur)
    assertions: list[AssertionResult] = []
    info: list[tuple[str, str]] = []

    # (a) post_chain is the input with exactly the steps applied, in order.
    # Steps move placements only, so the other columns must be the input's.
    placed = list(chain.placements)
    replay_problem = ""
    for step_no, vnf_id in enumerate(plan.steps, start=1):
        try:
            idx = chain.ids.index(vnf_id)
        except ValueError:
            replay_problem = f"step {step_no} names unknown vNF {vnf_id!r}"
            break
        if placed[idx] is not Placement.SMARTNIC:
            replay_problem = (
                f"step {step_no} migrates {vnf_id!r} which is not on the SmartNIC "
                f"in {_vector_label(placed)}"
            )
            break
        placed[idx] = Placement.CPU
    post = plan.post_chain
    if not replay_problem and tuple(placed) != post.placements:
        replay_problem = (
            f"replayed steps give {_vector_label(placed)} but post_chain is "
            f"{_vector_label(post.placements)}"
        )
    elif not replay_problem:
        for column in ("ids", "spec_names", "ingress_anchor", "egress_anchor"):
            mine, theirs = getattr(chain, column), getattr(post, column)
            if mine != theirs:
                replay_problem = f"replayed steps give {column} {mine} but post_chain has {theirs}"
                break
    assertions.append(AssertionResult("reachability", not replay_problem, replay_problem))

    # (b) Resolved means strictly feasible on both devices.
    if plan.outcome is PlanOutcome.RESOLVED:
        # Scored on post_chain's own specs: (a) may have found it is not the
        # input's vNFs re-placed.
        unknown = next((name for name in post.spec_names if name not in specs), None)
        if unknown is not None:
            ok, detail = False, f"post_chain names unknown spec {unknown!r}"
        else:
            s_post, c_post = demand_ratios(post, specs, theta_cur)
            ok = _both_fit(post.placements, s_post, c_post)
            detail = "" if ok else "post placement {} has smartnic={!r}, cpu={!r}".format(
                _vector_label(post.placements), *device_sums(s_post, c_post, post.placements)
            )
        assertions.append(AssertionResult("resolved_feasibility", ok, detail))

    # (c) crossings must not grow.
    if require_crossing_nonincrease:
        before = count_crossings(chain)
        after = count_crossings(post)
        ok = after <= before
        detail = "" if ok else (
            f"crossings {after} > {before} for placement {_vector_label(post.placements)}"
        )
        assertions.append(AssertionResult("crossing_nonincrease", ok, detail))

    # (d) ScaleOutRequired must survive the border-peeling closure.
    if plan.outcome is PlanOutcome.SCALE_OUT_REQUIRED:
        # The walk decides (d): every closure placement keeps the input's CPU
        # vNFs on the CPU and adds no crossings (migrating a border changes
        # the count by 0 or -2), so it is a leaf of the walk, tested with the
        # same `fits`. The closure is scanned only when some subset fits, to
        # name its first witness in breadth-first order, if it has one.
        global_witness = _first_reachable_witness(chain, s_ratio, c_ratio, count_crossings(chain))
        witness = None if global_witness is None else next(
            (vec for vec in border_peel_closure(chain) if _both_fit(vec, s_ratio, c_ratio)), None
        )
        ok = witness is None
        detail = "" if ok else (
            f"border-peelable placement {_vector_label(witness)} is fully "
            "feasible without adding crossings"
        )
        assertions.append(AssertionResult("scale_out_certified", ok, detail))
        # Border migration can never reach interior vNFs, so the walk's first
        # fitting subset, if any, is reported too.
        info.append(
            (
                "global_feasible_subset",
                "none" if global_witness is None else _vector_label(global_witness),
            )
        )

    passed = all(a.passed for a in assertions)
    return VerificationReport(passed, tuple(assertions), tuple(info))
