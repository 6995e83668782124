#!/usr/bin/env python3
"""Standalone recomputation of the frozen expected values used by the test suite.

Nothing in this file imports the package under test. Every function rederives
its number from first principles: plain arithmetic, direct sequence scans,
exhaustive enumeration, or bisection. The tests import these functions and
compare them against both the frozen constants and the package's output, so
the main implementation is always checked against an independent path.

Run as a script to print all values.
"""

from __future__ import annotations

import itertools

# Capacity profile: name -> (smartnic_gbps, cpu_gbps). "C2" is the generic
# CPU-side tail vNF shipped with the golden scenarios; it reuses the load
# balancer's row.
CAPS = {
    "LB": (15.0, 4.0),
    "Logger": (2.0, 4.0),
    "Monitor": (3.2, 10.0),
    "Firewall": (10.0, 4.0),
    "C2": (15.0, 4.0),
}

GOLDEN_CHAIN = ("LB", "Logger", "Monitor", "Firewall", "C2")
GOLDEN_PLACEMENT = ("C", "S", "S", "S", "C")  # anchors are SmartNIC on both ends


def crossings(placements, ingress="S", egress="S"):
    """Count adjacent placement changes, anchors included."""
    seq = (ingress, *placements, egress)
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def left_to_right(values):
    """Float sum in list order. Builtin `sum` compensates rounding from
    Python 3.12 on; the frozen values are plain left-to-right sums."""
    total = 0
    for value in values:
        total += value
    return total


def device_utilization(theta, caps):
    return left_to_right(theta / cap for cap in caps)


def golden_smartnic_utilization(theta=1.2):
    caps = [CAPS[n][0] for n, p in zip(GOLDEN_CHAIN, GOLDEN_PLACEMENT) if p == "S"]
    return device_utilization(theta, caps)


def golden_post_border_migration_utils(theta=1.2):
    """Utilizations after the single border step (Logger to CPU) at 1.2 Gbps."""
    smartnic = theta / CAPS["Monitor"][0] + theta / CAPS["Firewall"][0]
    cpu = theta / CAPS["LB"][1] + theta / CAPS["C2"][1] + theta / CAPS["Logger"][1]
    return smartnic, cpu


def golden_crossing_counts():
    """(input, bottleneck-baseline post, border-migration post) crossing counts."""
    before = crossings(GOLDEN_PLACEMENT)
    naive_post = crossings(("C", "S", "C", "S", "C"))  # Monitor pushed to CPU
    pam_post = crossings(("C", "C", "S", "S", "C"))  # Logger pushed to CPU
    return before, naive_post, pam_post


def bisect_max_throughput(smartnic_caps, cpu_caps, hi=1e6, iters=200):
    """Largest T with both device utilizations strictly below 1, by bisection."""
    lo = 0.0
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        s = left_to_right(mid / c for c in smartnic_caps)
        c = left_to_right(mid / c for c in cpu_caps)
        if s >= 1.0 or c >= 1.0:
            hi = mid
        else:
            lo = mid
    return lo


def bottleneck_scenario_throughputs():
    """Post-plan throughput bounds for the Monitor-bottleneck chain (Monitor smartnic cap 1.8).

    Border migration leaves Monitor+Firewall on the SmartNIC and LB, Logger,
    C2 on the CPU; the baseline leaves Logger+Firewall on the SmartNIC and
    LB, Monitor, C2 on the CPU.
    """
    post_pam = bisect_max_throughput([1.8, 10.0], [4.0, 4.0, 4.0])
    post_naive = bisect_max_throughput([2.0, 10.0], [4.0, 10.0, 4.0])
    return post_pam, post_naive


def golden_minimum_migration_sets(theta=1.2):
    """Exhaustive scan of all 32 placements of the golden chain.

    Returns every smallest set of SmartNIC-to-CPU moves whose result is
    feasible on both devices without adding crossings. Two such singletons
    exist at 1.2 Gbps: {Logger} and, because 0.6 + 0.375 squeaks under 1,
    {Firewall}.
    """
    base_cross = crossings(GOLDEN_PLACEMENT)
    feasible_moves = []
    for bits in itertools.product("SC", repeat=len(GOLDEN_CHAIN)):
        if any(a == "C" and b == "S" for a, b in zip(GOLDEN_PLACEMENT, bits)):
            continue  # not reachable by SmartNIC-to-CPU moves alone
        moved = frozenset(
            n for n, a, b in zip(GOLDEN_CHAIN, GOLDEN_PLACEMENT, bits) if a == "S" and b == "C"
        )
        s_util = left_to_right(theta / CAPS[n][0] for n, p in zip(GOLDEN_CHAIN, bits) if p == "S")
        c_util = left_to_right(theta / CAPS[n][1] for n, p in zip(GOLDEN_CHAIN, bits) if p == "C")
        if s_util < 1.0 and c_util < 1.0 and crossings(bits) <= base_cross:
            feasible_moves.append(moved)
    smallest = min(len(m) for m in feasible_moves)
    return {m for m in feasible_moves if len(m) == smallest}


def golden_first_feasible_subset(theta=1.2):
    """First placement of the golden chain, in binary-counting order (bit j
    set puts vNF j on the CPU, chain position 0 least significant), that
    moves only SmartNIC vNFs to the CPU and fits both devices without adding
    crossings. Several fit at 1.2 Gbps; C,C,S,S,C (index 0b10011) is first.
    """
    base_cross = crossings(GOLDEN_PLACEMENT)
    n = len(GOLDEN_CHAIN)
    for index in range(1 << n):
        bits = tuple("C" if (index >> j) & 1 else "S" for j in range(n))
        if any(a == "C" and b == "S" for a, b in zip(GOLDEN_PLACEMENT, bits)):
            continue  # moves a CPU vNF to the SmartNIC
        s_util = left_to_right(theta / CAPS[m][0] for m, p in zip(GOLDEN_CHAIN, bits) if p == "S")
        c_util = left_to_right(theta / CAPS[m][1] for m, p in zip(GOLDEN_CHAIN, bits) if p == "C")
        if s_util < 1.0 and c_util < 1.0 and crossings(bits) <= base_cross:
            return ",".join(bits)
    return "none"


def two_step_hand_trace():
    """Straight-line trace of the two-step scenario.

    Monitor's smartnic cap is 1.8; LB, Logger and C2 have cpu cap 8; the load
    is 1.6 Gbps. Asserts every inequality the greedy loop would test and
    returns the migration order plus the final SmartNIC utilization.
    """
    theta = 1.6
    s_cap = {"Logger": 2.0, "Monitor": 1.8, "Firewall": 10.0}
    c_cap = {"LB": 8.0, "Logger": 8.0, "Monitor": 10.0, "C2": 8.0}

    overload = theta / s_cap["Logger"] + theta / s_cap["Monitor"] + theta / s_cap["Firewall"]
    assert overload >= 1.0

    steps = []
    # Round 1: borders are Logger (left) and Firewall (right); Logger has the
    # smaller smartnic capacity and the CPU can absorb it.
    assert s_cap["Logger"] < s_cap["Firewall"]
    cpu_util = theta / c_cap["LB"] + theta / c_cap["C2"]
    assert cpu_util + theta / c_cap["Logger"] < 1.0
    steps.append("Logger")
    cpu_util += theta / c_cap["Logger"]
    residual = theta / s_cap["Monitor"] + theta / s_cap["Firewall"]
    assert residual >= 1.0  # not alleviated; Monitor becomes the new left border

    # Round 2: Monitor vs Firewall; Monitor is the smaller capacity.
    assert s_cap["Monitor"] < s_cap["Firewall"]
    assert cpu_util + theta / c_cap["Monitor"] < 1.0
    steps.append("Monitor")
    residual = theta / s_cap["Firewall"]
    assert residual < 1.0  # alleviated; loop stops
    return steps, residual


def latency_calibration():
    """Crossing-cost arithmetic for the shipped (51 us) and alternative (71 us) profiles.

    Returns {proc_sum: (naive_latency, pam_latency, reduction_pct)} at 10 us
    per crossing, with the baseline ending on 6 crossings and border
    migration on 4.
    """
    out = {}
    for proc_sum in (51.0, 71.0):
        naive = proc_sum + 6 * 10.0
        pam = proc_sum + 4 * 10.0
        out[proc_sum] = (naive, pam, 100.0 * (naive - pam) / naive)
    return out


def bottleneck_crossing_deltas():
    """Crossing deltas vs the input when Monitor (smartnic cap 1.8) bottlenecks at 1 Gbps."""
    before, naive_post, pam_post = golden_crossing_counts()
    return naive_post - before, pam_post - before


def underload_utilization(theta=0.5):
    return golden_smartnic_utilization(theta)


def cpu_headroom_values():
    """CPU sums for the headroom examples at 1.2 and 1.5 Gbps (candidate Logger)."""
    vals = {}
    for theta in (1.2, 1.5):
        cpu = theta / CAPS["LB"][1] + theta / CAPS["C2"][1]
        vals[theta] = cpu + theta / CAPS["Logger"][1]
    return vals


def main():
    print(f"golden smartnic utilization @1.2     = {golden_smartnic_utilization()!r}")
    print(f"golden post-border utils @1.2        = {golden_post_border_migration_utils()!r}")
    print(f"golden crossings (in, naive, border) = {golden_crossing_counts()!r}")
    print(f"bottleneck throughputs (border, naive) = {bottleneck_scenario_throughputs()!r}")
    print(f"golden minimum migration sets @1.2   = {sorted(sorted(m) for m in golden_minimum_migration_sets())!r}")
    print(f"golden first feasible subset @1.2    = {golden_first_feasible_subset()!r}")
    print(f"two-step trace                       = {two_step_hand_trace()!r}")
    print(f"latency calibration                  = {latency_calibration()!r}")
    print(f"bottleneck crossing deltas           = {bottleneck_crossing_deltas()!r}")
    print(f"underload utilization @0.5           = {underload_utilization()!r}")
    print(f"cpu headroom values                  = {cpu_headroom_values()!r}")


if __name__ == "__main__":
    main()
