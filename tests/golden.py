"""Shared builders for the golden chain and its shipped variants."""

from __future__ import annotations

from pathlib import Path

from chainplan import (
    Placement,
    Scenario,
    ServiceChain,
    VnfSpec,
    builtin_table1,
)

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"
TRACE_DIR = ROOT / "traces"

FIG1_SCENARIO = SCENARIO_DIR / "fig1.scenario.json"
MONITOR_BOTTLENECK_SCENARIO = SCENARIO_DIR / "monitor_bottleneck.scenario.json"
TWO_STEP_SCENARIO = SCENARIO_DIR / "two_step.scenario.json"
RAMP_TRACE = TRACE_DIR / "ramp.trace.csv"
SEASONAL_TRACE = TRACE_DIR / "seasonal.trace.csv"

S = Placement.SMARTNIC
C = Placement.CPU


def golden_specs(**overrides: VnfSpec) -> dict[str, VnfSpec]:
    """Built-in profile plus the generic CPU-side tail vNF 'C2'."""
    specs = builtin_table1()
    specs["C2"] = VnfSpec("C2", cap_smartnic=15.0, cap_cpu=4.0)
    specs.update(overrides)
    return specs


def chain_from_rows(rows, ingress: Placement = S, egress: Placement = S) -> ServiceChain:
    """The chain of `rows`, one (id, spec name, placement) per vNF in traffic
    order, turned into the chain's three columns."""
    ids, spec_names, placements = tuple(zip(*rows)) or ((), (), ())
    return ServiceChain(ids, spec_names, placements, ingress, egress)


def golden_chain() -> ServiceChain:
    """LB and C2 on the CPU flanking a three-vNF SmartNIC run."""
    return chain_from_rows(
        [
            ("LB", "LoadBalancer", C),
            ("Logger", "Logger", S),
            ("Monitor", "Monitor", S),
            ("Firewall", "Firewall", S),
            ("C2", "C2", C),
        ]
    )


def golden_scenario(theta: float = 1.2, pcie: float = 10.0, specs=None) -> Scenario:
    return Scenario(
        chain=golden_chain(),
        specs=specs if specs is not None else golden_specs(),
        theta_cur=theta,
        pcie_latency_us=pcie,
    )


def monitor_bottleneck_specs() -> dict[str, VnfSpec]:
    """Monitor's SmartNIC capacity drops to 1.8 Gbps, making it the bottleneck."""
    specs = golden_specs()
    specs["Monitor"] = specs["Monitor"]._replace(cap_smartnic=1.8)
    return specs


def two_step_specs() -> dict[str, VnfSpec]:
    """Monitor bottleneck plus CPU capacities of 8 for LB, Logger and C2."""
    specs = monitor_bottleneck_specs()
    for name in ("LoadBalancer", "Logger", "C2"):
        specs[name] = specs[name]._replace(cap_cpu=8.0)
    return specs


def chain_of(placements: str, ingress: Placement = S, egress: Placement = S) -> ServiceChain:
    """Build an anonymous chain from a placement string like 'SCSS'.

    Every vNF gets the same 4/4 capacities so placement structure is the only
    thing that varies.
    """
    return chain_from_rows(
        [(f"nf{i}", "any", S if ch == "S" else C) for i, ch in enumerate(placements)],
        ingress,
        egress,
    )


UNIFORM_SPECS = {"any": VnfSpec("any", cap_smartnic=4.0, cap_cpu=4.0)}
