"""Strict scenario (JSON) and trace (CSV) file formats.

The scenario schema is strict: unknown and duplicate keys are rejected at
every level so golden files stay authoritative, and every number in either
format must be finite. Specs resolve against the built-in capacity
profile, with `spec_overrides` patching known names field-by-field or
defining new ones (which must carry both capacities).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .model import (
    DEFAULT_PCIE_LATENCY_US,
    LoadState,
    Placement,
    Scenario,
    ServiceChain,
    ValidationReport,
    VnfInstance,
    VnfSpec,
    builtin_table1,
    validate,
)

TOP_LEVEL_KEYS = {"chain", "anchors", "spec_overrides", "theta_cur", "pcie_latency_us"}
CHAIN_ENTRY_KEYS = {"id", "spec", "placement"}
ANCHOR_KEYS = {"ingress", "egress"}
OVERRIDE_KEYS = {"cap_smartnic", "cap_cpu", "proc_latency_smartnic", "proc_latency_cpu"}

TRACE_HEADER = ("t", "theta_cur_gbps")


class ScenarioFormatError(ValueError):
    """Malformed scenario or trace file; the message names the offending key or line."""


class ScenarioValidationError(ValueError):
    """A structurally well-formed scenario violating a model invariant."""

    def __init__(self, report: ValidationReport):
        self.report = report
        lines = "; ".join(f"{v.code} at {v.where}" for v in report.violations)
        super().__init__(f"scenario failed validation: {lines}")


@dataclass(frozen=True)
class TracePoint:
    """One load sample: time in seconds and chain throughput in Gbps."""

    t: float
    theta_cur: float


def _require_keys(data: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ScenarioFormatError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _number(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioFormatError(f"{where} must be a finite number, got {value!r}")
    return number


def _string(value: object, where: str) -> str:
    if not isinstance(value, str):
        raise ScenarioFormatError(f"{where} must be a string, got {value!r}")
    return value


def _placement(value: object, where: str) -> Placement:
    try:
        return Placement.parse(_string(value, where))
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def scenario_from_dict(data: object) -> Scenario:
    """Build and validate a Scenario from parsed JSON."""
    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    _require_keys(data, TOP_LEVEL_KEYS, "scenario")
    for key in ("chain", "theta_cur"):
        if key not in data:
            raise ScenarioFormatError(f"missing required key '{key}'")

    chain_data = data["chain"]
    if not isinstance(chain_data, list):
        raise ScenarioFormatError("'chain' must be a list")
    vnfs = []
    for pos, entry in enumerate(chain_data):
        where = f"chain[{pos}]"
        if not isinstance(entry, dict):
            raise ScenarioFormatError(f"{where} must be an object")
        _require_keys(entry, CHAIN_ENTRY_KEYS, where)
        for key in ("id", "spec", "placement"):
            if key not in entry:
                raise ScenarioFormatError(f"missing required key '{key}' in {where}")
        vnfs.append(
            VnfInstance(
                id=_string(entry["id"], f"{where}.id"),
                spec=_string(entry["spec"], f"{where}.spec"),
                placement=_placement(entry["placement"], f"{where}.placement"),
            )
        )

    anchors = data.get("anchors", {})
    if not isinstance(anchors, dict):
        raise ScenarioFormatError("'anchors' must be an object")
    _require_keys(anchors, ANCHOR_KEYS, "anchors")
    ingress = (
        _placement(anchors["ingress"], "anchors.ingress")
        if "ingress" in anchors
        else Placement.SMARTNIC
    )
    egress = (
        _placement(anchors["egress"], "anchors.egress")
        if "egress" in anchors
        else Placement.SMARTNIC
    )

    specs = builtin_table1()
    overrides = data.get("spec_overrides", {})
    if not isinstance(overrides, dict):
        raise ScenarioFormatError("'spec_overrides' must be an object")
    for name, entry in overrides.items():
        where = f"spec_overrides[{name}]"
        if not isinstance(entry, dict):
            raise ScenarioFormatError(f"{where} must be an object")
        _require_keys(entry, OVERRIDE_KEYS, where)
        fields = {key: _number(entry[key], f"{where}.{key}") for key in entry}
        base = specs.get(name)
        if base is None:
            for key in ("cap_smartnic", "cap_cpu"):
                if key not in fields:
                    raise ScenarioFormatError(
                        f"{where} defines a new spec and must include '{key}'"
                    )
            specs[name] = VnfSpec(name=name, **fields)
        else:
            specs[name] = replace(base, **fields)

    theta_cur = _number(data["theta_cur"], "theta_cur")
    pcie = (
        _number(data["pcie_latency_us"], "pcie_latency_us")
        if "pcie_latency_us" in data
        else DEFAULT_PCIE_LATENCY_US
    )

    scenario = Scenario(
        chain=ServiceChain(tuple(vnfs), ingress_anchor=ingress, egress_anchor=egress),
        specs=specs,
        load=LoadState(theta_cur),
        pcie_latency_us=pcie,
    )
    report = validate(scenario)
    if not report.ok:
        raise ScenarioValidationError(report)
    return scenario


@dataclass(frozen=True)
class _Constant:
    """A bare NaN or +-Infinity, held until the object hook knows its key."""

    name: str


def _strict_object(pairs: list[tuple[str, object]]) -> dict:
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise ScenarioFormatError(f"duplicate key {key!r}")
        if isinstance(value, _Constant):
            raise ScenarioFormatError(f"{key} must be a finite number, got {value.name}")
        data[key] = value
    return data


def load_scenario(path: str | Path) -> Scenario:
    """Parse, resolve and validate a scenario file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text, parse_constant=_Constant, object_pairs_hook=_strict_object)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(data)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of scenario_from_dict for validated scenarios.

    Specs differing from (or absent in) the built-in profile are written as
    full override entries, so reloading reproduces the catalog exactly.
    """
    builtin = builtin_table1()
    overrides = {}
    for name, spec in scenario.specs.items():
        if builtin.get(name) != spec:
            overrides[name] = {
                "cap_smartnic": spec.cap_smartnic,
                "cap_cpu": spec.cap_cpu,
                "proc_latency_smartnic": spec.proc_latency_smartnic,
                "proc_latency_cpu": spec.proc_latency_cpu,
            }
    return {
        "chain": [
            {"id": v.id, "spec": v.spec, "placement": v.placement.value}
            for v in scenario.chain.vnfs
        ],
        "anchors": {
            "ingress": scenario.chain.ingress_anchor.value,
            "egress": scenario.chain.egress_anchor.value,
        },
        "spec_overrides": overrides,
        "theta_cur": scenario.load.theta_cur,
        "pcie_latency_us": scenario.pcie_latency_us,
    }


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def load_trace(path: str | Path) -> tuple[TracePoint, ...]:
    """Parse a trace CSV with header t,theta_cur_gbps and at least one data
    row; t must strictly increase."""
    text = Path(path).read_text()
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != TRACE_HEADER:
        raise ScenarioFormatError(
            f"{path}: trace header must be '{','.join(TRACE_HEADER)}'"
        )
    points: list[TracePoint] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ScenarioFormatError(f"{path}: line {lineno}: expected 2 fields")
        try:
            t, theta = float(row[0]), float(row[1])
        except ValueError as exc:
            raise ScenarioFormatError(f"{path}: line {lineno}: {exc}") from exc
        if not (math.isfinite(t) and math.isfinite(theta)):
            raise ScenarioFormatError(f"{path}: line {lineno}: values must be finite")
        if points and t <= points[-1].t:
            raise ScenarioFormatError(
                f"{path}: line {lineno}: t must be strictly increasing"
            )
        if theta < 0:
            raise ScenarioFormatError(
                f"{path}: line {lineno}: theta_cur_gbps must be >= 0"
            )
        points.append(TracePoint(t, theta))
    if not points:
        raise ScenarioFormatError(f"{path}: trace has no data rows")
    return tuple(points)
