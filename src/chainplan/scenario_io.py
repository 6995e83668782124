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
from dataclasses import MISSING, fields, replace
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, TypeVar

from .model import (
    DEFAULT_PCIE_LATENCY_US,
    Placement,
    Scenario,
    ServiceChain,
    ValidationReport,
    VnfSpec,
    builtin_table1,
    validate,
)

TOP_LEVEL_KEYS = ("chain", "anchors", "spec_overrides", "theta_cur", "pcie_latency_us")
CHAIN_ENTRY_KEYS = ("id", "spec", "placement")
ANCHOR_KEYS = ("ingress", "egress")
# Every VnfSpec number may be overridden; a new spec must carry the ones
# without a default (both capacities).
OVERRIDE_KEYS = tuple(f.name for f in fields(VnfSpec) if f.name != "name")
NEW_SPEC_KEYS = tuple(f.name for f in fields(VnfSpec) if f.name != "name" and f.default is MISSING)

TRACE_HEADER = ("t", "theta_cur_gbps")

_T = TypeVar("_T")


class ScenarioFormatError(ValueError):
    """Malformed scenario, trace or timeline input. The message names the
    offending key or line; from `load_scenario` and `load_trace` it starts
    with the file's path."""


class ScenarioValidationError(ValueError):
    """A structurally well-formed scenario violating a model invariant."""

    def __init__(self, report: ValidationReport):
        self.report = report
        lines = "; ".join(f"{v.code} at {v.where}" for v in report.violations)
        super().__init__(f"scenario failed validation: {lines}")


class TracePoint(NamedTuple):
    """One load sample: time in seconds and chain throughput in Gbps."""

    t: float
    theta_cur: float


class _Repeats(dict):
    """A parsed JSON object that repeats the key `first`; `_object` rejects
    it and names the level."""

    first = ""


def _object(value: object, where: str, allowed: tuple | None, required: tuple = ()) -> dict:
    """Return value if it is an object with every required key and, unless
    allowed is None, no key outside allowed."""
    if not isinstance(value, dict):
        raise ScenarioFormatError(f"{where} must be an object")
    if isinstance(value, _Repeats):
        raise ScenarioFormatError(f"duplicate key {value.first!r} in {where}")
    unknown = () if allowed is None else value.keys() - allowed
    if unknown:
        raise ScenarioFormatError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    for key in required:
        if key not in value:
            raise ScenarioFormatError(f"missing required key '{key}' in {where}")
    return value


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


_PLACEMENTS = {p.value: p for p in Placement}


def _placement(value: object, where: str) -> Placement:
    placement = _PLACEMENTS.get(_string(value, where))
    if placement is None:
        expected = " or ".join(map(repr, _PLACEMENTS))
        raise ScenarioFormatError(f"{where}: unknown placement {value!r} (expected {expected})")
    return placement


_CHAIN_ENTRY_KEY_SET = frozenset(CHAIN_ENTRY_KEYS)


def _chain_entry(entry: object, where: str) -> tuple[str, str, Placement]:
    """The (id, spec name, placement) of one chain entry."""
    entry = _object(entry, where, CHAIN_ENTRY_KEYS, required=CHAIN_ENTRY_KEYS)
    return (
        _string(entry["id"], f"{where}.id"),
        _string(entry["spec"], f"{where}.spec"),
        _placement(entry["placement"], f"{where}.placement"),
    )


def scenario_from_dict(data: object) -> Scenario:
    """Build and validate a Scenario from parsed JSON."""
    data = _object(data, "scenario", TOP_LEVEL_KEYS, required=("chain", "theta_cur"))

    chain_data = data["chain"]
    if not isinstance(chain_data, list):
        raise ScenarioFormatError("chain must be a list")
    ids, spec_names, placements = [], [], []
    for pos, entry in enumerate(chain_data):
        # The common, well-formed entry is accepted without building the
        # error locations; any other goes through the strict checks, which
        # raise their message or accept it (a str subclass, say).
        if not (
            type(entry) is dict
            and entry.keys() == _CHAIN_ENTRY_KEY_SET
            and type(vnf_id := entry["id"]) is str
            and type(spec := entry["spec"]) is str
            and type(name := entry["placement"]) is str
            and (placement := _PLACEMENTS.get(name)) is not None
        ):
            vnf_id, spec, placement = _chain_entry(entry, f"chain[{pos}]")
        ids.append(vnf_id)
        spec_names.append(spec)
        placements.append(placement)

    anchors = _object(data.get("anchors", {}), "anchors", ANCHOR_KEYS)
    ingress, egress = (
        _placement(anchors[end], f"anchors.{end}") if end in anchors else Placement.SMARTNIC
        for end in ANCHOR_KEYS
    )

    specs = builtin_table1()
    for name, entry in _object(data.get("spec_overrides", {}), "spec_overrides", None).items():
        where = f"spec_overrides[{name}]"
        base = specs.get(name)
        entry = _object(entry, where, OVERRIDE_KEYS, required=NEW_SPEC_KEYS if base is None else ())
        numbers = {key: _number(value, f"{where}.{key}") for key, value in entry.items()}
        specs[name] = VnfSpec(name=name, **numbers) if base is None else replace(base, **numbers)

    theta_cur = _number(data["theta_cur"], "theta_cur")
    pcie = _number(data.get("pcie_latency_us", DEFAULT_PCIE_LATENCY_US), "pcie_latency_us")

    scenario = Scenario(
        chain=ServiceChain(tuple(ids), tuple(spec_names), tuple(placements), ingress, egress),
        specs=specs,
        theta_cur=theta_cur,
        pcie_latency_us=pcie,
    )
    report = validate(scenario)
    if not report.ok:
        raise ScenarioValidationError(report)
    return scenario


def _strict_object(pairs: list[tuple[str, object]]) -> dict:
    data = dict(pairs)
    if len(data) == len(pairs):
        return data
    seen: set[str] = set()
    repeats = _Repeats(data)
    repeats.first = next(key for key, _ in pairs if key in seen or seen.add(key))
    return repeats


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"invalid UTF-8 at byte {exc.start}: {exc.reason}") from exc


def _parse_file(path: str | Path, parse: Callable[[str], _T]) -> _T:
    """`parse` applied to the file's text. Each ScenarioFormatError that the
    read or the parse raises gets `{path}: ` in front, once."""
    try:
        return parse(_read_text(path))
    except ScenarioFormatError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc


def _scenario_from_json(text: str) -> Scenario:
    try:
        data = json.loads(text, object_pairs_hook=_strict_object)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # nested too deep, an int of too many digits
        raise ScenarioFormatError(f"invalid JSON: {exc}") from exc
    return scenario_from_dict(data)


def load_scenario(path: str | Path) -> Scenario:
    """Parse, resolve and validate a scenario file."""
    return _parse_file(path, _scenario_from_json)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of scenario_from_dict for validated scenarios.

    Specs differing from (or absent in) the built-in profile are written as
    full override entries, so reloading reproduces the catalog exactly.
    """
    builtin = builtin_table1()
    overrides = {
        name: {key: getattr(spec, key) for key in OVERRIDE_KEYS}
        for name, spec in scenario.specs.items()
        if builtin.get(name) != spec
    }
    chain = scenario.chain
    return {
        "chain": [
            {"id": vnf_id, "spec": spec, "placement": placement.value}
            for vnf_id, spec, placement in zip(chain.ids, chain.spec_names, chain.placements)
        ],
        "anchors": {"ingress": chain.ingress_anchor.value, "egress": chain.egress_anchor.value},
        "spec_overrides": overrides,
        "theta_cur": scenario.theta_cur,
        "pcie_latency_us": scenario.pcie_latency_us,
    }


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write `scenario` as JSON. A non-finite number, which `load_scenario`
    rejects and `validate` does not, raises ValueError before any write."""
    text = json.dumps(scenario_to_dict(scenario), indent=2, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _csv_rows(text: str, header: tuple[str, ...], name: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, row) for each data row of CSV `text`, whose first row must
    be `header`. Blank rows are skipped, every other row must have one field
    per column, and a row's line is the physical line it ends on (a quoted
    field may hold a newline), as a `csv.Error`'s is."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:  # a field over csv's field_size_limit, say
        raise ScenarioFormatError(f"line {reader.line_num}: {exc}") from exc
    if not rows or tuple(rows[0][1]) != header:
        raise ScenarioFormatError(f"{name} header must be '{','.join(header)}'")
    for line, row in rows[1:]:
        if row:
            if len(row) != len(header):
                raise ScenarioFormatError(f"line {line}: expected {len(header)} fields")
            yield line, row


def _trace_points(text: str) -> tuple[TracePoint, ...]:
    points: list[TracePoint] = []
    for line, (t_text, theta_text) in _csv_rows(text, TRACE_HEADER, "trace"):
        try:
            t, theta = float(t_text), float(theta_text)
        except ValueError as exc:
            raise ScenarioFormatError(f"line {line}: {exc}") from exc
        if not (math.isfinite(t) and math.isfinite(theta)):
            raise ScenarioFormatError(f"line {line}: values must be finite")
        if points and t <= points[-1].t:
            raise ScenarioFormatError(f"line {line}: t must be strictly increasing")
        if theta < 0:
            raise ScenarioFormatError(f"line {line}: theta_cur_gbps must be >= 0")
        points.append(TracePoint(t, theta))
    if not points:
        raise ScenarioFormatError("trace has no data rows")
    return tuple(points)


def load_trace(path: str | Path) -> tuple[TracePoint, ...]:
    """Parse a trace CSV with header t,theta_cur_gbps and at least one data
    row; t must strictly increase."""
    return _parse_file(path, _trace_points)
