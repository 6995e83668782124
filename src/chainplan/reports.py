"""Timeline CSV emission/parsing and self-contained SVG charts.

SVG output is hand-built from primitives so repeated runs are byte-identical;
there are no timestamps, random ids, or external references in the files.
"""

from __future__ import annotations

import csv
import io
import math
import re
from pathlib import Path
from typing import Sequence

from .scenario_io import _csv_rows
from .simulate import ComparisonReport, TimelineRecord

TIMELINE_COLUMNS = (
    "t",
    "theta_cur_gbps",
    "policy",
    "smartnic_util",
    "cpu_util",
    "crossings",
    "latency_us",
    "max_throughput_gbps",
    "migrations_this_step",
    "cumulative_migrations",
    "outcome",
)


def timeline_to_csv(records: Sequence[TimelineRecord]) -> str:
    """The timeline as CSV, byte for byte what `csv.writer` writes: floats
    as `repr`, ints as `str`, and the migrated vNF ids `;`-joined. A migrated
    id that is empty or holds a `;` would not read back, so it raises a
    ValueError naming the id.

    Only `t`, `theta_cur_gbps`, `smartnic_util` and `cpu_util` change at
    every point of a replay, so only they are formatted on every row. The
    other seven fields (policy, crossings, latency, max throughput, the
    migrations of the step, the cumulative migrations and the outcome) are
    the same objects for every record of one chain state: their texts are
    built once per state, and the migrated ids checked once, then reused
    while each of the seven is the identical object of the previous
    record. The rule is identity, not equality: -0.0 == 0.0 and True == 1,
    but their texts differ, so an equal value in a new object is formatted
    anew.
    """
    text = _CsvText()
    lines = [",".join(TIMELINE_COLUMNS)]
    append = lines.append
    policy = crossings = latency = throughput = migrated = cumulative = outcome = _UNSET
    for t, theta, p, nic_util, cpu_util, c, lat, tput, m, cum, o in records:
        if (
            p is not policy
            or c is not crossings
            or lat is not latency
            or tput is not throughput
            or m is not migrated
            or cum is not cumulative
            or o is not outcome
        ):
            policy, crossings, latency, throughput = p, c, lat, tput
            migrated, cumulative, outcome = m, cum, o
            for vnf_id in migrated:
                if not vnf_id or ";" in vnf_id:
                    raise ValueError(
                        f"vNF id {vnf_id!r} cannot be written to the timeline's ;-joined "
                        "migrations_this_step column"
                    )
            head = text[policy]
            tail = (
                f"{crossings},{latency!r},{throughput!r},"
                f"{text[';'.join(migrated)]},{cumulative},{text[outcome]}"
            )
        append(f"{t!r},{theta!r},{head},{nic_util!r},{cpu_util!r},{tail}")
    append("")
    return "\n".join(lines)


# Matches no field object, so the first record builds its texts.
_UNSET = object()


class _CsvText(dict):
    """Each string field as `csv.writer` writes it, worked out once per
    distinct string. Float reprs and ints never need quoting."""

    def __missing__(self, field: str) -> str:
        text = field
        if _CSV_SPECIAL.search(field):
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerow(["", field])
            text = out.getvalue()[1:-1]
        self[field] = text
        return text


_CSV_SPECIAL = re.compile('[,"\r\n]')


def _vnf_ids(field: str) -> tuple[str, ...]:
    return tuple(x for x in field.split(";") if x)


# How `parse_timeline_csv` reads each field, in TIMELINE_COLUMNS order.
_TIMELINE_READERS = (float, float, str, float, float, int, float, float, _vnf_ids, int, str)


def parse_timeline_csv(text: str) -> tuple[TimelineRecord, ...]:
    """The records of a timeline CSV. The header must be TIMELINE_COLUMNS, and
    a row of the wrong width or a field over csv's field limit raises a
    ValueError naming its line."""
    return tuple(
        TimelineRecord._make([read(field) for read, field in zip(_TIMELINE_READERS, row)])
        for _, row in _csv_rows(text, TIMELINE_COLUMNS, "timeline")
    )


def emit_report(data, format: str, path: str | Path) -> None:
    """Write a timeline (csv or svg) or a comparison report (svg) to `path`.

    The CLI calls the writers directly; this dispatcher stays public because
    the benchmark's layer tracer (perfbench/tracer.py) wraps it by name.
    """
    if format == "csv":
        if not _is_timeline(data):
            raise ValueError("csv output is only defined for timeline records")
        content = timeline_to_csv(data)
    elif format == "svg":
        if _is_timeline(data):
            content = timeline_svg(data)
        elif isinstance(data, ComparisonReport):
            content = comparison_svg(data)
        else:
            raise ValueError(f"cannot chart object of type {type(data).__name__}")
    else:
        raise ValueError(f"unknown report format {format!r}")
    Path(path).write_text(content, encoding="utf-8")


def _is_timeline(data) -> bool:
    # A single TimelineRecord is a tuple too, but its fields are not records.
    return isinstance(data, (list, tuple)) and all(
        isinstance(r, TimelineRecord) for r in data
    )


# ---------------------------------------------------------------------------
# SVG primitives

_W = 640
_PANEL_H = 260
_ML, _MR, _MT, _MB = 70, 20, 40, 40
_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _text(x: float, y: float, s: str, size: int = 12, anchor: str = "start") -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
        f'font-size="{size}" text-anchor="{anchor}">{s}</text>'
    )


def _axis_box(top: float) -> tuple[str, float, float, float, float]:
    x0, x1 = _ML, _W - _MR
    y0, y1 = top + _MT, top + _PANEL_H - _MB
    box = (
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    return box, x0, x1, y0, y1


def _span(values: Sequence[float], zero_floor: bool) -> tuple[float, float]:
    """The low and high ends of an axis over `values`. An SVG coordinate is
    a finite number, so a NaN or infinite value, or an axis whose width
    overflows a float or rounds to zero, raises a ValueError naming it."""
    if not all(map(math.isfinite, values)):
        bad = next(x for x in values if not math.isfinite(x))
        raise ValueError(f"cannot chart {bad!r}: chart values must be finite")
    lo = min(values)
    hi = max(values)
    if zero_floor:
        lo = min(0.0, lo)
    if hi == lo:
        hi = lo + 1.0
    if not 0 < hi - lo < math.inf:
        raise ValueError(f"cannot scale a chart axis from {lo!r} to {hi!r}")
    return lo, hi


def _x_texts(xs: Sequence[float], xlo: float, xhi: float) -> list[str]:
    """The x coordinate text of each of `xs` in a line panel whose x axis
    spans `xlo` to `xhi`; every panel spans the same width, so panels that
    plot the same xs share them."""
    x0, x1 = _ML, _W - _MR
    # Coordinates are x0 + (x - xlo) / dx * width, evaluated in that order:
    # a precomputed scale factor width / dx would round differently.
    dx, width = xhi - xlo, x1 - x0
    return [f"{x0 + (x - xlo) / dx * width:.6g}" for x in xs]


def _line_panel(
    top: float,
    title: str,
    x_span: tuple[float, float],
    x_texts: Sequence[str],
    ys: Sequence[float],
    y_label: str,
) -> str:
    """One line chart: `ys` against the x coordinate texts `x_texts` (from
    `_x_texts` over the span `x_span`), as a polyline plus a circle per
    point, in a panel whose top edge is at `top`.

    Each distinct y is scaled and formatted once, and a point's y text is
    looked up in that table. The polyline is one `join` of the points'
    "x,y" texts and the circles one `join` of their 'x" cy="y' texts with
    the markup between two circles as separator, so no f-string is
    evaluated per point.
    """
    box, x0, x1, y0, y1 = _axis_box(top)
    xlo, xhi = x_span
    ylo, yhi = _span(ys, zero_floor=True)

    # y coordinates are y1 - (y - ylo) / dy * height, in that order, as
    # `_x_texts` evaluates x ones.
    dy, height = yhi - ylo, y1 - y0
    # Latency and throughput change only with the chain, so few ys are
    # distinct. 0.0 and -0.0 share a key: y - ylo is the same for both, or
    # a zero of either sign, and y1 minus a zero is y1.
    y_text = {y: f"{y1 - (y - ylo) / dy * height:.6g}" for y in set(ys)}
    y_texts = list(map(y_text.__getitem__, ys))
    color = _SERIES_COLORS[0]
    parts = [box, _text(x0, top + _MT - 10, title, size=14)]
    if len(ys) > 1:
        points = " ".join(map(",".join, zip(x_texts, y_texts)))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>')
    between = f'" r="3" fill="{color}"/>\n<circle cx="'
    circles = between.join(map('" cy="'.join, zip(x_texts, y_texts)))
    parts.append(f'<circle cx="{circles}" r="3" fill="{color}"/>')
    parts.append(_text(x0 - 8, y1 + 4, _fmt(ylo), anchor="end"))
    parts.append(_text(x0 - 8, y0 + 4, _fmt(yhi), anchor="end"))
    parts.append(_text(x0, y1 + 16, _fmt(xlo)))
    parts.append(_text(x1, y1 + 16, _fmt(xhi), anchor="end"))
    parts.append(_text(x0 - 8, y0 - 10, y_label, anchor="end"))
    parts.append(_text((x0 + x1) / 2, y1 + 32, "t (s)", anchor="middle"))
    return "\n".join(parts)


def _bar_panel(
    top: float, title: str, labels: Sequence[str], values: Sequence[float], y_label: str
) -> str:
    box, x0, x1, y0, y1 = _axis_box(top)
    ylo, yhi = _span(values, zero_floor=True)

    def sy(y: float) -> float:
        return y1 - (y - ylo) / (yhi - ylo) * (y1 - y0)

    n = len(values)
    slot = (x1 - x0) / n
    width = slot * 0.6
    parts = [box, _text(x0, top + _MT - 10, title, size=14)]
    for i, (label, value) in enumerate(zip(labels, values)):
        bx = x0 + i * slot + (slot - width) / 2
        by = sy(value)
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        parts.append(
            f'<rect x="{_fmt(bx)}" y="{_fmt(by)}" width="{_fmt(width)}" '
            f'height="{_fmt(y1 - by)}" fill="{color}"/>'
        )
        parts.append(_text(bx + width / 2, by - 5, _fmt(value), anchor="middle"))
        parts.append(_text(bx + width / 2, y1 + 16, label, anchor="middle"))
    parts.append(_text(x0 - 8, y0 - 10, y_label, anchor="end"))
    return "\n".join(parts)


def _document(parts: Sequence[str]) -> str:
    height = _PANEL_H * len(parts)
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{height}" '
        f'viewBox="0 0 {_W} {height}">\n{body}\n</svg>\n'
    )


def timeline_svg(records: Sequence[TimelineRecord]) -> str:
    """Latency and throughput over the trace for one policy."""
    if not records:
        raise ValueError("no records to chart")
    # The policy is chart text: escape it so any policy string keeps the
    # SVG well-formed. `&` goes first, or the other entities would be mangled.
    policy = records[0].policy.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    xs = [r.t for r in records]
    x_span = _span(xs, zero_floor=False)
    x_texts = _x_texts(xs, *x_span)
    return _document(
        [
            _line_panel(
                0, f"latency ({policy})", x_span, x_texts, [r.latency_us for r in records], "us"
            ),
            _line_panel(
                _PANEL_H,
                f"max throughput ({policy})",
                x_span,
                x_texts,
                [r.max_throughput_gbps for r in records],
                "Gbps",
            ),
        ]
    )


def comparison_svg(report: ComparisonReport) -> str:
    """Before/after bars for each policy: latency on top, throughput below."""
    labels = ("before", "naive", "pam")
    latencies = (
        report.pam.latency_before_us,
        report.naive.latency_after_us,
        report.pam.latency_after_us,
    )
    throughputs = (
        report.pam.max_throughput_before_gbps,
        report.naive.max_throughput_after_gbps,
        report.pam.max_throughput_after_gbps,
    )
    return _document(
        [
            _bar_panel(0, "latency after migration", labels, latencies, "us"),
            _bar_panel(_PANEL_H, "max throughput after migration", labels, throughputs, "Gbps"),
        ]
    )
