from __future__ import annotations

import csv
import io
import random

import pytest

import golden
from chainplan import (
    TimelineRecord,
    TracePoint,
    compare,
    emit_report,
    load_scenario,
    load_trace,
    parse_timeline_csv,
    run_trace,
    timeline_to_csv,
)
from chainplan import reports
from chainplan.reports import TIMELINE_COLUMNS


def sample_records():
    scenario = load_scenario(golden.FIG1_SCENARIO)
    trace = (TracePoint(0.0, 0.5), TracePoint(1.0, 1.2))
    return run_trace(scenario, trace, "pam")


class TestTimelineCsv:
    def test_two_records_make_three_lines(self):
        text = timeline_to_csv(sample_records())
        lines = text.splitlines()
        assert len(lines) == 3

    def test_exact_header_order(self):
        text = timeline_to_csv(sample_records())
        assert text.splitlines()[0] == (
            "t,theta_cur_gbps,policy,smartnic_util,cpu_util,crossings,latency_us,"
            "max_throughput_gbps,migrations_this_step,cumulative_migrations,outcome"
        )
        assert text.splitlines()[0] == ",".join(TIMELINE_COLUMNS)

    def test_empty_record_list_gives_header_only(self):
        text = timeline_to_csv(())
        assert text == ",".join(TIMELINE_COLUMNS) + "\n"

    def test_rows_parse_back_identically(self):
        records = sample_records()
        parsed = parse_timeline_csv(timeline_to_csv(records))
        assert parsed == records
        for a, b in zip(parsed, records):
            assert a.latency_us == pytest.approx(b.latency_us, abs=1e-9)
            assert a.smartnic_util == pytest.approx(b.smartnic_util, abs=1e-9)

    def test_migration_lists_round_trip(self):
        scenario = load_scenario(golden.TWO_STEP_SCENARIO)
        records = run_trace(scenario, (TracePoint(0.0, 1.6),), "pam")
        parsed = parse_timeline_csv(timeline_to_csv(records))
        assert parsed[0].migrations_this_step == ("Logger", "Monitor")

    @pytest.mark.parametrize("bad_id", ["a;b", ";", ""])
    def test_a_migrated_id_the_column_cannot_carry_raises(self, bad_id):
        # `;` joins the ids, so "a;b" would read back as two and "" as none.
        records = list(sample_records())
        records[1] = records[1]._replace(migrations_this_step=("Logger", bad_id))
        with pytest.raises(ValueError) as err:
            timeline_to_csv(records)
        assert repr(bad_id) in str(err.value)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError) as err:
            parse_timeline_csv("a,b\n1,2\n")
        assert str(err.value) == f"timeline header must be '{','.join(TIMELINE_COLUMNS)}'"

    @pytest.mark.parametrize(
        "policy, edit, line",
        [
            ("pam", lambda fields: fields[:2], 3),
            ("pam", lambda fields: fields + ["extra"], 3),
            ("p\nam", lambda fields: fields[:2], 4),  # the good row spans lines 2 and 3
        ],
        ids=["short-row", "long-row", "short-row-after-a-quoted-newline"],
    )
    def test_row_of_the_wrong_width_names_its_line(self, policy, edit, line):
        header, row = timeline_to_csv(sample_records()[:1]).splitlines()
        good = timeline_to_csv([sample_records()[0]._replace(policy=policy)]).split("\n", 1)[1]
        bad = ",".join(edit(row.split(",")))
        with pytest.raises(ValueError) as err:
            parse_timeline_csv(f"{header}\n{good}{bad}\n")
        assert str(err.value) == f"line {line}: expected {len(TIMELINE_COLUMNS)} fields"

    def test_field_over_the_csv_limit_names_its_line(self):
        header, row = timeline_to_csv(sample_records()[:1]).splitlines()
        with pytest.raises(ValueError) as err:
            parse_timeline_csv(f"{header}\n{row}\n{'1' * 200_000}\n")
        assert str(err.value) == "line 3: field larger than field limit (131072)"


def reference_timeline_csv(records):
    """The emitter as a `csv.writer` loop."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TIMELINE_COLUMNS)
    for r in records:
        writer.writerow(
            [
                repr(r.t),
                repr(r.theta_cur),
                r.policy,
                repr(r.smartnic_util),
                repr(r.cpu_util),
                r.crossings,
                repr(r.latency_us),
                repr(r.max_throughput_gbps),
                ";".join(r.migrations_this_step),
                r.cumulative_migrations,
                r.outcome,
            ]
        )
    return out.getvalue()


ODD_FLOATS = (1e-07, 1e16, float("inf"), -0.0, 0.0, 5e-324, 1.095890410958904, 0.1 + 0.2)
ODD_TEXT = ("", "a,b", 'say "hi"', "cr\rhere", "lf\nhere", "a;b", " spaced ", "Überwacher", "日志", '"', ",")
# The vNF ids a timeline can carry: `;` joins them, so none is empty or holds one.
ODD_IDS = tuple(text for text in ODD_TEXT if text and ";" not in text)


def random_float(rng):
    if rng.random() < 0.4:
        return rng.choice(ODD_FLOATS)
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-30, 30)


def random_record(rng):
    ids = tuple(rng.choice(ODD_IDS + ("Logger", "Monitor")) for _ in range(rng.randint(0, 3)))
    return TimelineRecord(
        t=random_float(rng),
        theta_cur=random_float(rng),
        policy=rng.choice(("pam", "naive", "none") + ODD_TEXT),
        smartnic_util=random_float(rng),
        cpu_util=random_float(rng),
        crossings=rng.randint(0, 10**rng.randint(0, 20)),
        latency_us=random_float(rng),
        max_throughput_gbps=random_float(rng),
        migrations_this_step=ids,
        cumulative_migrations=rng.randint(0, 5000),
        outcome=rng.choice(("NotOverloaded", "Resolved", "ScaleOutRequired") + ODD_TEXT),
    )


class TestTimelineCsvMatchesCsvWriter:
    def test_random_records(self):
        rng = random.Random(3)
        for _ in range(200):
            records = [random_record(rng) for _ in range(rng.randint(0, 20))]
            assert timeline_to_csv(records) == reference_timeline_csv(records)

    def test_reprs_follow_each_value_object(self):
        # Latency and throughput texts are reused while the value object
        # stays the same; a change of object, even to an equal value, is
        # printed anew, so signed zeros keep their signs.
        zero, minus_zero, nan = float("0.0"), float("-0.0"), float("nan")
        equal = [float("1.5"), float("1.5")]
        assert equal[0] is not equal[1]
        values = [zero, minus_zero, zero, zero, equal[0], equal[1], nan, nan, float("nan"), minus_zero]
        records = [
            TimelineRecord(float(i), 1.0, "pam", 0.5, 0.25, 4, value, value, (), 0, "NotOverloaded")
            for i, value in enumerate(values)
        ]
        text = timeline_to_csv(records)
        assert text == reference_timeline_csv(records)
        assert [line.split(",")[6] for line in text.splitlines()[1:]] == [
            "0.0", "-0.0", "0.0", "0.0", "1.5", "1.5", "nan", "nan", "nan", "-0.0"
        ]

    def test_replayed_records(self):
        trace = load_trace(golden.SEASONAL_TRACE)
        for path in (golden.FIG1_SCENARIO, golden.TWO_STEP_SCENARIO):
            for policy in ("pam", "naive", "none"):
                records = run_trace(load_scenario(path), trace, policy)
                assert timeline_to_csv(records) == reference_timeline_csv(records)


def reference_line_panel(top, title, xs, ys, y_label):
    """`_line_panel` with the per-point scaling closures."""
    box, x0, x1, y0, y1 = reports._axis_box(top)
    xlo, xhi = reports._span(xs, zero_floor=False)
    ylo, yhi = reports._span(ys, zero_floor=True)

    def sx(x):
        return x0 + (x - xlo) / (xhi - xlo) * (x1 - x0)

    def sy(y):
        return y1 - (y - ylo) / (yhi - ylo) * (y1 - y0)

    fmt, text, color = reports._fmt, reports._text, reports._SERIES_COLORS[0]
    parts = [box, text(x0, top + reports._MT - 10, title, size=14)]
    if len(xs) > 1:
        points = " ".join(f"{fmt(sx(x))},{fmt(sy(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{fmt(sx(x))}" cy="{fmt(sy(y))}" r="3" fill="{color}"/>')
    parts.append(text(x0 - 8, y1 + 4, fmt(ylo), anchor="end"))
    parts.append(text(x0 - 8, y0 + 4, fmt(yhi), anchor="end"))
    parts.append(text(x0, y1 + 16, fmt(xlo)))
    parts.append(text(x1, y1 + 16, fmt(xhi), anchor="end"))
    parts.append(text(x0 - 8, y0 - 10, y_label, anchor="end"))
    parts.append(text((x0 + x1) / 2, y1 + 32, "t (s)", anchor="middle"))
    return "\n".join(parts)


def line_panel(top, title, xs, ys, y_label):
    """`_line_panel` with the x coordinate texts `timeline_svg` passes it."""
    return reports._line_panel(top, title, xs, reports._x_texts(xs), ys, y_label)


class TestLinePanelMatchesClosures:
    def series(self, rng):
        n = rng.randint(1, 60)
        xs = sorted(rng.uniform(-5.0, 5.0) * 10.0 ** rng.randint(-3, 6) for _ in range(n))
        pool = [0.0, -0.0] + [rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(-8, 8) for _ in range(3)]
        ys = [rng.choice(pool) for _ in range(n)]
        return xs, ys

    def test_random_series_with_repeats_and_signed_zeros(self):
        rng = random.Random(5)
        for _ in range(300):
            xs, ys = self.series(rng)
            top = rng.choice((0, reports._PANEL_H))
            assert line_panel(top, "p", xs, ys, "us") == reference_line_panel(top, "p", xs, ys, "us")

    @pytest.mark.parametrize("value", (0.0, -0.0, 2.5, -3.0))
    def test_constant_series(self, value):
        for xs in ([0.0, 1.0, 2.0], [7.0, 7.0], [4.0]):
            ys = [value] * len(xs)
            assert line_panel(0, "c", xs, ys, "Gbps") == reference_line_panel(0, "c", xs, ys, "Gbps")

    def test_rounding_witnesses(self):
        # Points where a precomputed scale factor rounds across a printed
        # digit: x 201 of 0..800 and y 179 of 0..320 on the top panel.
        _, x0, x1, y0, y1 = reports._axis_box(0)
        assert f"{x0 + 201 * ((x1 - x0) / 800):.6g}" != f"{x0 + 201 / 800 * (x1 - x0):.6g}"
        assert f"{y1 - 179 * ((y1 - y0) / 320):.6g}" != f"{y1 - 179 / 320 * (y1 - y0):.6g}"
        xs, ys = [0.0, 201.0, 423.0, 800.0], [0.0, 179.0, 181.0, 320.0]
        assert line_panel(0, "w", xs, ys, "us") == reference_line_panel(0, "w", xs, ys, "us")

    def test_both_zeros_in_one_series(self):
        xs, ys = [0.0, 1.0, 2.0, 3.0], [-0.0, 0.0, 1.5, -0.0]
        assert line_panel(0, "z", xs, ys, "us") == reference_line_panel(0, "z", xs, ys, "us")


class TestEmitReport:
    def test_csv_file(self, tmp_path):
        out = tmp_path / "timeline.csv"
        records = sample_records()
        emit_report(records, "csv", out)
        assert parse_timeline_csv(out.read_text()) == records

    def test_timeline_svg_is_self_contained(self, tmp_path):
        out = tmp_path / "timeline.svg"
        emit_report(sample_records(), "svg", out)
        text = out.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")
        assert "latency" in text and "throughput" in text
        assert "href" not in text and "<image" not in text

    def test_comparison_svg(self, tmp_path):
        scenario = load_scenario(golden.MONITOR_BOTTLENECK_SCENARIO)
        report = compare(scenario)
        out = tmp_path / "compare.svg"
        emit_report(report, "svg", out)
        text = out.read_text()
        assert text.startswith("<svg ")
        assert "naive" in text and "pam" in text and "before" in text

    def test_svg_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_report(sample_records(), "svg", a)
        emit_report(sample_records(), "svg", b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_of_comparison_is_rejected(self, tmp_path):
        scenario = load_scenario(golden.FIG1_SCENARIO)
        report = compare(scenario)
        with pytest.raises(ValueError, match="timeline"):
            emit_report(report, "csv", tmp_path / "x.csv")

    @pytest.mark.parametrize("format", ("csv", "svg"))
    def test_a_single_record_is_not_a_timeline(self, tmp_path, format):
        # A TimelineRecord is itself a tuple; only a sequence of them charts.
        record = sample_records()[0]
        assert isinstance(record, tuple)
        with pytest.raises(ValueError):
            emit_report(record, format, tmp_path / f"x.{format}")
        assert not (tmp_path / f"x.{format}").exists()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_report(sample_records(), "pdf", tmp_path / "x.pdf")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            emit_report(sample_records(), "csv", tmp_path / "missing" / "x.csv")
