"""Experiment records: CSV/JSONL/TSV/SVG writers and ratio aggregation."""
from __future__ import annotations

import dataclasses
import json
import math

import pytest

from lnls.records import (
    ESTIMATE_COLUMNS,
    ExperimentRecord,
    drift_slope,
    format_float,
    group_max_ratio,
    uniformity_factor,
    write_csv,
    write_jsonl,
    write_loglog_tsv,
    write_svg_chart,
)


def _sample_records():
    return [
        ExperimentRecord("demo", 0.1, 1.5, 0.75, t=0.25, N=0.5, q=3.0, metadata={"tag": "a"}),
        ExperimentRecord("demo", 0.1, 2.0, 1.0, t=0.5),
        ExperimentRecord("demo", 0.05, 1.0, 0.5, t=0.25),
        ExperimentRecord("demo", 0.05, 0.0, None, metadata={"skipped": "zero input"}),
    ]


def test_format_float_shortest_roundtrip():
    assert format_float(0.1) == "0.1"
    assert format_float(1.0 / 3.0) == repr(1.0 / 3.0)
    assert float(format_float(math.pi)) == math.pi


def test_write_csv_is_deterministic(tmp_path):
    recs = _sample_records()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(recs, p1)
    write_csv(list(recs), p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == ",".join(ESTIMATE_COLUMNS)
    assert len(lines) == 1 + len(recs)
    # shortest round-trip decimals, empty cells for absent fields
    assert lines[1].startswith("demo,0.1,0.5,3.0,,")
    assert lines[4].endswith(",")  # ratio None -> empty


def test_write_jsonl_parses_back(tmp_path):
    recs = _sample_records()
    path = tmp_path / "r.jsonl"
    write_jsonl(recs, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(recs)
    assert rows[0]["experiment"] == "demo"
    assert rows[0]["h"] == 0.1
    assert rows[0]["metadata"] == {"tag": "a"}
    assert rows[3]["ratio"] is None
    # keys are sorted for diff-able artifacts
    assert list(rows[0]) == sorted(rows[0])


def test_write_jsonl_keys_are_the_record_fields(tmp_path):
    recs = _sample_records()
    path = tmp_path / "r.jsonl"
    write_jsonl(recs, path)
    fields = {f.name for f in dataclasses.fields(ExperimentRecord)}
    lines = path.read_text().splitlines()
    assert all(set(json.loads(line)) == fields for line in lines)
    # the bytes of the hand-listed dict that the writer used to build
    assert lines == [json.dumps({
        "experiment": r.experiment, "h": r.h, "value": r.value, "ratio": r.ratio, "t": r.t,
        "N": r.N, "q": r.q, "r": r.r, "epsilon": r.epsilon, "metadata": r.metadata,
    }, sort_keys=True) for r in recs]


def test_write_loglog_tsv(tmp_path):
    recs = [ExperimentRecord("demo", 0.1, 0.01, None), ExperimentRecord("demo", 0.05, 0.002, None)]
    path = tmp_path / "r.tsv"
    write_loglog_tsv(recs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "log_h\tlog_value"
    lh, lv = lines[1].split("\t")
    assert float(lh) == pytest.approx(math.log(0.1))
    assert float(lv) == pytest.approx(math.log(0.01))


def test_write_svg_chart(tmp_path):
    path = tmp_path / "c.svg"
    write_svg_chart({"s1": [(0.0, 0.0), (1.0, 2.0)], "s2": [(0.0, 1.0), (1.0, 0.0)]},
                    path, title="demo chart")
    text = path.read_text()
    assert text.lstrip().startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2
    assert "demo chart" in text


def test_group_max_ratio_skips_flagged_records():
    per_h = group_max_ratio(_sample_records())
    assert per_h == {0.1: 1.0, 0.05: 0.5}


def test_uniformity_factor():
    assert uniformity_factor(_sample_records()) == pytest.approx(2.0)
    flat = [ExperimentRecord("e", h, 1.0, 0.7) for h in (0.1, 0.05, 0.025)]
    assert uniformity_factor(flat) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        uniformity_factor([])


@pytest.mark.parametrize("a", [-0.4, 0.0, 0.5, 1.0])
def test_drift_slope_recovers_a_power_of_h(a):
    hs = [math.pi / m for m in (8, 16, 32, 64)]
    records = [ExperimentRecord("e", h, 1.0, 0.3 * h**a * scale)
               for h in hs for scale in (1.0, 0.5)]  # the slope reads the per-h maximum
    assert drift_slope(records) == pytest.approx(a, abs=1e-12)


def test_drift_slope_of_constant_ratios_is_zero():
    records = [ExperimentRecord("e", h, 1.0, 0.7) for h in (0.1, 0.05, 0.025)]
    assert drift_slope(records) == 0.0


def test_drift_slope_needs_two_positive_maxima():
    assert drift_slope([ExperimentRecord("e", 0.1, 1.0, 0.7)]) is None
    assert drift_slope([]) is None
    assert drift_slope([ExperimentRecord("e", 0.1, 1.0, 0.7),
                        ExperimentRecord("e", 0.05, 0.0, 0.0)]) is None
    # skipped records are not spacings
    assert drift_slope(_sample_records()[2:]) is None
