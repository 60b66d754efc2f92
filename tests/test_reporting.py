"""CSV and SVG emission: determinism, round-trip floats, file layout."""

import numpy as np
import pytest

from twoscale_ll.dynamics import RunRecord
from twoscale_ll.reporting import (
    CSV_HEADER,
    record_to_csv,
    svg_line_chart,
    table_to_csv,
)


def _record(n=3, scale=1.0):
    t = np.arange(n, dtype=float)
    return RunRecord(
        times=t,
        lam=0.1 * t * scale,
        mean=np.stack([np.cos(t), np.sin(t), 0.3 + 0.0 * t], axis=1),
        energy=np.exp(-t) * scale,
        residual=1e-7 * (1.0 + t),
        dist_h2=np.exp(-2.0 * t) + 1e-3,
    )


def test_csv_header_and_shape():
    rec = _record(1)
    text = record_to_csv(rec)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert text.endswith("\n")
    assert len(lines[1].split(",")) == 8
    assert record_to_csv(_record(0)) == CSV_HEADER + "\n"


def test_csv_round_trips_doubles_exactly():
    rec = _record(5, scale=np.pi)
    lines = record_to_csv(rec).splitlines()[1:]
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    assert np.array_equal(parsed[:, 0], rec.times)
    assert np.array_equal(parsed[:, 1], rec.lam)
    assert np.array_equal(parsed[:, 2:5], rec.mean)
    assert np.array_equal(parsed[:, 5], rec.energy)
    assert np.array_equal(parsed[:, 6], rec.residual)
    assert np.array_equal(parsed[:, 7], rec.dist_h2)


def test_csv_deterministic():
    assert record_to_csv(_record(4)) == record_to_csv(_record(4))


def test_table_to_csv():
    text = table_to_csv({"eps": [0.2, 0.1], "tau": [0.5, 0.3]})
    lines = text.splitlines()
    assert lines[0] == "eps,tau"
    assert [float(v) for v in lines[1].split(",")] == [0.2, 0.5]
    assert len(lines) == 3


def test_svg_structure_and_polylines():
    t = np.linspace(0.0, 1.0, 20)
    svg = svg_line_chart([("a", t, np.exp(-t)), ("b", t, 0.5 + 0.0 * t)],
                         x_label="t", y_label="d")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert ">t</text>" in svg
    assert ">d</text>" in svg
    assert ">a</text>" in svg


def test_svg_log_scale_drops_nonpositive():
    t = np.array([0.0, 1.0, 2.0])
    y = np.array([1.0, 0.0, 0.1])  # zero must be dropped on a log axis
    svg = svg_line_chart([("s", t, y)], log_y=True)
    pts = svg.split('points="')[1].split('"')[0]
    assert len(pts.split()) == 2


def test_svg_rejects_empty():
    with pytest.raises(ValueError):
        svg_line_chart([("s", np.array([0.0]), np.array([np.nan]))])


def test_svg_deterministic():
    t = np.linspace(0.0, 1.0, 50)
    a = svg_line_chart([("x", t, np.cos(t))])
    b = svg_line_chart([("x", t, np.cos(t))])
    assert a == b
