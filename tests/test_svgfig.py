"""Tests of the SVG chart's polyline text against the chart's former
point-by-point formatter."""

import re

import numpy as np
import pytest

from curvsol import cli
from curvsol.svgfig import render_chart


def run(args):
    return cli.main([str(a) for a in args])


def per_point_polylines(series):
    """Each series' polyline text as the chart formatted it one point at a
    time: the axis ranges padded as `render_chart` pads them, then one
    f-string per point."""
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad_x, pad_y = 0.04 * (x1 - x0), 0.06 * (y1 - y0)
    x0, x1 = x0 - pad_x, x1 + pad_x
    y0, y1 = y0 - pad_y, y1 + pad_y
    ml, mt, pw, ph = 64, 28, 640, 408

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + (y1 - y) / (y1 - y0) * ph

    return [" ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(sx, sy))
            for _, sx, sy in series]


def assert_matches_per_point(series):
    svg = render_chart(series, title="t", x_label="x", y_label="y")
    assert re.findall(r'<polyline points="([^"]*)"', svg) == per_point_polylines(series)


def plotted_series(monkeypatch, argv):
    """The series that `curvsol plot` hands to the chart for ``argv``."""
    seen = []

    def capture(series, **labels):
        seen.append(series)
        return render_chart(series, **labels)

    monkeypatch.setattr(cli, "render_chart", capture)
    assert run(argv) == 0
    return seen[0]


@pytest.mark.parametrize("solve, plot", [
    (["--speed", "sigma-k", "--k", 2, "--n", 4, "--rmax", 2], ["--barriers", "v1,v2,v3"]),
    (["--speed", "harmonic", "--n", 5, "--rmax", 0.45], ["--barriers", "w1,w2,w3,w4,w5"]),
    (["--speed", "sigma-k", "--k", 2, "--n", 4, "--rmax", 2], ["--revolve"]),
], ids=["sigma2-n4-v1v2v3", "harmonic-n5-w1-w5", "revolve"])
def test_profile_plots_match_per_point_text(solve, plot, tmp_path, monkeypatch):
    csv = tmp_path / "p.csv"
    assert run(["solve", *solve, "--out", csv]) == 0
    series = plotted_series(monkeypatch, ["plot", "--in", csv, *plot,
                                          "--out", tmp_path / "p.svg"])
    assert len(series) == (1 if plot == ["--revolve"] else 1 + len(plot[1].split(",")))
    assert_matches_per_point(series)


@pytest.mark.parametrize("series", [
    [("a", [0.0, -0.0, -1.0, 2.5], [-0.0, -3.25, 1e-9, -1e-300])],
    [("a", [-0.0, 1.0, 2.0], [1.0, np.nan, -2.0]), ("b", [0.5], [-0.0])],
    [("a", [1.0, 2.0], [-1.0, -1.0]), ("empty", [], [])],
], ids=["signed-zero-negative", "nan", "flat-and-empty"])
def test_edge_values_match_per_point_text(series):
    assert_matches_per_point(series)
