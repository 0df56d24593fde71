"""Minimal deterministic SVG line charts: no external renderer, fixed float
formatting, byte-identical output for identical input."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError

__all__ = ["Series", "render_chart"]

_WIDTH, _HEIGHT = 720, 480   # SVG canvas in pixels
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


@dataclass(frozen=True)
class Series:
    label: str
    x: Sequence[float]
    y: Sequence[float]


def _f(x: float) -> str:
    return format(float(x), ".6g")


def render_chart(series: list[Series], title: str = "", x_label: str = "",
                 y_label: str = "") -> str:
    """Standalone SVG document with axes, tick labels, one polyline per
    series and a legend."""
    if not series or all(len(s.x) == 0 for s in series):
        raise ParameterError("nothing to plot")
    xs = np.concatenate([np.asarray(s.x, dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s.y, dtype=float) for s in series])
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad_x, pad_y = 0.04 * (x1 - x0), 0.06 * (y1 - y0)
    x0, x1 = x0 - pad_x, x1 + pad_x
    y0, y1 = y0 - pad_y, y1 + pad_y
    ml, mr, mt, mb = 64, 16, 28, 44
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb

    def px(x: float) -> float:
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y: float) -> float:
        return mt + (y1 - y) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.1f}" y="18" font-family="monospace" '
                     f'font-size="13" text-anchor="middle">{title}</text>')
    for t in np.linspace(x0, x1, 6):
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" y2="{mt + ph + 4}" '
                     f'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{mt + ph + 16}" font-family="monospace" '
                     f'font-size="10" text-anchor="middle">{_f(t)}</text>')
    for t in np.linspace(y0, y1, 6):
        y = py(t)
        parts.append(f'<line x1="{ml - 4}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" '
                     f'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{ml - 6}" y="{y + 3:.2f}" font-family="monospace" '
                     f'font-size="10" text-anchor="end">{_f(t)}</text>')
    if x_label:
        parts.append(f'<text x="{ml + pw / 2:.1f}" y="{_HEIGHT - 8}" font-family="monospace" '
                     f'font-size="11" text-anchor="middle">{x_label}</text>')
    if y_label:
        parts.append(f'<text x="14" y="{mt + ph / 2:.1f}" font-family="monospace" '
                     f'font-size="11" text-anchor="middle" '
                     f'transform="rotate(-90 14 {mt + ph / 2:.1f})">{y_label}</text>')
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(s.x, s.y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = mt + 14 + 15 * i
        parts.append(f'<line x1="{ml + pw - 130}" y1="{ly - 4}" x2="{ml + pw - 106}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 100}" y="{ly}" font-family="monospace" '
                     f'font-size="11">{s.label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
