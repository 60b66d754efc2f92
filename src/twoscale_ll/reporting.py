"""Deterministic CSV and SVG report emission for run records and tables."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dynamics import RunRecord

CSV_HEADER = "t,lambda,mx,my,mz,energy,residual,dist_h2"
_WIDTH, _HEIGHT = 640, 420  # svg_line_chart size in pixels


def _fmt(x: float) -> str:
    # repr round-trips doubles exactly and is locale-independent
    return repr(float(x))


def table_to_csv(columns: dict[str, Sequence]) -> str:
    names = list(columns)
    n = len(columns[names[0]])
    lines = [",".join(names)]
    for i in range(n):
        lines.append(",".join(_fmt(columns[k][i]) for k in names))
    return "\n".join(lines) + "\n"


def record_to_csv(rec: RunRecord) -> str:
    return table_to_csv(dict(zip(CSV_HEADER.split(","), (
        rec.times, rec.lam, *rec.mean.T, rec.energy, rec.residual,
        rec.dist_h2), strict=True)))


def svg_line_chart(series: list[tuple[str, np.ndarray, np.ndarray]],
                   log_y: bool = False, x_label: str = "x",
                   y_label: str = "y") -> str:
    """Standalone SVG with one polyline per series. Deterministic output:
    same data gives byte-identical files."""
    pad = 50
    kept = []
    for name, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        ok = np.isfinite(xs) & np.isfinite(ys)
        if log_y:
            ok &= ys > 0
        kept.append((name, xs[ok], ys[ok]))
    xs_all = np.concatenate([xs for _, xs, _ in kept])
    ys_all = np.concatenate([ys for _, _, ys in kept])
    if xs_all.size == 0:
        raise ValueError("no finite data to plot")
    x_min, x_max = float(np.min(xs_all)), float(np.max(xs_all))
    yv = np.log10(ys_all) if log_y else ys_all
    y_min, y_max = float(np.min(yv)), float(np.max(yv))
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    def sx(x):
        return pad + (x - x_min) / (x_max - x_min) * (_WIDTH - 2 * pad)

    def sy(y):
        yy = np.log10(y) if log_y else y
        return _HEIGHT - pad - (yy - y_min) / (y_max - y_min) * (_HEIGHT - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
              "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{pad}" y1="{_HEIGHT - pad}" x2="{_WIDTH - pad}" '
        f'y2="{_HEIGHT - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{_HEIGHT - pad}" '
        f'stroke="black"/>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" font-size="12" '
        f'text-anchor="middle">{x_label}</text>',
        f'<text x="14" y="{_HEIGHT // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {_HEIGHT // 2})">{y_label}</text>',
    ]
    for idx, (name, xs, ys) in enumerate(kept):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        color = colors[idx % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{_WIDTH - pad + 4}" y="{pad + 14 * idx + 10}" '
                     f'font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
