"""Minimal deterministic SVG renderers (no timestamps, no external deps)."""

from __future__ import annotations

import numpy as np

CELL = 32  # confusion-matrix cell side, px
WIDTH, HEIGHT = 480, 360  # line-chart size, px
XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # escapes an XML text node


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def confusion_svg(confusion: np.ndarray, class_names: list[str]) -> str:
    cm = np.asarray(confusion, dtype=np.float64)
    C = cm.shape[0]
    margin = 120
    size = margin + C * CELL + 10
    vmax = cm.max() if cm.max() > 0 else 1.0
    body = []
    for i in range(C):
        for j in range(C):
            shade = int(255 - 200 * (cm[i, j] / vmax))
            x = margin + j * CELL
            y = margin + i * CELL
            body.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="rgb({shade},{shade},255)" stroke="black" stroke-width="0.5"/>'
            )
            body.append(
                f'<text x="{x + CELL // 2}" y="{y + CELL // 2 + 4}" font-size="9" '
                f'text-anchor="middle">{int(cm[i, j])}</text>'
            )
    for k, name in enumerate(n.translate(XML_TEXT) for n in class_names):
        body.append(
            f'<text x="{margin - 4}" y="{margin + k * CELL + CELL // 2 + 4}" '
            f'font-size="9" text-anchor="end">{name}</text>'
        )
        body.append(
            f'<text x="{margin + k * CELL + CELL // 2}" y="{margin - 6}" font-size="9" '
            f'text-anchor="middle" transform="rotate(-45 {margin + k * CELL + CELL // 2} {margin - 6})">{name}</text>'
        )
    return _svg(size, size, body)


def line_chart_svg(series: dict[str, tuple[np.ndarray, np.ndarray]],
                   x_label: str, y_label: str) -> str:
    """Polyline chart; x and y are mapped onto [0,1] x [0,1] data ranges."""
    margin = 50
    pw = WIDTH - 2 * margin
    ph = HEIGHT - 2 * margin
    xs = np.concatenate([np.asarray(s[0], dtype=np.float64) for s in series.values()])
    ys = np.concatenate([np.asarray(s[1], dtype=np.float64) for s in series.values()])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
               "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]
    body = [
        f'<rect x="{margin}" y="{margin}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" font-size="11" text-anchor="middle">{x_label.translate(XML_TEXT)}</text>',
        f'<text x="14" y="{HEIGHT // 2}" font-size="11" text-anchor="middle" '
        f'transform="rotate(-90 14 {HEIGHT // 2})">{y_label.translate(XML_TEXT)}</text>',
    ]
    for i, (name, (sx, sy)) in enumerate(series.items()):
        color = palette[i % len(palette)]
        pts = " ".join(
            f"{margin + pw * (float(x) - x0) / (x1 - x0):.2f},"
            f"{margin + ph * (1.0 - (float(y) - y0) / (y1 - y0)):.2f}"
            for x, y in zip(sx, sy)
        )
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        body.append(
            f'<text x="{margin + 6}" y="{margin + 14 + 13 * i}" font-size="10" '
            f'fill="{color}">{name.translate(XML_TEXT)}</text>'
        )
    return _svg(WIDTH, HEIGHT, body)
