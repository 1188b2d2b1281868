"""Tiny hand-emitted SVG charts (lines and scatters), no plotting dependency.

Output is plain SVG 1.1 text with LF endings, so chart files are diffable
and deterministic for identical inputs.
"""

from __future__ import annotations

import math
from pathlib import Path

WIDTH = 840
HEIGHT = 520
LEFT, RIGHT, TOP, BOTTOM = 80, 24, 48, 64

PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
]


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class _Frame:
    """Maps data coordinates into the plot rectangle."""

    def __init__(self, xs, ys, log_x: bool):
        self.log_x = log_x
        txs = [math.log2(x) for x in xs] if log_x else list(xs)
        self.x0, self.x1 = min(txs), max(txs)
        self.y0, self.y1 = min(ys), max(ys)
        if self.x1 == self.x0:
            self.x0 -= 1.0
            self.x1 += 1.0
        if self.y1 == self.y0:
            self.y0 -= 1.0
            self.y1 += 1.0
        else:
            self.y1 += 0.06 * (self.y1 - self.y0)  # headroom for markers
        if self.y0 > 0 and self.y0 < 0.3 * self.y1:
            self.y0 = 0.0  # anchor near-zero axes at zero

    def px(self, x: float) -> float:
        t = math.log2(x) if self.log_x else x
        return LEFT + (t - self.x0) / (self.x1 - self.x0) * (WIDTH - LEFT - RIGHT)

    def py(self, y: float) -> float:
        return HEIGHT - BOTTOM - (y - self.y0) / (self.y1 - self.y0) * (HEIGHT - TOP - BOTTOM)


def _axes(parts: list[str], frame: _Frame, x_ticks, title: str, x_label: str, y_label: str) -> None:
    x_left, x_right = LEFT, WIDTH - RIGHT
    y_top, y_bot = TOP, HEIGHT - BOTTOM
    parts.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    parts.append(
        f'<text x="{WIDTH / 2}" y="{TOP - 18}" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{_esc(title)}</text>'
    )
    parts.append(
        f'<line x1="{x_left}" y1="{y_bot}" x2="{x_right}" y2="{y_bot}" stroke="black" stroke-width="1"/>'
    )
    parts.append(f'<line x1="{x_left}" y1="{y_top}" x2="{x_left}" y2="{y_bot}" stroke="black" stroke-width="1"/>')
    for xv in x_ticks:
        px = frame.px(xv)
        parts.append(f'<line x1="{px:.1f}" y1="{y_bot}" x2="{px:.1f}" y2="{y_bot + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{y_bot + 20}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif">{_fmt(xv)}</text>'
        )
    for k in range(5):
        yv = frame.y0 + k * (frame.y1 - frame.y0) / 4
        py = frame.py(yv)
        parts.append(f'<line x1="{x_left - 5}" y1="{py:.1f}" x2="{x_left}" y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<line x1="{x_left}" y1="{py:.1f}" x2="{x_right}" y2="{py:.1f}" stroke="#dddddd"/>')
        parts.append(
            f'<text x="{x_left - 9}" y="{py + 4:.1f}" text-anchor="end" font-size="12" '
            f'font-family="sans-serif">{_fmt(yv)}</text>'
        )
    parts.append(
        f'<text x="{(x_left + x_right) / 2}" y="{HEIGHT - 16}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{_esc(x_label)}</text>'
    )
    parts.append(
        f'<text x="20" y="{(y_top + y_bot) / 2}" text-anchor="middle" font-size="13" font-family="sans-serif" '
        f'transform="rotate(-90 20 {(y_top + y_bot) / 2})">{_esc(y_label)}</text>'
    )


def _legend(parts: list[str], labels: list[str]) -> None:
    lx = LEFT + 12
    ly = TOP + 8
    for k, label in enumerate(labels):
        color = PALETTE[k % len(PALETTE)]
        y = ly + 18 * k
        parts.append(f'<line x1="{lx}" y1="{y}" x2="{lx + 22}" y2="{y}" stroke="{color}" stroke-width="2.5"/>')
        parts.append(
            f'<text x="{lx + 28}" y="{y + 4}" font-size="12" font-family="sans-serif">{_esc(label)}</text>'
        )


def _write(path, parts: list[str]) -> None:
    body = "\n".join(parts)
    text = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n{body}\n</svg>\n'
    )
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _x_ticks(xs: list[float], log_x: bool) -> list[float]:
    uniq = sorted(set(xs))
    if log_x or len(uniq) <= 7:
        return uniq[:12]
    lo, hi = uniq[0], uniq[-1]
    return [lo + k * (hi - lo) / 5 for k in range(6)]


def line_chart(path, series: dict[str, list[tuple[float, float]]], title: str, x_label: str, y_label: str) -> None:
    """One polyline per label; x positions log2-scaled."""
    if not series or all(not pts for pts in series.values()):
        raise ValueError("line_chart needs at least one nonempty series")
    labels = sorted(series)
    all_x = [p[0] for pts in series.values() for p in pts]
    all_y = [p[1] for pts in series.values() for p in pts]
    frame = _Frame(all_x, all_y, log_x=True)
    parts: list[str] = []
    _axes(parts, frame, _x_ticks(all_x, log_x=True), title, x_label, y_label)
    for k, label in enumerate(labels):
        pts = sorted(series[label])
        if not pts:
            continue
        color = PALETTE[k % len(PALETTE)]
        coords = " ".join(f"{frame.px(x):.1f},{frame.py(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2.5"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{frame.px(x):.1f}" cy="{frame.py(y):.1f}" r="3.5" fill="{color}"/>')
    _legend(parts, labels)
    _write(path, parts)


def scatter_chart(path, groups: dict[str, list[tuple[float, float]]], title: str, x_label: str, y_label: str) -> None:
    """One dot cloud per label over a dashed y=x reference line."""
    if not groups or all(not pts for pts in groups.values()):
        raise ValueError("scatter_chart needs at least one nonempty group")
    labels = sorted(groups)
    all_x = [p[0] for pts in groups.values() for p in pts]
    all_y = [p[1] for pts in groups.values() for p in pts] + [min(all_x), max(all_x)]  # keep y=x in view
    frame = _Frame(all_x, all_y, log_x=False)
    parts: list[str] = []
    _axes(parts, frame, _x_ticks(all_x, log_x=False), title, x_label, y_label)
    lo = max(frame.x0, frame.y0)
    hi = min(frame.x1, frame.y1)
    if lo < hi:
        parts.append(
            f'<line x1="{frame.px(lo):.1f}" y1="{frame.py(lo):.1f}" x2="{frame.px(hi):.1f}" '
            f'y2="{frame.py(hi):.1f}" stroke="#999999" stroke-dasharray="6 4"/>'
        )
    for k, label in enumerate(labels):
        color = PALETTE[k % len(PALETTE)]
        for x, y in groups[label]:
            parts.append(f'<circle cx="{frame.px(x):.1f}" cy="{frame.py(y):.1f}" r="3" fill="{color}" fill-opacity="0.6"/>')
    _legend(parts, labels)
    _write(path, parts)
