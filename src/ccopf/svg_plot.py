"""Minimal static SVG renderer for sweep result panels.

Produces a self-contained multi-panel figure: axes, ticks, polylines with
point markers, optional dashed reference lines.  Output is deterministic
text so result files can be compared byte-for-byte across runs.
"""

from __future__ import annotations

import math

PANEL_W = 320
PANEL_H = 260
MARGIN = 52
PAD_TOP = 34
PAD_BOTTOM = 46

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _fmt(x):
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _ticks(lo, hi, n=4):
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        lo, hi = 0.0, 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 2.5, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


class Panel:
    """One subplot: named series sharing an x axis."""

    def __init__(self, title, x_label, y_label):
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.series = []  # (label, xs, ys, dashed)

    def add(self, label, xs, ys, *, dashed=False):
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y)]
        self.series.append((label, pts, dashed))
        return self

    def bounds(self):
        xs = [p[0] for _, pts, _ in self.series for p in pts]
        ys = [p[1] for _, pts, _ in self.series for p in pts]
        if not xs:
            return 0.0, 1.0, 0.0, 1.0
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 <= x0:
            x0, x1 = x0 - 0.5, x0 + 0.5
        if y1 <= y0:
            y0, y1 = y0 - 0.5, y0 + 0.5
        # 5% breathing room on the y axis.
        pad = 0.05 * (y1 - y0)
        return x0, x1, y0 - pad, y1 + pad


def render(panels, path, figure_title):
    """Write the panels side by side, under figure_title, into one SVG
    file."""
    width = MARGIN + len(panels) * (PANEL_W + MARGIN)
    top = PAD_TOP + 22  # below the figure title
    height = top + PANEL_H + PAD_BOTTOM
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           '<rect width="100%" height="100%" fill="white"/>',
           f'<text x="{width / 2:.1f}" y="20" font-size="15" '
           f'text-anchor="middle" font-family="sans-serif">'
           f'{figure_title}</text>']
    for idx, panel in enumerate(panels):
        ox = MARGIN + idx * (PANEL_W + MARGIN)
        out.extend(_render_panel(panel, ox, top))
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def _render_panel(panel, ox, oy):
    x0, x1, y0, y1 = panel.bounds()

    def px(x):
        return ox + (x - x0) / (x1 - x0) * PANEL_W

    def py(y):
        return oy + PANEL_H - (y - y0) / (y1 - y0) * PANEL_H

    parts = [
        f'<rect x="{ox}" y="{oy}" width="{PANEL_W}" height="{PANEL_H}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
        f'<text x="{ox + PANEL_W / 2:.1f}" y="{oy - 10}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">{panel.title}</text>',
        f'<text x="{ox + PANEL_W / 2:.1f}" y="{oy + PANEL_H + 34}" '
        f'font-size="11" text-anchor="middle" font-family="sans-serif">'
        f'{panel.x_label}</text>',
        f'<text x="{ox - 38}" y="{oy + PANEL_H / 2:.1f}" font-size="11" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 {ox - 38} {oy + PANEL_H / 2:.1f})">'
        f'{panel.y_label}</text>',
    ]
    for t in _ticks(x0, x1):
        if x0 <= t <= x1:
            parts.append(f'<line x1="{px(t):.1f}" y1="{oy + PANEL_H}" '
                         f'x2="{px(t):.1f}" y2="{oy + PANEL_H + 4}" '
                         f'stroke="#444"/>')
            parts.append(f'<text x="{px(t):.1f}" y="{oy + PANEL_H + 16}" '
                         f'font-size="10" text-anchor="middle" '
                         f'font-family="sans-serif">{_fmt(t)}</text>')
    for t in _ticks(y0, y1):
        if y0 <= t <= y1:
            parts.append(f'<line x1="{ox - 4}" y1="{py(t):.1f}" '
                         f'x2="{ox}" y2="{py(t):.1f}" stroke="#444"/>')
            parts.append(f'<text x="{ox - 6}" y="{py(t):.1f}" dy="3" '
                         f'font-size="10" text-anchor="end" '
                         f'font-family="sans-serif">{_fmt(t)}</text>')
    legend_y = oy + 14
    for s_idx, (label, pts, dashed) in enumerate(panel.series):
        color = _COLORS[s_idx % len(_COLORS)]
        dash = ' stroke-dasharray="5,4"' if dashed else ""
        if len(pts) > 1:
            coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"{dash}/>')
        if not dashed:
            for x, y in pts:
                parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" '
                             f'r="2.5" fill="{color}"/>')
        if label:
            lx = ox + PANEL_W - 8
            parts.append(f'<line x1="{lx - 60}" y1="{legend_y}" '
                         f'x2="{lx - 40}" y2="{legend_y}" stroke="{color}" '
                         f'stroke-width="1.5"{dash}/>')
            parts.append(f'<text x="{lx - 36}" y="{legend_y}" dy="3" '
                         f'font-size="10" font-family="sans-serif">'
                         f'{label}</text>')
            legend_y += 14
    return parts
