"""Minimal SVG emission for diagnostic plots. No plotting dependency."""

from __future__ import annotations

import numpy as np

WIDTH = 800
HEIGHT = 600
MARGIN_L = 65
MARGIN_R = 20
MARGIN_T = 45
MARGIN_B = 50

_AXIS_LABELS = {
    "qq": ("theoretical normal quantile", "sorted residual"),
    "pp": ("uniform position", "sorted residual probability"),
    "res_vs_fits": ("linear predictor", "residual"),
    "scale_location": ("linear predictor", "|residual|"),
}


def _escape(s):
    return (
        str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


class _Scale:
    def __init__(self, lo, hi, out_lo, out_hi):
        if hi <= lo:
            hi = lo + 1.0
        pad = 0.05 * (hi - lo)
        self.lo = lo - pad
        self.hi = hi + pad
        self.out_lo = out_lo
        self.out_hi = out_hi

    def __call__(self, v):
        f = (v - self.lo) / (self.hi - self.lo)
        return self.out_lo + f * (self.out_hi - self.out_lo)

    def ticks(self, count=5):
        return np.linspace(self.lo, self.hi, count)


def _polyline(xs, ys, sx, sy, style):
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    return f'<polyline points="{pts}" style="{style}" />'


def _tick_label(t, span):
    if abs(t) < 1e-9 * span:
        return "0"
    return f"{t:.3g}"


def render_diagnostic(result, title=None):
    """Render a DiagnosticResult as a standalone SVG document.

    The envelope is a single closed polygon; the center function is a
    dashed line; the observed function is a solid line with point
    markers.  The annotation states the p-value, the test outcome and
    the envelope's alpha.
    """
    grid = result.grid
    env = result.envelope
    xs_all = [grid]
    ys_all = [result.observed, env.lower, env.upper]
    if result.points is not None:
        xs_all.append(result.points[:, 0])
        ys_all.append(result.points[:, 1])
    x_lo = min(float(np.min(v)) for v in xs_all)
    x_hi = max(float(np.max(v)) for v in xs_all)
    y_lo = min(float(np.min(v)) for v in ys_all)
    y_hi = max(float(np.max(v)) for v in ys_all)

    sx = _Scale(x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)
    sy = _Scale(y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T)

    kind = result.kind.value
    xlabel, ylabel = _AXIS_LABELS[kind]
    verdict = "outside envelope" if result.reject else "inside envelope"
    note = (f"{kind}: p = {result.p_value:.4g} ({verdict})"
            f" at alpha = {env.alpha:g}")

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]

    # envelope band: forward along the upper bound, back along the lower
    band = " ".join(
        f"{sx(x):.2f},{sy(u):.2f}" for x, u in zip(grid, env.upper)
    )
    band += " " + " ".join(
        f"{sx(x):.2f},{sy(l):.2f}" for x, l in zip(grid[::-1], env.lower[::-1])
    )
    parts.append(
        f'<polygon class="envelope-band" points="{band}" '
        'style="fill:#bcd8ee;stroke:none" />'
    )
    parts.append(
        _polyline(grid, env.center, sx, sy,
                  "fill:none;stroke:#888888;stroke-width:1;"
                  "stroke-dasharray:5,4")
    )
    parts.append(
        _polyline(grid, result.observed, sx, sy,
                  "fill:none;stroke:#1a6b22;stroke-width:1.5")
    )
    if result.points is not None:
        for x, y in result.points:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                'style="fill:#222222;stroke:none" />'
            )

    # axes and ticks
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{WIDTH - MARGIN_R}" y2="{y0}" '
        'style="stroke:#000000;stroke-width:1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{MARGIN_T}" '
        'style="stroke:#000000;stroke-width:1"/>'
    )
    for t in sx.ticks():
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" '
            'style="stroke:#000000;stroke-width:1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 18}" font-size="11" '
            f'text-anchor="middle">{_tick_label(t, sx.hi - sx.lo)}</text>'
        )
    for t in sy.ticks():
        py = sy(t)
        parts.append(
            f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" '
            'style="stroke:#000000;stroke-width:1"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end">{_tick_label(t, sy.hi - sy.lo)}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.0f}" '
        f'y="{HEIGHT - 12}" font-size="13" text-anchor="middle">'
        f"{_escape(xlabel)}</text>"
    )
    parts.append(
        f'<text x="18" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f}" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f})">'
        f"{_escape(ylabel)}</text>"
    )
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="22" font-size="15" '
            f'text-anchor="middle">{_escape(title)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L}" y="{MARGIN_T - 8}" font-size="12">'
        f"{_escape(note)}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
