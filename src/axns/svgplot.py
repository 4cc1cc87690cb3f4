"""Hand-rolled SVG line plots for monitor series.

No plotting dependency: the rendered documents are small, well-formed XML
that tests parse back with xml.etree to check the plotted geometry.  The
vertical pixel axis points down, so a curve of nondecreasing data has
nonincreasing y coordinates in the polyline.  Nothing here touches the
file system: storage.RunWriter writes the files.
"""

from __future__ import annotations

import html

W, H = 640, 420
ML, MR, MT, MB = 76, 24, 44, 52
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def render_line_plot(title, xlabel, curves) -> str:
    """Render curves = [(label, xs, ys), ...] to an SVG document string."""
    if not curves:
        raise ValueError("render_line_plot: no curves")
    for label, xs, ys in curves:
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError(f"render_line_plot: curve {label!r} needs >= 2 points")
    all_x = [x for _, xs, _ in curves for x in xs]
    all_y = [y for _, _, ys in curves for y in ys]
    xmin, xmax = min(all_x), max(all_x)
    ymin, ymax = min(all_y), max(all_y)
    if xmax <= xmin:
        xmax = xmin + 1.0
    if ymax <= ymin:
        pad = 1.0 if ymin == 0 else 0.5 * abs(ymin)
        ymin, ymax = ymin - pad, ymax + pad

    def px(x):
        return ML + (W - ML - MR) * (x - xmin) / (xmax - xmin)

    def py(yv):
        return H - MB - (H - MT - MB) * (yv - ymin) / (ymax - ymin)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="sans-serif">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.0f}" y="26" text-anchor="middle" font-size="15">'
        f"{html.escape(title, quote=False)}</text>",
        f'<line x1="{ML}" y1="{H - MB}" x2="{W - MR}" y2="{H - MB}" stroke="black"/>',
        f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{H - MB}" stroke="black"/>',
        f'<text x="{(ML + W - MR) / 2:.0f}" y="{H - 14}" text-anchor="middle" '
        f'font-size="12">{html.escape(xlabel, quote=False)}</text>',
    ]
    nticks = 5
    for k in range(nticks):
        xv = xmin + (xmax - xmin) * k / (nticks - 1)
        xp = px(xv)
        out.append(
            f'<line x1="{xp:.2f}" y1="{H - MB}" x2="{xp:.2f}" y2="{H - MB + 5}" '
            'stroke="black"/>'
        )
        out.append(
            f'<text x="{xp:.2f}" y="{H - MB + 18}" text-anchor="middle" '
            f'font-size="11">{html.escape("%.4g" % xv, quote=False)}</text>'
        )
        yv = ymin + (ymax - ymin) * k / (nticks - 1)
        yp = H - MB - (H - MT - MB) * k / (nticks - 1)
        label = "%.4g" % yv
        out.append(
            f'<line x1="{ML - 5}" y1="{yp:.2f}" x2="{ML}" y2="{yp:.2f}" '
            'stroke="black"/>'
        )
        out.append(
            f'<text x="{ML - 8}" y="{yp + 4:.2f}" text-anchor="end" '
            f'font-size="11">{html.escape(label, quote=False)}</text>'
        )
    for n, (label, xs, ys) in enumerate(curves):
        color = PALETTE[n % len(PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )
        ly = MT + 14 * n
        out.append(
            f'<line x1="{W - MR - 110}" y1="{ly}" x2="{W - MR - 86}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{W - MR - 80}" y="{ly + 4}" font-size="11">'
            f"{html.escape(label, quote=False)}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_plots(series) -> dict[str, str]:
    """Render the standard plot set for one run as {file name: SVG text};
    needs >= 2 rows."""
    rows = series.rows
    if len(rows) < 2:
        raise ValueError(f"emit_plots: need at least 2 rows, got {len(rows)}")
    t = [r.t for r in rows]

    def col(name):
        return [getattr(r, name) for r in rows]

    specs = [
        ("energy.svg", "kinetic energy", ("E",)),
        ("dissipation.svg", "dissipation integral", ("D",)),
        ("criteria.svg", "axis criteria", ("critA", "critB")),
        ("criteria_int.svg", "time-integrated criteria", ("critA_int", "critB_int")),
        ("swirl.svg", "swirl maximum", ("swirl_sup",)),
    ]
    return {
        fname: render_line_plot(title, "t", [(name, t, col(name)) for name in names])
        for fname, title, names in specs
    }
