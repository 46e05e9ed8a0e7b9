"""Minimal deterministic SVG line plots (log-log), no plotting dependency.

Every coordinate is formatted with a fixed precision so identical data
produces byte-identical files.
"""

import math

PALETTE = ["#1f5fa8", "#c23b22", "#2e8b57", "#8a2be2", "#b8860b", "#444444"]
WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50


def _fmt(x):
    return f"{x:.3f}"


def _decades(lo, hi):
    out = []
    d = math.floor(lo)
    while d <= math.ceil(hi):
        if lo - 1e-9 <= d <= hi + 1e-9:
            out.append(d)
        d += 1
    return out


def write_loglog_svg(path, series, title, xlabel, ylabel):
    """series: list of (label, xs, ys), each label non-empty; nonpositive
    points are dropped."""
    pts_all = []
    clean = []
    for label, xs, ys in series:
        pts = [(math.log10(x), math.log10(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
        clean.append((label, pts))
        pts_all.extend(pts)
    if not pts_all:
        xlo = ylo = -1.0
        xhi = yhi = 1.0
    else:
        xlo = min(p[0] for p in pts_all)
        xhi = max(p[0] for p in pts_all)
        ylo = min(p[1] for p in pts_all)
        yhi = max(p[1] for p in pts_all)
    if xhi - xlo < 1e-9:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi - ylo < 1e-9:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def X(lx):
        return MARGIN_L + pw * (lx - xlo) / (xhi - xlo)

    def Y(ly):
        return MARGIN_T + ph * (yhi - ly) / (yhi - ylo)

    lines = []
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    lines.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    lines.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#222222" stroke-width="1"/>'
    )
    lines.append(
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="15">{title}</text>'
    )
    for d in _decades(xlo, xhi):
        x = _fmt(X(d))
        lines.append(
            f'<line x1="{x}" y1="{MARGIN_T}" x2="{x}" y2="{MARGIN_T + ph}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{x}" y="{MARGIN_T + ph + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">1e{d}</text>'
        )
    for d in _decades(ylo, yhi):
        y = _fmt(Y(d))
        lines.append(
            f'<line x1="{MARGIN_L}" y1="{y}" x2="{MARGIN_L + pw}" y2="{y}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{MARGIN_L - 8}" y="{y}" text-anchor="end" '
            f'font-family="monospace" font-size="11">1e{d}</text>'
        )
    lines.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{xlabel}</text>'
    )
    lines.append(
        f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {HEIGHT // 2})">{ylabel}</text>'
    )
    for idx, (label, pts) in enumerate(clean):
        color = PALETTE[idx % len(PALETTE)]
        if pts:
            path_d = " ".join(
                f"{'M' if i == 0 else 'L'} {_fmt(X(px))} {_fmt(Y(py))}"
                for i, (px, py) in enumerate(pts)
            )
            lines.append(
                f'<path d="{path_d}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
            for px, py in pts:
                lines.append(
                    f'<circle cx="{_fmt(X(px))}" cy="{_fmt(Y(py))}" r="2.5" fill="{color}"/>'
                )
        ytxt = MARGIN_T + 16 + 16 * idx
        lines.append(
            f'<rect x="{MARGIN_L + 10}" y="{ytxt - 9}" width="10" height="10" fill="{color}"/>'
        )
        lines.append(
            f'<text x="{MARGIN_L + 26}" y="{ytxt}" font-family="monospace" '
            f'font-size="12">{label}</text>'
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
