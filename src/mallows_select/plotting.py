"""Self-contained SVG line plots; no renderer dependency, deterministic output."""

from __future__ import annotations

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 55
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def line_plot_svg(series: list[tuple[str, list[float], list[float]]], title: str, xlabel: str, ylabel: str) -> str:
    """Render labelled (x, y) series as a standalone SVG document."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px_w = _W - _ML - _MR
    px_h = _H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * px_w

    def sy(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * px_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{px_w}" height="{px_h}" fill="none" stroke="#333"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        x = sx(tx)
        parts.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 5}" stroke="#333"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 18}" text-anchor="middle" font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y = sy(ty)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end" font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<text x="{_ML + px_w / 2:.1f}" y="{_H - 12}" text-anchor="middle" font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + px_h / 2:.1f}" text-anchor="middle" font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MT + px_h / 2:.1f})">{ylabel}</text>'
    )
    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.6" fill="{color}"/>')
        ly = _MT + 16 + 16 * idx
        parts.append(f'<line x1="{_W - _MR - 120}" y1="{ly}" x2="{_W - _MR - 96}" y2="{ly}" stroke="{color}" stroke-width="1.6"/>')
        parts.append(
            f'<text x="{_W - _MR - 90}" y="{ly + 4}" font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
