"""Dependency-free SVG rendering of the paper's evaluation figures.

Generates standalone SVG line charts of Fig. 9(a)-(c) and Fig. 10 from
the platform model — no plotting library needed.  Exposed on the CLI as
``repro-fusion figures`` and scripted by ``tools/plot_svg.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Union

from .errors import ConfigurationError
from .sweeps import (
    SweepRow,
    energy_sweep,
    forward_stage_sweep,
    inverse_stage_sweep,
    total_time_sweep,
)

PathLike = Union[str, Path]

COLORS = {"arm": "#d62728", "neon": "#1f77b4", "fpga": "#2ca02c"}
WIDTH, HEIGHT = 560, 360
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 24, 40, 56


def _scale(values: Sequence[float], lo: float, hi: float,
           out_lo: float, out_hi: float) -> List[float]:
    span = (hi - lo) or 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def render_chart(rows: Sequence[SweepRow], title: str,
                 x_label: str = "frame size") -> str:
    """One SVG line chart (one series per engine) from sweep rows."""
    if not rows:
        raise ConfigurationError("cannot chart an empty sweep")
    labels = [str(r.shape) for r in rows]
    names = sorted(rows[0].values)
    series = {name: [r.values[name] for r in rows] for name in names}
    y_max = max(max(vals) for vals in series.values()) * 1.08

    xs = _scale(range(len(rows)), 0, len(rows) - 1,
                MARGIN_L, WIDTH - MARGIN_R)
    plot_bottom = HEIGHT - MARGIN_B
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" '
        f'font-size="14" font-weight="bold">{title}</text>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{plot_bottom}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{plot_bottom}" '
        f'x2="{WIDTH - MARGIN_R}" y2="{plot_bottom}" stroke="black"/>',
    ]
    for tick in range(5):
        value = y_max * tick / 4
        y = plot_bottom - (plot_bottom - MARGIN_T) * tick / 4
        parts.append(f'<line x1="{MARGIN_L - 4}" y1="{y:.1f}" '
                     f'x2="{WIDTH - MARGIN_R}" y2="{y:.1f}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{value:.3g}</text>')
    for x, label in zip(xs, labels):
        parts.append(f'<text x="{x:.1f}" y="{plot_bottom + 18}" '
                     f'text-anchor="middle">{label}</text>')
    parts.append(f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" '
                 f'text-anchor="middle">{x_label}</text>')

    for name in names:
        color = COLORS.get(name, "#555555")
        values = series[name]
        ys = [plot_bottom - (v / y_max) * (plot_bottom - MARGIN_T)
              for v in values]
        points = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3.2" '
                         f'fill="{color}"/>')

    for i, name in enumerate(names):
        x0 = MARGIN_L + 12 + i * 110
        color = COLORS.get(name, "#555555")
        parts.append(f'<rect x="{x0}" y="{MARGIN_T + 4}" width="12" '
                     f'height="12" fill="{color}"/>')
        parts.append(f'<text x="{x0 + 18}" y="{MARGIN_T + 14}">'
                     f'{name.upper()}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


#: name -> (sweep function, chart title)
FIGURES = {
    "fig9a": (forward_stage_sweep,
              "Fig. 9(a) Forward DT-CWT time (s / 10 frames)"),
    "fig9b": (total_time_sweep, "Fig. 9(b) Total time (s / 10 frames)"),
    "fig9c": (inverse_stage_sweep,
              "Fig. 9(c) Inverse DT-CWT time (s / 10 frames)"),
    "fig10": (energy_sweep, "Fig. 10 Total energy (mJ / 10 frames)"),
}


def generate_figures(out_dir: PathLike, levels: int = 3,
                     names: Sequence[str] = tuple(FIGURES)) -> List[Path]:
    """Render the requested figures into ``out_dir``; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name in names:
        if name not in FIGURES:
            raise ConfigurationError(
                f"unknown figure {name!r}; known: {sorted(FIGURES)}"
            )
        sweep_fn, title = FIGURES[name]
        svg = render_chart(sweep_fn(levels=levels), title)
        path = out / f"{name}.svg"
        path.write_text(svg)
        written.append(path)
    return written
