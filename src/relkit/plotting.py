"""Hand-emitted SVG rendering of loss curves and their relevance regions.

No plotting dependency: the figure is a fixed-viewBox SVG with both loss
curves as polylines, shaded negligible/relevant bands, five ticks per axis,
and a labeled vertical marker at every curve crossing. Output is
deterministic for identical inputs up to the version comment line.
"""

from __future__ import annotations

import html

from ._version import __version__
from .loss import ActionPair, LossSpec, breakpoints, evaluate_loss, sample_grid
from .regions import RelevancePartition

_WIDTH, _HEIGHT = 720, 480  # canvas in pixels
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 28, 44

_NEGLIGIBLE_FILL = "#dce6f2"
_RELEVANT_FILL = "#f6ddc9"
_A0_COLOR = "#1a4f8b"
_A1_COLOR = "#b34700"


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_loss_plot(
    spec: LossSpec, part: RelevancePartition, actions: ActionPair | None = None
) -> str:
    """Render both loss curves with the relevance partition shaded; each
    curve is sampled at 512 uniform points plus the loss breakpoints."""
    actions = actions or ActionPair("a0", "a1")
    space = spec.space
    grid = sample_grid(space, 512, include=breakpoints(spec))
    y0 = [evaluate_loss(spec, t, "a0") for t in grid]
    y1 = [evaluate_loss(spec, t, "a1") for t in grid]
    y_max = max(max(y0), max(y1), 1e-12) * 1.05

    x_px0, x_px1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y_px0, y_px1 = _HEIGHT - _MARGIN_B, _MARGIN_T

    def sx(t: float) -> float:
        return x_px0 + (t - space.lo) / space.span * (x_px1 - x_px0)

    def sy(v: float) -> float:
        return y_px0 + v / y_max * (y_px1 - y_px0)

    parts: list[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(f"<!-- relkit {__version__} -->")
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} '
        f'{_HEIGHT}" width="{_WIDTH}" height="{_HEIGHT}">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')

    for label, region, fill in (
        ("negligible", part.negligible, _NEGLIGIBLE_FILL),
        ("relevant", part.relevant, _RELEVANT_FILL),
    ):
        for itv in region.intervals:
            x_a, x_b = sx(itv.lo), sx(itv.hi)
            parts.append(
                f'<rect class="region-{label}" x="{_fmt(x_a)}" y="{y_px1}" '
                f'width="{_fmt(max(x_b - x_a, 0.0))}" '
                f'height="{y_px0 - y_px1}" fill="{fill}"/>'
            )

    # axes with 5 ticks per axis
    parts.append(
        f'<line x1="{x_px0}" y1="{y_px0}" x2="{x_px1}" y2="{y_px0}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x_px0}" y1="{y_px0}" x2="{x_px0}" y2="{y_px1}" '
        'stroke="black" stroke-width="1"/>'
    )
    for t in _ticks(space.lo, space.hi):
        x = sx(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{y_px0}" x2="{_fmt(x)}" y2="{y_px0 + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{y_px0 + 18}" font-size="11" '
            f'text-anchor="middle">{t:.3g}</text>'
        )
    for v in _ticks(0.0, y_max):
        y = sy(v)
        parts.append(
            f'<line x1="{x_px0 - 5}" y1="{_fmt(y)}" x2="{x_px0}" y2="{_fmt(y)}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x_px0 - 8}" y="{_fmt(y + 4)}" font-size="11" '
            f'text-anchor="end">{v:.3g}</text>'
        )
    parts.append(
        f'<text x="{(x_px0 + x_px1) // 2}" y="{_HEIGHT - 8}" font-size="12" '
        'text-anchor="middle">effect</text>'
    )
    parts.append(
        f'<text x="14" y="{(y_px0 + y_px1) // 2}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 14 {(y_px0 + y_px1) // 2})">'
        "loss</text>"
    )

    for values, color, dash, label in (
        (y0, _A0_COLOR, ' stroke-dasharray="5 4"', actions.a0_label),
        (y1, _A1_COLOR, "", actions.a1_label),
    ):
        points = " ".join(f"{_fmt(sx(t))},{_fmt(sy(v))}" for t, v in zip(grid, values))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} '
            f'points="{points}"/>'
        )
        parts.append(
            f'<text x="{x_px1 - 4}" y="{_fmt(sy(values[-1]) - 6)}" font-size="12" '
            f'fill="{color}" text-anchor="end">{html.escape(label, quote=False)}</text>'
        )

    for c in part.crossings:
        x = sx(c)
        parts.append(
            f'<line class="crossing" x1="{_fmt(x)}" y1="{y_px0}" x2="{_fmt(x)}" '
            f'y2="{y_px1}" stroke="#555555" stroke-width="1" '
            'stroke-dasharray="2 3"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{y_px1 - 6}" font-size="11" fill="#555555" '
            f'text-anchor="middle">{c:.3f}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
