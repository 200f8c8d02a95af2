"""Hyperplane arrangements of the reducibility loci, as CSV or SVG.

Coordinates are raw coroot evaluations of the top weight level, so the
sl3 picture is a sheared version of the usual 60-degree-symmetric drawing
of the A2 arrangement; no inner product is chosen.  Output is byte-stable
for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import format_rational

Normal = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class LineSet:
    """Lines through the origin {(x, y) : n1 x + n2 y = 0} with labels."""

    lines: tuple[tuple[str, Normal], ...]
    axes: tuple[str, str]
    range_halfwidth: Fraction

    def __post_init__(self) -> None:
        labels = [label for label, _ in self.lines]
        if len(set(labels)) != len(labels):
            raise ValueError("line labels must be unique")
        if any(n1 == 0 and n2 == 0 for _, (n1, n2) in self.lines):
            raise ValueError("line normals must be nonzero")


def sl3_hyperplanes() -> LineSet:
    """The three loci where the top weight level kills an sl3 coroot, in
    coordinates (value on h1, value on h2)."""
    one, zero = Fraction(1), Fraction(0)
    return LineSet(
        lines=(
            ("alpha1", (one, zero)),
            ("alpha2", (zero, one)),
            ("alpha1+alpha2", (one, one)),
        ),
        axes=("h1", "h2"),
        range_halfwidth=Fraction(10),
    )


def virasoro_lines(m_max: int) -> LineSet:
    """The Virasoro loci 2m y + (m^3 - m)/12 x = 0 for m = 1..m_max, in
    coordinates (value on c, value on L0).  m and -m give the same line."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    lines = tuple(
        (f"m={m}", (Fraction(m**3 - m, 12), Fraction(2 * m)))
        for m in range(1, m_max + 1)
    )
    return LineSet(lines=lines, axes=("c", "L0"), range_halfwidth=Fraction(10))


def render_csv(ls: LineSet) -> str:
    rows = ["label,n1,n2"]
    for label, (n1, n2) in ls.lines:
        rows.append(f"{label},{format_rational(n1)},{format_rational(n2)}")
    return "\n".join(rows) + "\n"


_VIEW = 600          # SVG canvas is a fixed 600 x 600 viewBox
_MARGIN = 10         # frame inset in pixels


def _px(value: Fraction) -> str:
    """Pixel coordinate as a deterministic decimal with <= 3 places."""
    scaled = round(value * 1000)  # Fraction rounding: exact, ties to even
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 1000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:03d}".rstrip("0")


def _endpoints(normal: Normal, r: Fraction) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Intersection of the line with the box [-r, r]^2."""
    n1, n2 = normal
    dx, dy = -n2, n1
    t = r / max(abs(dx), abs(dy))
    return (t * dx, t * dy), (-t * dx, -t * dy)


def render_svg(ls: LineSet) -> str:
    r = ls.range_halfwidth
    half = Fraction(_VIEW, 2)
    span = Fraction(_VIEW // 2 - _MARGIN)

    def to_px(x: Fraction, y: Fraction) -> tuple[str, str]:
        return _px(half + x / r * span), _px(half - y / r * span)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW}" height="{_VIEW}" '
        f'viewBox="0 0 {_VIEW} {_VIEW}">',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_VIEW - 2 * _MARGIN}" '
        f'height="{_VIEW - 2 * _MARGIN}" fill="white" stroke="black" stroke-width="1"/>',
        f'<text x="{_VIEW // 2}" y="{_VIEW - 2}" text-anchor="middle" font-size="12">'
        f"{ls.axes[0]}</text>",
        f'<text x="10" y="{_VIEW // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 10 {_VIEW // 2})">{ls.axes[1]}</text>',
    ]
    for label, normal in ls.lines:
        (x1, y1), (x2, y2) = _endpoints(normal, r)
        px1, py1 = to_px(x1, y1)
        px2, py2 = to_px(x2, y2)
        lx, ly = to_px(x1 * Fraction(4, 5), y1 * Fraction(4, 5))
        parts.append(
            f'<line x1="{px1}" y1="{py1}" x2="{px2}" y2="{py2}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(f'<text x="{lx}" y="{ly}" font-size="10">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

