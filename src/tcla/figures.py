"""Hyperplane arrangements of the reducibility loci, as CSV or SVG.

Each line is the zero set of a coroot, read from the algebra's own
``coroot`` and ``positive_roots`` and labelled with ``root_label``.
Coordinates are raw coroot evaluations of the top weight level, so the
sl3 picture is a sheared version of the usual 60-degree-symmetric drawing
of the A2 arrangement; no inner product is chosen.  Output is byte-stable
for identical inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InputError
from .lie_core import Algebra, Root, algebra, root_label
from .rationals import format_rational

Normal = tuple[Fraction, Fraction]


class LineSet(NamedTuple):
    """Lines through the origin {(x, y) : n1 x + n2 y = 0} with labels.

    The renderers check that the labels are unique and the normals
    nonzero before they write anything."""

    lines: tuple[tuple[str, Normal], ...]
    axes: tuple[str, str]


def _check(ls: LineSet) -> None:
    labels = [label for label, _ in ls.lines]
    if len(set(labels)) != len(labels):
        raise InputError("line labels must be unique")
    if any(n1 == 0 and n2 == 0 for _, (n1, n2) in ls.lines):
        raise InputError("line normals must be nonzero")


def _loci(base: Algebra, roots: list[Root], axes: tuple[str, str]) -> LineSet:
    """The line where the top weight level kills each root's coroot, with
    the coroot's Cartan coordinates permuted into the figure's axis order."""
    order = [base.cartan_names.index(name) for name in axes]
    lines = tuple(
        (root_label(base, root), tuple(base.coroot(root)[k] for k in order)) for root in roots
    )
    return LineSet(lines=lines, axes=axes)


def sl3_hyperplanes() -> LineSet:
    """The three loci where the top weight level kills an sl3 coroot, in
    coordinates (value on h1, value on h2)."""
    sl3 = algebra("sl3")
    return _loci(sl3, sl3.positive_roots(), ("h1", "h2"))


def virasoro_lines(m_max: int) -> LineSet:
    """The Virasoro loci 2m y + (m^3 - m)/12 x = 0 for m = 1..m_max, in
    coordinates (value on c, value on L0).  m and -m give the same line."""
    if m_max < 1:
        raise InputError("m_max must be >= 1")
    vir = algebra("virasoro")
    return _loci(vir, vir.positive_roots(m_max), ("c", "L0"))


def render_csv(ls: LineSet) -> str:
    _check(ls)
    rows = ["label,n1,n2"]
    for label, (n1, n2) in ls.lines:
        rows.append(f"{label},{format_rational(n1)},{format_rational(n2)}")
    return "\n".join(rows) + "\n"


_VIEW = 600          # SVG canvas is a fixed 600 x 600 viewBox
_MARGIN = 10         # frame inset in pixels
_RANGE = Fraction(10)  # the frame shows the weight box [-10, 10]^2


def _px(value: Fraction) -> str:
    """Pixel coordinate as a deterministic decimal with <= 3 places."""
    scaled = round(value * 1000)  # Fraction rounding: exact, ties to even
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 1000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:03d}".rstrip("0")


def _endpoints(normal: Normal) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Intersection of the line with the box [-_RANGE, _RANGE]^2."""
    n1, n2 = normal
    dx, dy = -n2, n1
    t = _RANGE / max(abs(dx), abs(dy))
    return (t * dx, t * dy), (-t * dx, -t * dy)


def render_svg(ls: LineSet) -> str:
    _check(ls)
    half = Fraction(_VIEW, 2)
    span = Fraction(_VIEW // 2 - _MARGIN)

    def to_px(x: Fraction, y: Fraction) -> tuple[str, str]:
        return _px(half + x / _RANGE * span), _px(half - y / _RANGE * span)

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
        (x1, y1), (x2, y2) = _endpoints(normal)
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

