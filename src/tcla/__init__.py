"""Exact Verma-module computations over truncated current Lie algebras.

Builds the algebras g (x) k[t]/t^(N+1) over exact rationals, acts on their
Verma modules in the PBW basis, computes Shapovalov matrices and
determinants, and checks the coroot reducibility criterion against
brute-force determinant vanishing.
"""

from .criterion import (
    ScanReport,
    ValidationReport,
    Verdict,
    criterion_reducible,
    cross_validate,
    default_scan_height,
    scan_reducible,
)
from .current import CurrentElement, TruncatedAlgebra
from .errors import (
    DegreeError,
    InvalidAlgebraError,
    NotARootError,
    TclaError,
    UnknownAlgebraError,
    UnknownElementError,
)
from .figures import LineSet, render_csv, render_svg, sl3_hyperplanes, virasoro_lines
from .lie_core import (
    BUILTIN_ALGEBRAS,
    Algebra,
    BaseElement,
    OscillatorAlgebra,
    Root,
    SpecialLinear,
    VirasoroAlgebra,
    algebra,
)
from .shapovalov import ShapovalovMatrix, ascend, matrix_to_json, shapovalov_matrix
from .verma import VermaModule
from .weights import (
    Monomial,
    WeightFunctional,
    enumerate_monomials,
    format_monomial,
    positive_lattice_points,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "BaseElement",
    "BUILTIN_ALGEBRAS",
    "CurrentElement",
    "DegreeError",
    "InvalidAlgebraError",
    "LineSet",
    "Monomial",
    "NotARootError",
    "OscillatorAlgebra",
    "Root",
    "ScanReport",
    "ShapovalovMatrix",
    "SpecialLinear",
    "TclaError",
    "TruncatedAlgebra",
    "UnknownAlgebraError",
    "UnknownElementError",
    "ValidationReport",
    "Verdict",
    "VermaModule",
    "VirasoroAlgebra",
    "WeightFunctional",
    "algebra",
    "ascend",
    "criterion_reducible",
    "cross_validate",
    "default_scan_height",
    "enumerate_monomials",
    "format_monomial",
    "matrix_to_json",
    "positive_lattice_points",
    "render_csv",
    "render_svg",
    "scan_reducible",
    "shapovalov_matrix",
    "sl3_hyperplanes",
    "virasoro_lines",
]
