"""The package's public surface: every exported name resolves, once, and
the API removed as unused stays removed."""

import tcla
from tcla import TruncatedAlgebra, VermaModule, WeightFunctional, lie_core, linalg, rationals, shapovalov

REMOVED_EXPORTS = (
    "VermaVector", "canonical_monomial", "enumerate_positive_roots", "render", "Rat", "shapovalov_determinant",
    "RescaledLowering", "LinComb", "monomial_weight",
)
REMOVED_ATTRIBUTES = [
    (tcla.Algebra, "element_label"),
    (TruncatedAlgebra, "element"),
    (WeightFunctional, "to_named"),
    (VermaModule, "apply_lowering"),
    (VermaModule, "apply_cartan"),
    (VermaModule, "apply_raising"),
    (VermaModule, "act_word"),
    (lie_core, "Rat"),
    (rationals, "Rat"),
    (tcla.Algebra, "root_space_dim"),
    (TruncatedAlgebra, "subspace_basis"),
    (linalg, "invert"),
    (linalg, "kernel_vector"),
    (linalg, "left_kernel_vector"),
    (shapovalov, "shapovalov_determinant"),
    (tcla.Root, "__post_init__"),
    (lie_core, "RescaledLowering"),
    (lie_core, "LinComb"),
    (tcla.BaseElement, "is_cartan"),
    (tcla.Algebra, "root_functional"),
    (tcla.Algebra, "simple_root_action"),
    (tcla.Algebra, "pairing"),
    (tcla.OscillatorAlgebra, "pairing"),
    (tcla.Algebra, "cartan_element"),
    (tcla.Algebra, "root_element"),
    (tcla.Root, "zero"),
    (WeightFunctional, "evaluate_basis"),
]


def test_every_export_resolves_once():
    assert len(tcla.__all__) == len(set(tcla.__all__))
    namespace: dict = {}
    exec("from tcla import *", namespace)
    for name in tcla.__all__:
        assert name in namespace, name


def test_removed_names_stay_removed():
    for name in REMOVED_EXPORTS:
        assert name not in tcla.__all__
        assert not hasattr(tcla, name), name
    for owner, name in REMOVED_ATTRIBUTES:
        assert not hasattr(owner, name), (owner, name)
