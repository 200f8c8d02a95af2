"""Exception types shared across the library."""


class TclaError(Exception):
    """Base class for all library errors."""


class UnknownAlgebraError(TclaError):
    """A requested algebra name is not in the catalog."""


class UnknownElementError(TclaError):
    """A basis element does not belong to the algebra it was used with
    (bad Cartan index, bad root, a root vector with a nonzero index, or
    t-degree out of range)."""


class NotARootError(TclaError):
    """A vector that was required to be a (positive) root is not one."""


class InvalidAlgebraError(TclaError):
    """The algebra's own data violates a structural hypothesis, e.g. a
    zero pairing <x_alpha, y_alpha>, or a bracket [x_alpha, y_alpha] with
    no coroot.  Signals an internal defect, not bad user input."""


class DegreeError(TclaError):
    """A t-degree index passed to a weight functional is out of range."""
