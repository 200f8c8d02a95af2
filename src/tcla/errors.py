"""Exception types shared across the library.

Bad input is one type, ``InputError``, raised by the check that states
its rule: an unknown algebra name, a nilpotency order below 1, an element
or root outside its algebra, a weight of the wrong shape, a weight drop
outside the positive cone, an out-of-range bound or a text that is not an
exact rational.  It is also a ``ValueError``.  ``InvalidAlgebraError`` is
reserved for data that breaks the library's own hypotheses, a defect
rather than bad input.  The CLI exits 3 on the first and 4 on the second.
"""


class TclaError(Exception):
    """Base class for all library errors."""


class InputError(TclaError, ValueError):
    """An argument breaks a documented rule of the call it was passed to."""


class InvalidAlgebraError(TclaError):
    """The algebra's own data violates a structural hypothesis, e.g. a
    bracket [x_alpha, y_alpha] that is zero or has a root-vector term, so
    no coroot.  Signals an internal defect, not bad user input."""
