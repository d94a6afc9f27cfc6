"""Exception hierarchy shared across the package.

Everything derives from :class:`ChanPolarError` (itself a ``ValueError``) so
callers can trap the whole family with one except clause.
"""


class ChanPolarError(ValueError):
    """Base class for all chanpolar errors."""


class NotHermitian(ChanPolarError):
    """Input violates the Hermitian-symmetry tolerance."""


class NoConvergence(ChanPolarError):
    """An iterative factorization exhausted its iteration budget."""


class NotContraction(ChanPolarError):
    """Spectral radius exceeds 1 beyond tolerance."""


class DimensionMismatch(ChanPolarError):
    """Operands act on inconsistent Hilbert-space dimensions."""


class NotCP(ChanPolarError):
    """Choi matrix has an eigenvalue below the complete-positivity floor."""


class DegenerateLeading(ChanPolarError):
    """Leading Kraus weight is degenerate and strict mode is on."""


class TargetNotUnitary(ChanPolarError):
    """Target operator is not unitary within tolerance."""


class NotNonCatastrophic(ChanPolarError):
    """Channel (or composition) fails the non-catastrophic condition."""


class NotDecoherent(ChanPolarError):
    """Channel's leading Kraus operator is not positive semi-definite."""


class NotTraceless(ChanPolarError):
    """Lindblad operator carries a trace beyond tolerance."""


class RatioOutOfRange(ChanPolarError):
    """Per-element fidelity/upsilon ratio outside the admissible interval."""


class ParamOutOfRange(ChanPolarError):
    """Channel-family parameter outside its documented range."""


class PhaseUndefined(ChanPolarError):
    """Global phase convention tr V in R+ cannot be applied (tr V ~ 0)."""
