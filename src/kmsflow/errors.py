"""Exception types raised by kmsflow.

The rule: raise on failure to construct, report on failed certification.
A constructor (building a generator, a calculus, a commutator family, ...)
raises one of the exceptions below only when it cannot build its object or
its input fails a precondition it needs to build it.  Whether the object
satisfies an identity it is claimed to satisfy is measured by a report
function, which returns a :class:`kmsflow.reports.Report` and never raises
on a failed check; each identity has one such measurement.  Exceptions that
wrap a report carry it in the ``report`` attribute, and a
:class:`MeasuredFailure` the value and bound of the one measurement its
constructor cannot build past.
"""


class KmsflowError(Exception):
    """Base class for all kmsflow errors."""


class DimensionMismatch(KmsflowError):
    """Operands do not share the same matrix dimension."""


class NotHermitian(KmsflowError):
    """A matrix required to be Hermitian is not, within tolerance."""


class NotPSD(KmsflowError):
    """A matrix required to be positive semidefinite has a negative eigenvalue
    below tolerance."""


class WrongLevel(KmsflowError):
    """A superoperator was used at the wrong representation level
    (algebra-level where an L2-level map was required, or vice versa)."""


class EmptyKrausList(KmsflowError):
    """A Kraus family must contain at least one operator."""


class ReportError(KmsflowError):
    """Base class for errors carrying a certification report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class PreconditionFailed(ReportError):
    """An input failed the certification required by the operation."""


class CertificationFailed(ReportError):
    """An object failed a certification its type requires, so it cannot be
    built (a ``MarkovGenerator`` is certified by construction)."""


class Infeasible(ReportError):
    """No admissible CP map: -L is not CCN, so no completely positive Psi
    reproduces the generator."""


class InsufficientRange(KmsflowError):
    """Quadrature truncation range is too short (or the density matrix too
    ill-conditioned) for the requested accuracy."""


class MeasuredFailure(KmsflowError):
    """Base class for errors raised when a measured quantity misses its
    bound.  ``value`` is the quantity and ``bound`` the limit (or expected
    value) it was checked against, both None when the raise site has none."""

    def __init__(self, message, value=None, bound=None):
        super().__init__(message)
        self.value = value
        self.bound = bound


class NotHermiticityPreserving(MeasuredFailure):
    """The map does not satisfy S(X*) = S(X)* on the matrix-unit basis."""


class GramNotPSD(MeasuredFailure):
    """The quotient Gram form has a negative eigenvalue beyond tolerance,
    signalling a non-CND input."""


class ReconstructionFailure(MeasuredFailure):
    """The V-transformed generator does not annihilate I (Lv(I) != 0), so
    ``gns_calculus`` cannot build the quotient; value and bound are the
    kernel defect ||Lv(I)|| and its bound."""


class InconsistentPsi(KmsflowError):
    """The supplied completely positive map is not consistent with the
    generator it is paired with."""


class NotJFixed(KmsflowError):
    """A vector required to be fixed by the modular conjugation is not."""


class SchemaError(KmsflowError):
    """A JSON document does not match the expected schema."""
