"""Exception hierarchy shared by the whole package."""


class LieNcgError(Exception):
    """Base class for all errors raised by this package."""


class NotPrimePower(LieNcgError):
    """The requested field order is not a prime power."""


class UnsupportedField(LieNcgError):
    """The field order exceeds the supported range."""


class CapExceeded(LieNcgError):
    """A computation was refused because it exceeds a configured size cap."""


class SpecError(LieNcgError):
    """An algebra spec failed validation."""


class ParseError(SpecError):
    """The spec file is not well-formed."""


class UnknownBasisName(SpecError):
    """A basis name is malformed or repeated, or a bracket refers to a basis
    name that was never declared."""


class DuplicateBracket(SpecError):
    """The same unordered basis pair is assigned a bracket twice."""


class SelfBracketNonzero(SpecError):
    """A spec sets a nonzero bracket of a basis element with itself."""


class JacobiViolation(SpecError):
    """The structure constants violate the Jacobi identity.

    Carries the offending basis triple in ``triple``.
    """

    def __init__(self, triple):
        self.triple = tuple(triple)
        super().__init__(f"Jacobi identity fails on basis triple {self.triple}")


class AbelianAlgebra(LieNcgError):
    """The algebra is abelian, so its non-commuting graph has no vertices."""


class EmptyGraph(LieNcgError):
    """The operation needs at least one vertex."""


class Undecided(LieNcgError):
    """A graph invariant was asked of a graph that none of the facts it is
    answered from decides.  Every non-commuting graph is decided."""


class UnknownStatement(LieNcgError):
    """No statement with this id is registered with the verifier."""
