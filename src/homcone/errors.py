"""Exception hierarchy shared across the package."""


class HomconeError(Exception):
    """Base class for all errors raised by this package."""


class ScopeError(HomconeError):
    """A brute-force routine was asked to exceed its documented size limit."""


class ShapeError(HomconeError):
    """Dimension mismatch between arguments."""


class UsageError(HomconeError):
    """Arguments that are individually valid but cannot be combined."""


class InvarianceError(HomconeError):
    """A permutation group does not preserve the graph it is paired with."""

    def __init__(self, message, permutation=None, edge=None):
        super().__init__(message)
        self.permutation = permutation
        self.edge = edge


class DomainError(HomconeError):
    """An argument lies outside the mathematical domain of an operation."""


class IntegrabilityError(DomainError):
    """Prior shape parameter too small for the normalizing integral to exist."""


class DualMembershipError(DomainError):
    """A point is not in the open dual cone."""


class ConvergenceError(HomconeError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class ConjugationError(HomconeError):
    """An orthogonal conjugation does not map a space onto the block form."""

    def __init__(self, message, basis_index=None):
        super().__init__(message)
        self.basis_index = basis_index


class CapabilityError(HomconeError):
    """No block realization could be derived for an invariant space."""


class HomogeneityError(HomconeError):
    """The graph is not homogeneous (chordal and free of induced 4-paths)."""
