"""Exception hierarchy shared by all cpdilate modules."""


class CpdilateError(Exception):
    """Base class for all library errors."""


# -- numerics ----------------------------------------------------------------

class NonFinite(CpdilateError):
    """Input contains NaN or Inf entries."""


class NonHermitian(CpdilateError):
    """Matrix fails the Hermitian symmetry precondition."""


class NotPSD(CpdilateError):
    """Matrix has an eigenvalue below the negative tolerance band."""


# -- algebra -----------------------------------------------------------------

class DimensionCap(CpdilateError):
    """A requested space exceeds the configured dimension cap."""


class NotInAlgebra(CpdilateError):
    """Ambient matrix is not a member of the algebra (beyond tolerance)."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


# -- cpmap -------------------------------------------------------------------

class NotHermitianPreserving(CpdilateError):
    """Linear map does not satisfy S(a*) = S(a)*."""


class NotCP(CpdilateError):
    """Map is not completely positive (or the flag is unset)."""


class NotUnital(CpdilateError):
    """Map does not send the identity to the identity."""


class NotFullAlgebra(CpdilateError):
    """Operation requires single-block, multiplicity-one algebras."""


class AlgebraMismatch(CpdilateError):
    """Source/target algebras of composed or applied maps do not match."""


# -- vnmodule ----------------------------------------------------------------

class NotInTargetAlgebra(CpdilateError):
    """Module inner product fell outside the target algebra; the operand is
    not a module element."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BadSeed(CpdilateError):
    """Seed family violates the quasi-orthonormality relations."""


class IncompleteQONS(CpdilateError):
    """Quasi-orthonormal system does not sum to the identity."""


# -- duality -----------------------------------------------------------------

class NotCovariant(CpdilateError):
    """Vector states are not covariant for the map."""


class NotCyclic(CpdilateError):
    """A cyclicity hypothesis fails; the message names the offending one."""


class InconsistentSystem(CpdilateError):
    """Two Stinespring pairs that admit no intertwining isometry."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotInCommutant(CpdilateError):
    """Compressed operator fails membership in the expected commutant."""


class StateMismatch(CpdilateError):
    """Extension does not transport the vector states as required."""


class NotExtension(CpdilateError):
    """Candidate map does not restrict to the given CP map."""


# -- cli ---------------------------------------------------------------------

class InputError(CpdilateError):
    """Instance file is malformed or references unknown objects."""
