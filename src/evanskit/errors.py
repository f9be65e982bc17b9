"""Exception taxonomy.

Every failure mode that callers are expected to branch on gets its own
class rooted at EvanskitError, so library code never raises a bare
ValueError for a diagnosable numerical condition.
"""


class EvanskitError(Exception):
    """Base class for all library-specific failures."""


# --- linear algebra kernels ---

class NonSkew(EvanskitError):
    """Matrix handed to a symplectic pairing is not skew-symmetric."""


class NonSymmetric(EvanskitError):
    """Symmetric eigensolver input has a nontrivial skew part."""


class RankError(EvanskitError):
    """Null-vector extraction found kernel dimension != 1."""


class NoConverge(EvanskitError):
    """Root polish, contour refinement, the quadrature or the quartic residual missed its bound."""


# --- model layer ---

class BadParameter(EvanskitError):
    """Model constructor was given a parameter outside its valid range."""


class SingularJc(EvanskitError):
    """K + cM is singular at this wave speed; the spatial ODE is ill-posed."""


class NotReversor(EvanskitError):
    """A model's R is not a 4x4 involution that anticommutes with M and K."""


# --- spectrum at infinity ---

class SplittingViolated(EvanskitError):
    """Asymptotic eigenvalues do not split two-left / two-right of the imaginary axis."""


class DegenerateMu(EvanskitError):
    """Two asymptotic eigenvalues coalesce within tolerance."""


class NormalizationFail(EvanskitError):
    """Omega(eta_i, zeta_k) misses delta_ik by more than 1e-9."""


# --- ODE integration ---

class StepFail(EvanskitError):
    """Non-finite matrix field or exponent on the fixed Magnus mesh."""


class Overflow(EvanskitError):
    """Integrated mode norm exceeded the overflow guard."""


# --- Evans function / derivatives ---

class StepTooLarge(EvanskitError):
    """Finite-difference stencil residual says the derivative step is too coarse."""


class ContourOnSpectrum(EvanskitError):
    """spectra refused a point of a winding contour: it lies on the continuous spectrum."""


class NonClosure(EvanskitError):
    """Accumulated phase around a closed contour misses a multiple of 2*pi."""


# --- invariants ---

class NoPlateau(EvanskitError):
    """Tail-window ratio did not settle to a constant; window or L too small."""


class NonTransverse(EvanskitError):
    """Transversality coefficient vanished within tolerance."""


class OrientationFail(EvanskitError):
    """Orientation normalization could not be resolved to a positive frame."""


class Inconsistent(EvanskitError):
    """Two independent computations of one quantity disagree beyond tolerance."""


class Degenerate(EvanskitError):
    """Quantity required to be nonzero is numerically zero."""


# --- finite-dimensional reduced problems ---

class KernelDim(EvanskitError):
    """Reduced operator kernel dimension is not exactly one."""
