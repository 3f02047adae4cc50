"""Exception and warning types shared across the package."""


class PhysicalityError(Exception):
    """A scattering matrix violates the constraints of its medium kind."""


class GainPositivityViolation(PhysicalityError):
    """An amplifying composite has an eigenvalue of S S+ - 1 below -tolerance."""


class NearSingularCavity(Exception):
    """The internal cavity factor 1 - r_A r'_B is numerically singular.

    For amplifying media this signals a disorder realization at or beyond
    the laser threshold; the ensemble runner records and skips it.  A
    stacked star product lists the stack positions that failed in
    ``samples``.
    """

    def __init__(self, message: str = "", samples=()):
        super().__init__(message)
        self.samples = tuple(samples)


class FitFailed(Exception):
    """The Ohm's-law fit residual is too large for a mean-free-path estimate."""


class ZeroMeanCount(Exception):
    """A Fano factor was requested for a state with zero mean photon number."""


class ZeroTransmission(Exception):
    """Direct detection in transmission with a vanishing transmittance."""


class SingularResolvent(Exception):
    """The resolvent 1 - z D (1 - S S+) f cannot be inverted."""


class ImaginaryResidue(Exception):
    """A quantity that is real in exact arithmetic kept an imaginary part above tolerance."""


class GeneratingFunctionDomainError(Exception):
    """The counting variable lies outside the generating function's domain."""


class ThresholdReached(Exception):
    """An amplifying ensemble average was requested at or beyond s = pi."""


class TruncationLeak(Exception):
    """A truncated Fock-space computation lost or gained more norm than allowed."""


class AllSamplesAboveThreshold(Exception):
    """Every disorder realization in an ensemble was above the laser threshold."""


class ValidityWarning(UserWarning):
    """Parameters are outside the diffusive window where the averages hold."""


class PrecisionLossWarning(UserWarning):
    """Numerical differentiation could not reach the requested agreement."""
