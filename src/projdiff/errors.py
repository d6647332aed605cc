"""Exceptions raised by the numerical operators in this package."""


class ProjdiffError(Exception):
    """Base class for all package errors."""


class NonHermitianError(ProjdiffError):
    """Input matrix fails the Hermitian tolerance.

    Carries the measured relative asymmetry ``defect``.
    """

    def __init__(self, defect, tol):
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(f"matrix asymmetry {self.defect:.3e} exceeds tolerance {self.tol:.1e}")


class SpectralCollisionError(ProjdiffError):
    """Spectra of the two Sylvester coefficients are too close.

    Carries the offending minimal eigenvalue gap.
    """

    def __init__(self, gap, required):
        self.gap = float(gap)
        self.required = float(required)
        super().__init__(f"spectral gap {self.gap:.3e} below required {self.required:.3e}")


class ResidualError(ProjdiffError, ArithmeticError):
    """A computed result misses its residual contract.

    Carries the measured ``residual`` and the ``bound`` it exceeds.
    """

    def __init__(self, message, residual, bound):
        self.residual = float(residual)
        self.bound = float(bound)
        super().__init__(message)


class GapViolationError(ProjdiffError):
    """An eigenvalue sits too close to the probe energy.

    Carries the nearest eigenvalue so callers can move the probe.
    """

    def __init__(self, probe, nearest):
        self.probe = float(probe)
        self.nearest = float(nearest)
        super().__init__(
            f"eigenvalue {self.nearest:.12g} within forbidden distance of probe {self.probe:.12g}")


class ProbeOutsideBandError(ProjdiffError):
    """The probe is not inside the open band of the leads of a band pair.

    Carries the probe and the band (lower, upper) it must lie in.
    """

    def __init__(self, probe, band):
        self.probe = float(probe)
        self.band = (float(band[0]), float(band[1]))
        super().__init__(f"probe {self.probe:.12g} outside the open band "
                         f"({self.band[0]:.12g}, {self.band[1]:.12g}) of the leads")


class SingularSandwichError(ProjdiffError):
    """I + V0*T0(z) is numerically singular (condition number too large)."""

    def __init__(self, cond):
        self.cond = float(cond)
        super().__init__(f"I + V0 T0 has condition number {self.cond:.3e}")


class OracleConvergenceError(ProjdiffError):
    """The transfer-matrix oracle's cells reached their width floor or the
    level cap with local errors above their target.

    Carries the summed local ``estimate`` and ``target`` of the cells
    still unaccepted, and the ``limit`` that stopped the refinement.
    """

    def __init__(self, estimate, target, limit):
        self.estimate = float(estimate)
        self.target = float(target)
        self.limit = str(limit)
        super().__init__(f"transfer-matrix oracle stopped at the {self.limit}: local error "
                         f"{self.estimate:.3e} against target {self.target:.3e}")


class OverflowGuardError(ProjdiffError):
    """Semigroup exponent would overflow on a mode the input actually excites."""

    def __init__(self, exponent):
        self.exponent = float(exponent)
        super().__init__(f"growing semigroup mode with exponent {self.exponent:.3e} > 700")


class KernelSingularityError(ProjdiffError):
    """Hankel kernel evaluated to a non-finite value at a sampled point."""


class DecayBoundError(ProjdiffError):
    """Sampled potential violates its declared decay envelope."""


class DivergentBoundError(ProjdiffError):
    """Discrete trace-bound integral does not converge at the lower end of the rule."""


class ConfigError(ProjdiffError):
    """Invalid experiment configuration; message carries the field path."""
