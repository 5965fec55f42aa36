"""Exception and warning types shared across the package."""


class NhaqoError(Exception):
    """Base class for all package-specific failures."""


class ConvergenceFailure(NhaqoError):
    """The dense eigensolver did not converge."""


class DefectiveSystem(NhaqoError):
    """Too many eigenpairs coalesced; the caller sits at or near an exceptional point."""


class DuplicateCoupling(NhaqoError):
    """The same qubit pair appears twice in an Ising coupling list."""


class DefectiveAtCrossover(NhaqoError):
    """The two lowest eigenvectors are coalesced; the two-level basis is ill-defined."""


class ZeroBlochVector(NhaqoError):
    """A projected Hamiltonian has no traceless part; the mixing angle is undefined."""


class DegenerateSchedule(NhaqoError):
    """Schedule rates make the crossover formula's denominator vanish."""


class StepUnderflow(NhaqoError):
    """The adaptive step controller demanded a step below the minimum step size."""


class NonFiniteState(NhaqoError):
    """An evolved amplitude became NaN or Inf."""


class AmbiguousGround(NhaqoError):
    """Two candidate ground eigenvalues have indistinguishable real parts."""


class ZeroGap(NhaqoError):
    """The minimum gap is numerically zero; runtime bounds diverge."""


class ConfigError(NhaqoError):
    """An experiment configuration is missing keys or holds malformed values."""


class MultipleMinimaWarning(UserWarning):
    """Two local gap minima are within 1% of each other; both are reported."""


class DegenerateTargetWarning(UserWarning):
    """The target Hamiltonian has a degenerate ground space; the projector overlap is returned."""
