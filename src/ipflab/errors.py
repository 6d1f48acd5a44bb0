"""Exception hierarchy shared by all ipflab modules."""


class IpfError(Exception):
    """Base class for all ipflab errors."""


class InputError(IpfError):
    """Invalid or inconsistent arguments."""


class SimulationDivergedError(IpfError):
    """A simulated path left the finite range; carries the first bad time."""

    def __init__(self, t_bad, message=None):
        self.t_bad = t_bad
        super().__init__(message or f"simulation diverged at t = {t_bad}")


class NonFiniteOutputError(IpfError):
    """A result to be written holds a NaN or an infinity, which JSON cannot."""


class SingularDiffusionError(IpfError):
    """2b = sigma sigma^T is singular at an evaluation point."""


class DegenerateFunctionalError(IpfError):
    """Zero diffusion makes the entropy functional degenerate."""


class DegenerateEnsembleError(IpfError):
    """A covariance matrix needed for identification is not invertible."""


class SingularRenovationError(IpfError):
    """Eigenvalue renovation hit the pole lambda*t = ln 2 (state reaches zero)."""


class NeedsNeedleControlError(IpfError):
    """Terminal time requires a positive eigenvalue; apply a needle control first."""


class NoCooperationError(IpfError):
    """No equalization root could be bracketed for the eigenvalue chain."""


class NoRootError(IpfError):
    """A transcendental equation has no sign change on the search bracket."""


class UndefinedAngleError(IpfError):
    """Consolidation rotation undefined: z_i + z_j = 0."""


class UndefinedLogError(IpfError):
    """Logarithm of a non-positive trajectory ratio inside the fit window."""
