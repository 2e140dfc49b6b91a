"""Exception types raised by the public API."""


class MagsuperError(Exception):
    """Base class for all library-specific errors."""


class ParameterError(MagsuperError, ValueError):
    """A library call received an argument outside its accepted range."""


class DomainError(MagsuperError):
    """A field was evaluated on or too close to its singular locus."""


class DegenerateMomentum(MagsuperError):
    """An operation that divides by p1 (or by |p_perp|) received p ~ 0."""


class SeparatrixRegime(MagsuperError):
    """kappa is within the separatrix guard band; no elliptic closed form."""


class DegenerateKappa(MagsuperError):
    """kappa at (or numerically below) the stable-equilibrium bound -1."""


class StepFailure(MagsuperError):
    """The adaptive integrator could not take an acceptable step."""


class GridTooSmall(MagsuperError):
    """An eigenproblem grid does not contain the requested states."""


class NoBoundStates(MagsuperError):
    """The radial eigenproblem produced fewer bound states than asked for."""


class UnsupportedModel(MagsuperError):
    """The requested operation has no closed-form data for this field model."""


class ConfigError(MagsuperError):
    """A run configuration failed schema validation."""
