"""Exception types shared across the simulator; echo() bounds the values they quote."""

ECHO_MAX_CHARS = 80


def echo(text: str) -> str:
    """An offending value's text as an error message quotes it: cut to
    ECHO_MAX_CHARS characters, with "..." if anything was cut."""
    return text if len(text) <= ECHO_MAX_CHARS else text[:ECHO_MAX_CHARS] + "..."


class SimulationError(Exception):
    """Base class for all domain errors raised by hardysim."""


class EmptyStateError(SimulationError):
    """A zero-norm state was used where a normalizable state is required."""


class ModeAliasingError(SimulationError):
    """A beam-splitter output label collides with a live mode label."""


class NonHermitianError(SimulationError):
    """A density matrix failed its Hermiticity check."""


class UnrepresentableError(SimulationError):
    """A value (e.g. sqrt(p)) does not lie in the exact field Q(i, sqrt2)."""


class AnnihilatedError(SimulationError):
    """Post-selection left nothing: the surviving probability is zero."""
