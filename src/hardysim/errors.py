"""Exception types shared across the simulator; echo() and echo_number()
bound the values they quote."""

ECHO_MAX_CHARS = 80
QUOTE_MAX_BITS = 256  # longer numbers are not quoted: str() of a huge int is slow or raises


def echo(text: str) -> str:
    """An offending value's text as an error message quotes it: cut to
    ECHO_MAX_CHARS characters, with "..." if anything was cut."""
    return text if len(text) <= ECHO_MAX_CHARS else text[:ECHO_MAX_CHARS] + "..."


def echo_number(x) -> str:
    """A rational's text as an error message quotes it: echo(str(x)) if its
    numerator and denominator fit in QUOTE_MAX_BITS bits, else a placeholder."""
    terms = (getattr(x, "numerator", 0), getattr(x, "denominator", 1))
    if max(abs(t).bit_length() for t in terms) > QUOTE_MAX_BITS:
        return "(too long to quote)"
    return echo(str(x))


class SimulationError(Exception):
    """Base class for all domain errors raised by hardysim."""


class ConfigError(SimulationError):
    """An input of the wrong type or an unknown name; the CLI exits 2 on it."""


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
