"""Exception types shared across the simulator; echo() bounds the values
they quote."""

import numbers

ECHO_MAX_CHARS = 80
QUOTE_MAX_BITS = 256  # longer numbers are not quoted: str() of a huge int is slow or raises


def echo(value) -> str:
    """An offending value as an error message quotes it: a rational by str()
    if its numerator and denominator fit in QUOTE_MAX_BITS bits, any other
    value by repr() unless that raises ValueError or RecursionError, else a
    placeholder; cut to ECHO_MAX_CHARS characters, with "..." if cut."""
    if isinstance(value, numbers.Rational):
        if max(abs(t).bit_length()
               for t in (value.numerator, value.denominator)) > QUOTE_MAX_BITS:
            return "(too long to quote)"
        text = str(value)
    else:
        try:
            text = repr(value)
        except (ValueError, RecursionError):
            return "(too long to quote)"
    return text if len(text) <= ECHO_MAX_CHARS else text[:ECHO_MAX_CHARS] + "..."


class SimulationError(Exception):
    """Base class for all domain errors raised by hardysim."""


class ConfigError(SimulationError):
    """An input of the wrong type or an unknown name; the CLI exits 2 on it."""


class EmptyStateError(SimulationError):
    """A zero-norm state was used where a normalizable state is required."""


class ModeAliasingError(SimulationError):
    """An optical element met a live label that it writes but does not read,
    so the image would merge with that mode."""


class UnrepresentableError(SimulationError):
    """A value (e.g. sqrt(p)) does not lie in the exact field Q(i, sqrt2)."""


class AnnihilatedError(SimulationError):
    """Post-selection left nothing: the surviving probability is zero."""
