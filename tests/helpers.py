"""Fixtures shared by the test modules: states, scalars and odd inputs.

Not a test module (pytest collects only test_*.py); the test modules import
from here and never from each other.
"""

import numbers
from fractions import Fraction

from hypothesis import strategies as st

from hardysim.amplitude import ExactScalar, I, ONE, ZERO
from hardysim.state import (ABSORBED, BasisKet, DensityMatrix, PathLabel,
                            StateVector, pure_to_density)

S, u, v, c, d = PathLabel

# The benchmark's exact sweep: p whose sqrt(p) and sqrt(1-p) lie in Q(sqrt2).
EXACT_SWEEP_PS = [Fraction(p) for p in ("0", "1", "1/2", "9/25", "16/25",
                                        "1/9", "8/9", "1/50", "49/50")]

# A fixed float sweep in (0, 1): both edges, 1/3 and 1/2, and the two p at
# which a cancellation residue once survived in a mixed layout.
FLOAT_GOLDEN_PS = [Fraction(p) for p in ("1/1000000", "37/1000", "1/3", "1/2",
                                         "2/3", "777821/1000000",
                                         "833821/1000000", "999999/1000000")]

# Every q with |q| <= 8 and denominator <= 8, drawn as n/d with d <= 8 and
# |n| <= 8d: the set st.fractions(-8, 8, max_denominator=8) draws from, at
# far less generation cost.
small_fracs = st.integers(1, 8).flatmap(
    lambda d: st.integers(-8 * d, 8 * d).map(lambda n: Fraction(n, d)))
scalars = st.builds(ExactScalar, small_fracs, small_fracs, small_fracs,
                    small_fracs)


def ket(plus, minus):
    return BasisKet(plus, minus)


def eq3_state():
    half = ExactScalar(Fraction(1, 2))
    return StateVector({
        ket(v, v): half,
        ket(v, u): I * half,
        ket(u, v): I * half,
        ket(u, u): -half,
    })


def eq6_state():
    return StateVector({ket(v, v): ONE, ket(v, u): I, ket(u, v): I})


def scaled(sv, factor):
    """sv with every amplitude multiplied by factor."""
    return StateVector({k: a * factor for k, a in sv.amps.items()})


def no_photon_entries(rho):
    """rho's entries off the photon sink's row and column."""
    return {key: val for key, val in rho.entries.items() if ABSORBED not in key}


def diagonal_kets(rho):
    """Every ket on rho's diagonal: as an event, all of rho's kets."""
    return [a for a, b in rho.entries if a == b]


def density_times(sv, weight):
    """pure_to_density(sv).entries, each multiplied by weight."""
    return {key: val * weight for key, val in pure_to_density(sv).entries.items()}


def inner(a, b):
    """<a|b>, summed over the kets both states hold."""
    total = ZERO
    for k, x in a.amps.items():
        if k in b.amps:
            total = total + x.conjugate() * b.amps[k]
    return total


def random_state(rng):
    """An exact state over {u, v} per arm with small random Q(i, sqrt2)
    amplitudes; |uu> if every amplitude drawn is zero."""
    kets = [ket(a, b) for a in (u, v) for b in (u, v)]
    amps = {}
    for k in kets:
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                  for _ in range(4)]
        amps[k] = ExactScalar(*coeffs)
    sv = StateVector(amps)
    return sv if not sv.is_zero() else StateVector({kets[0]: ONE})


def random_hermitian(rng, basis):
    """An exact Hermitian matrix over basis with small random Q(i, sqrt2)
    entries, about a third of them zero."""
    def coeff():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    entries = {}
    for i, a in enumerate(basis):
        for b in basis[i:]:
            if rng.random() < 1 / 3:
                continue
            if a == b:
                entries[(a, a)] = ExactScalar(coeff(), 0, coeff(), 0)
            else:
                x = ExactScalar(coeff(), coeff(), coeff(), coeff())
                entries[(a, b)], entries[(b, a)] = x, x.conjugate()
    return DensityMatrix(entries)


class UnreadableReal:
    """A registered real that compares with 0 and 1 but that Fraction()
    cannot read, as numpy.float32 is."""

    def __le__(self, other):
        return True

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "UnreadableReal()"


numbers.Real.register(UnreadableReal)


def deep_list(depth=100_000):
    """A list nested past any interpreter's recursion limit for repr()."""
    value = []
    for _ in range(depth):
        value = [value]
    return value
