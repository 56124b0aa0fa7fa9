"""The annihilation channel, and the knowledge measurement as its no-photon branch.

For a reaction probability p the annihilation at the meeting point is a
quantum channel with two Kraus elements: a "pass" element that damps the
annihilating ket by sqrt(1-p), and an "absorb" element that transfers it to
the photon sink with amplitude sqrt(p), so weight p. The channel output is
in general a mixed state, so it acts on density matrices. Knowing that no
photon appeared keeps the pass branch; at p = 1 that is the projection onto
the non-annihilating kets, and at p = 0 it is the identity.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from typing import Tuple

from . import amplitude as amp
from .amplitude import EXACT
from .errors import (AnnihilatedError, ConfigError, EmptyStateError,
                     SimulationError, echo)
from .state import ABSORBED, BasisKet, DensityMatrix, PathLabel, StateVector

DOOMED = BasisKet(PathLabel.u, PathLabel.u)


def check_reaction_prob(p) -> Fraction:
    """p as the equal Fraction (a Fraction p as it is); ConfigError unless p
    is a real number (not a bool) that Fraction() reads (NaN and +-inf are
    not), SimulationError outside [0, 1]. p is quoted only if it is short."""
    held = p
    if type(p) is not Fraction:
        if isinstance(p, bool) or not isinstance(p, numbers.Real):
            raise ConfigError(f"reaction probability {echo(p)} "
                              f"is not a real number")
        try:
            held = Fraction(p)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"reaction probability {echo(p)} "
                              f"cannot be read as a rational") from None
    if 0 <= held.numerator <= held.denominator:
        return held
    raise SimulationError(f"reaction probability {echo(p)} outside [0, 1]")


class AnnihilationChannel:
    """Two-outcome channel: damp the doomed ket, or absorb it into the sink.

    Kraus elements (identity elsewhere):
      pass:   |DOOMED> -> sqrt(1-p) |DOOMED>
      absorb: |DOOMED> -> sqrt(p)   |ABSORBED>
    Only the absorbed weight p is observable, so +sqrt(p) is formed only
    when absorb_map is called. p = n/d is a Fraction, so 1-p = (d-n)/d is in
    lowest terms too; each map is formed in the backend given from these
    integers, where sqrt(1-p) (and sqrt(p), for absorb_map) must lie in
    Q(i, sqrt2) on the exact one, else UnrepresentableError.
    """

    __slots__ = ("p",)

    def __init__(self, p: Fraction):
        self.p = check_reaction_prob(p)

    def pass_map(self, backend: str = EXACT):
        backend, d = amp.backend(backend), self.p.denominator
        one, s = backend.one, backend.sqrt(d - self.p.numerator, d)

        def ket_map(ket: BasisKet):
            return [(ket, s if ket == DOOMED else one)]

        return ket_map

    def absorb_map(self, backend: str = EXACT):
        sqrt_p = amp.backend(backend).sqrt(self.p.numerator, self.p.denominator)

        def ket_map(ket: BasisKet):
            return [(ABSORBED, sqrt_p)] if ket == DOOMED else []

        return ket_map


annihilation_channel = AnnihilationChannel


def project_knowledge(sv: StateVector,
                      ch: AnnihilationChannel) -> Tuple[StateVector, Fraction]:
    """Keep the no-photon branch; returns (kept state, survival probability).

    The kept state is the channel's pass element applied to sv, with its
    amplitudes unnormalized; its tracked norm shrinks accordingly, so
    downstream probabilities renormalize on demand. At p = 1 this is the
    projection onto the non-annihilating kets, at p = 0 the state itself.
    """
    if not isinstance(sv, StateVector):
        raise ConfigError(f"expected a StateVector, got {type(sv).__name__}")
    if not isinstance(ch, AnnihilationChannel):
        raise ConfigError(f"expected an AnnihilationChannel, "
                          f"got {type(ch).__name__}")
    if sv.is_zero():
        raise EmptyStateError("empty state")
    s = sv.backend.sqrt(ch.p.denominator - ch.p.numerator, ch.p.denominator)
    amps = dict(sv.amps)
    doomed = amps.get(DOOMED)
    if doomed is not None:
        amps[DOOMED] = doomed * s
    kept = StateVector(amps)
    survival = sv.backend.ratio(kept._norm_sq(), sv._norm_sq())
    if survival == 0:
        raise AnnihilatedError("state annihilated with certainty")
    return kept, survival


def apply_channel(rho: DensityMatrix, ch: AnnihilationChannel) -> DensityMatrix:
    """rho -> K_pass rho K_pass^dagger + K_abs rho K_abs^dagger. K_pass
    scales only DOOMED, by s = sqrt(1-p) in rho's arithmetic: the doomed row
    by s, the doomed column by conj(s), their corner by both; every other
    entry is kept. K_abs has one image, sqrt(p) |sink> of DOOMED, so it adds
    p rho(DOOMED, DOOMED), with p = n/d as rho's scalar, to the sink."""
    if not isinstance(rho, DensityMatrix):
        raise ConfigError(f"expected a DensityMatrix, got {type(rho).__name__}")
    if not isinstance(ch, AnnihilationChannel):
        raise ConfigError(f"expected an AnnihilationChannel, "
                          f"got {type(ch).__name__}")
    n, d = ch.p.numerator, ch.p.denominator
    s = rho.backend.sqrt(d - n, d)
    s_bar = s.conjugate()
    entries = dict(rho.entries)
    for (a, b), val in rho.entries.items():
        if a == DOOMED:
            entries[(a, b)] = val * s * s_bar if b == DOOMED else val * s
        elif b == DOOMED:
            entries[(a, b)] = val * s_bar
    doomed = rho.entries.get((DOOMED, DOOMED))
    if doomed is not None:
        term = doomed * rho.backend.rational(n, d)
        cur = entries.get((ABSORBED, ABSORBED))
        entries[(ABSORBED, ABSORBED)] = term if cur is None else cur + term
    return DensityMatrix(entries)
