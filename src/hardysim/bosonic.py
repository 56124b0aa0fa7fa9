"""Two-photon Fock machinery: bunching at a beam splitter and coincidence
post-selection.

The photonic realization replaces annihilation by Hong-Ou-Mandel bunching:
two indistinguishable photons meeting at a 50/50 beam splitter never exit
through different ports, so 'both interferometers fired' is selected by
coincidence counters rather than by a knowledge projection. This module
exposes both filters side by side for comparison; it does not rebuild the
full photonic two-interferometer layout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Tuple

from . import amplitude as amp
from . import optics
from .amplitude import EXACT, exact_sqrt
from .errors import AnnihilatedError, EmptyStateError, SimulationError
from .state import BasisKet, PathLabel, StateVector

MAX_PHOTONS = 4

FockKet = Tuple[int, ...]


class BosonicState:
    """Finite map FockKet -> amplitude; unnormalized, norm tracked exactly."""

    def __init__(self, amps: Dict[FockKet, object], backend: str = EXACT):
        self.backend = backend
        self.amps = {k: a for k, a in amps.items() if not amp.is_zero(a)}
        totals = {sum(k) for k in self.amps}
        if len(totals) > 1:
            raise SimulationError("mixed total photon number in one state")
        if totals and max(totals) > MAX_PHOTONS:
            raise SimulationError(f"more than {MAX_PHOTONS} photons")

    @classmethod
    def single(cls, ket: FockKet, backend: str = EXACT) -> "BosonicState":
        return cls({tuple(ket): amp.scalar_one(backend)}, backend)

    def is_zero(self) -> bool:
        return not self.amps

    def norm_sq(self):
        total = amp.ExactScalar() if self.backend == EXACT else 0.0
        for a in self.amps.values():
            total = total + a * amp.conj(a)
        return amp.real_part(total)

    def total_photons(self):
        return {sum(k) for k in self.amps}

    def probability(self, predicate):
        if self.is_zero():
            raise EmptyStateError("empty state")
        kept = amp.ExactScalar() if self.backend == EXACT else 0.0
        for k, a in self.amps.items():
            if predicate(k):
                kept = kept + a * amp.conj(a)
        if self.backend == EXACT:
            norm = amp.ExactScalar()
            for a in self.amps.values():
                norm = norm + a * amp.conj(a)
            return amp.real_part(kept / norm)
        norm = self.norm_sq()
        if norm == 0.0:
            raise EmptyStateError("squared norm underflows to 0.0")
        return kept.real / norm


def _sqrt_ratio(num: int, den: int, backend: str):
    if backend == EXACT:
        return exact_sqrt(Fraction(num, den))
    return complex(math.sqrt(num / den))


def apply_bs_bosonic(state: BosonicState, mode_a: int,
                     mode_b: int) -> BosonicState:
    """50/50 beam splitter on two bosonic modes, i-on-reflection convention.

    Creation operators substitute as a -> (a' + i b')/sqrt2 and
    b -> (i a' + b')/sqrt2; occupation factors sqrt(n!) enter when the
    expanded monomials are re-expressed as Fock kets.
    """
    backend = state.backend
    n_modes = max((len(k) for k in state.amps), default=0)
    if state.amps and not (0 <= mode_a < n_modes and 0 <= mode_b < n_modes
                           and mode_a != mode_b):
        raise SimulationError("invalid mode indices")
    i_unit = amp.scalar_i(backend)
    half = amp.scalar_from_fraction(Fraction(1, 2), backend)

    out: Dict[FockKet, object] = {}
    for ket, a in state.amps.items():
        m, n = ket[mode_a], ket[mode_b]
        total = m + n
        # expand (a + ib)^m (ia + b)^n; a coefficient of a^r b^s carries
        # sqrt(r! s! / (m! n!)) from the Fock normalizations
        coeffs: Dict[int, object] = {}
        for j in range(m + 1):
            for k in range(n + 1):
                r = j + k
                c = math.comb(m, j) * math.comb(n, k)
                phase_pow = (m - j + k) % 4
                term = amp.scalar_from_fraction(Fraction(c), backend)
                for _ in range(phase_pow):
                    term = term * i_unit
                cur = coeffs.get(r)
                coeffs[r] = term if cur is None else cur + term
        for r, c in coeffs.items():
            if amp.is_zero(c):
                continue
            s = total - r
            factor = _sqrt_ratio(math.factorial(r) * math.factorial(s),
                                 math.factorial(m) * math.factorial(n), backend)
            # (1/sqrt2)^(m+n) = (1/2)^((m+n)//2) times 1/sqrt2 if odd
            pref = amp.scalar_one(backend)
            for _ in range(total // 2):
                pref = pref * half
            if total % 2:
                pref = pref * amp.scalar_inv_sqrt2(backend)
            new = list(ket)
            new[mode_a], new[mode_b] = r, s
            new_ket = tuple(new)
            contrib = a * c * factor * pref
            cur = out.get(new_ket)
            out[new_ket] = contrib if cur is None else cur + contrib
    return BosonicState(out, backend)


def coincidence_postselect(state: BosonicState,
                           modes: Tuple[int, int]):
    """Keep only kets with exactly one photon in each counter mode.

    Returns (filtered state, survival probability); raises when nothing
    survives (perfect bunching).
    """
    m1, m2 = modes

    def hit(ket: FockKet) -> bool:
        return ket[m1] == 1 and ket[m2] == 1

    survival = state.probability(hit)
    if survival == 0:
        raise AnnihilatedError("no coincidences")
    kept = BosonicState({k: a for k, a in state.amps.items() if hit(k)},
                        state.backend)
    return kept, survival


def hom_coincidence_probability(backend: str = EXACT):
    """Coincidence probability for |1,1> through one 50/50 beam splitter."""
    state = BosonicState.single((1, 1), backend)
    out = apply_bs_bosonic(state, 0, 1)
    return out.probability(lambda k: k == (1, 1))


def distinguishable_coincidence_probability(backend: str = EXACT):
    """Same geometry with two distinguishable species: no interference.

    One particle per species enters its own beam-splitter port; the
    probability that they exit through different detector ports is 1/2.
    """
    sv = StateVector({BasisKet.pair(PathLabel.u, PathLabel.v):
                      amp.scalar_one(backend)}, backend)
    uv = (PathLabel.u, PathLabel.v)
    cd = (PathLabel.c, PathLabel.d)
    sv = optics.apply_bs(sv, optics.PLUS, uv, cd)
    sv = optics.apply_bs(sv, optics.MINUS, uv, cd)
    return sv.probability(lambda k: (not k.is_absorbed) and k.plus != k.minus)
