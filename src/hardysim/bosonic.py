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
from .amplitude import EXACT
from .errors import AnnihilatedError, SimulationError
from .state import BasisKet, PathLabel, StateVector

MAX_PHOTONS = 4

FockKet = Tuple[int, ...]


class BosonicState(StateVector):
    """A StateVector over FockKets with one total photon number, at most
    MAX_PHOTONS."""

    ket_order = None

    def __init__(self, amps: Dict[FockKet, object], backend: str = EXACT):
        super().__init__(amps, backend)
        totals = self.total_photons()
        if len(totals) > 1:
            raise SimulationError("mixed total photon number in one state")
        if totals and max(totals) > MAX_PHOTONS:
            raise SimulationError(f"more than {MAX_PHOTONS} photons")

    @classmethod
    def single(cls, ket: FockKet, backend: str = EXACT) -> "BosonicState":
        backend = amp.backend(backend)
        return cls({tuple(ket): backend.one}, backend)

    def total_photons(self):
        return {sum(k) for k in self.amps}


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
    half = backend.from_fraction(Fraction(1, 2))

    def ket_map(ket: FockKet):
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
                term = backend.from_fraction(Fraction(c))
                for _ in range(phase_pow):
                    term = term * backend.i
                cur = coeffs.get(r)
                coeffs[r] = term if cur is None else cur + term
        # (1/sqrt2)^(m+n) = (1/2)^((m+n)//2) times 1/sqrt2 if odd
        pref = backend.one
        for _ in range(total // 2):
            pref = pref * half
        if total % 2:
            pref = pref * backend.inv_sqrt2
        # a vanishing coefficient may carry an irrational factor; skip it
        for r, c in backend.prune(coeffs).items():
            s = total - r
            factor = backend.sqrt(Fraction(
                math.factorial(r) * math.factorial(s),
                math.factorial(m) * math.factorial(n)))
            new = list(ket)
            new[mode_a], new[mode_b] = r, s
            yield tuple(new), c * factor * pref

    return state.apply_ket_map(ket_map)


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
    backend = amp.backend(backend)
    sv = StateVector({BasisKet(PathLabel.u, PathLabel.v): backend.one},
                     backend)
    uv = (PathLabel.u, PathLabel.v)
    cd = (PathLabel.c, PathLabel.d)
    sv = optics.apply_bs(sv, optics.PLUS, uv, cd)
    sv = optics.apply_bs(sv, optics.MINUS, uv, cd)
    return sv.probability(lambda k: (not k.is_absorbed) and k.plus != k.minus)
