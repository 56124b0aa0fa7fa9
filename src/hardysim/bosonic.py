"""Hong-Ou-Mandel bunching through the Hardy circuit's own beam splitter.

In the photonic realization, annihilation gives way to Hong-Ou-Mandel
bunching: two indistinguishable photons meeting at a 50/50 beam splitter
never leave through different ports. Two photons entering ports u and v are
two particles, labelled plus and minus as in the Hardy circuit, in the
exchange-symmetric state |u,v> + |v,u>, and each passes the splitter as a
single particle would: the state goes through ``optics.bs_ket_map`` on both
arms. A coincidence (c,d) is reached when both photons are transmitted,
amplitude t^2 = 1/2, or both reflected, r^2 = (i/sqrt2)^2 = -1/2. Exchange
symmetry adds these two paths with equal weight, so they cancel and the
photons bunch. The input |u,v> alone, two distinguishable particles, has no
partner term to cancel against and gives coincidences with probability
|t|^4 + |r|^4 = 1/2.
"""

from __future__ import annotations

from typing import Iterable

from . import amplitude as amp
from . import optics
from .amplitude import EXACT
from .state import BasisKet, StateVector

_UV, _VU = BasisKet(*optics.BS2_IN), BasisKet(*optics.BS2_IN[::-1])
_COINCIDENCE = (BasisKet(*optics.BS2_OUT), BasisKet(*optics.BS2_OUT[::-1]))


def splitter_output(kets: Iterable[BasisKet],
                    backend: str = EXACT) -> StateVector:
    """The sum of the given kets, each with amplitude 1, after one 50/50
    beam splitter (u, v -> c, d) on both arms."""
    backend = amp.backend(backend)
    sv = StateVector({k: backend.one for k in kets}, backend)
    return optics.apply_bs(optics.apply_bs(sv, optics.PLUS), optics.MINUS)


def hom_coincidence_probability(backend: str = EXACT):
    """Coincidence probability for |1,1> through one 50/50 beam splitter."""
    return splitter_output((_UV, _VU), backend).probability(_COINCIDENCE)


def distinguishable_coincidence_probability(backend: str = EXACT):
    """Same geometry with two distinguishable species: no interference.

    One particle per species enters its own beam-splitter port; the
    probability that they exit through different detector ports is 1/2.
    """
    return splitter_output((_UV,), backend).probability(_COINCIDENCE)
