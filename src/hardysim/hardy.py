"""Full-experiment orchestration over the four second-beam-splitter layouts.

Pipeline: source state -> both first beam splitters -> annihilation channel
at the meeting point (at p = 0 and p = 1 its pure no-photon branch, the
knowledge measurement; a density matrix in between) -> the layout's second
stage, one pass per second beam splitter in place, with a removed one's
path-to-detector relabeling folded into a pass (both removed: one pass)
-> detector coincidence table over {c, d} x {c, d} plus the photon branch,
each cell one basis ket whose weight the table reads by lookup.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Tuple, Union

from . import amplitude as amp
from . import measurement, optics
from .amplitude import EXACT
from .errors import ConfigError, SimulationError, echo
from .state import ABSORBED, BasisKet, PathLabel, pure_to_density

DETECTORS = ("c", "d")

# Each table cell, (det_plus, det_minus), as the one-ket event it reads.
_CELLS = {(dp, dm): (BasisKet(PathLabel[dp], PathLabel[dm]),)
          for dp in DETECTORS for dm in DETECTORS}


class _ScenarioFields(NamedTuple):
    bs2_plus: bool
    bs2_minus: bool
    reaction_prob: Fraction
    backend: str


class ScenarioConfig(_ScenarioFields):
    """One layout, p (held as a Fraction) and backend. Checked on creation,
    flags, then backend, then p: a wrong type or an unknown backend raises
    ConfigError, a p outside [0, 1] SimulationError."""

    __slots__ = ()

    def __new__(cls, bs2_plus: bool, bs2_minus: bool,
                reaction_prob: Fraction = Fraction(1), backend: str = EXACT):
        for name, flag in (("bs2_plus", bs2_plus), ("bs2_minus", bs2_minus)):
            if not isinstance(flag, bool):
                raise ConfigError(f"{name} must be true or false, got {echo(flag)}")
        backend = amp.backend(backend)
        return super().__new__(cls, bs2_plus, bs2_minus,
                               measurement.check_reaction_prob(reaction_prob),
                               backend)

    @property
    def key(self) -> str:
        """The layout's name, plus arm first: O = BS2 removed, I = in place."""
        return ("I" if self.bs2_plus else "O") + ("I" if self.bs2_minus else "O")


class OutcomeTable:
    """Coincidence probabilities per detector pair, plus the photon weight.

    conditional=True means rows are renormalized on 'no photon' and sum to 1,
    and gamma_prob is the photon weight conditioned away; otherwise
    rows + gamma_prob sum to 1.
    """

    def __init__(self, rows: Dict[Tuple[str, str], Union[Fraction, float]],
                 gamma_prob: Union[Fraction, float], conditional: bool,
                 config: str = ""):
        self.rows = rows
        self.gamma_prob = gamma_prob
        self.conditional = conditional
        self.config = config

    def __repr__(self) -> str:
        return (f"OutcomeTable(rows={self.rows!r}, gamma_prob={self.gamma_prob!r}, "
                f"conditional={self.conditional!r}, config={self.config!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.rows, self.gamma_prob, self.conditional, self.config)
                == (other.rows, other.gamma_prob, other.conditional, other.config))

    def prob(self, det_plus: str, det_minus: str):
        try:
            return self.rows[(det_plus, det_minus)]
        except (KeyError, TypeError):
            raise ConfigError(f"no cell ({echo(det_plus)}, {echo(det_minus)}): "
                              f"detectors are {DETECTORS}") from None

    def conditioned(self) -> "OutcomeTable":
        if self.conditional:
            return self
        try:
            total = sum(self.rows.values())
        except (AttributeError, TypeError):
            raise ConfigError(f"rows {echo(self.rows)} are not a dict of "
                              f"probabilities") from None
        if total == 0:
            raise SimulationError("no surviving coincidences to condition on")
        rows = {k: v / total for k, v in self.rows.items()}
        return OutcomeTable(rows, self.gamma_prob, True, self.config)


def _bs2_stage(obj, present_plus: bool, present_minus: bool):
    """The layout's second stage on a state or density matrix: its ket maps
    from the optics table (optics._build), one pass per splitter in place,
    or one pass of both relabelings if both are removed."""
    passes = optics._OPTICS[obj.backend].stages[present_plus, present_minus]
    for ket_map in passes:
        obj = obj.apply_ket_map(ket_map)
    return obj


def run_scenario(cfg: ScenarioConfig):
    """Run one layout; returns (final state or density matrix, outcome table).

    The table is unconditional: detector rows plus the photon probability
    sum to one. At p = 0 and p = 1 the channel is projective: its pure
    no-photon branch (project_knowledge) gives the whole table and a
    StateVector is returned; in between the channel genuinely mixes and the
    result is a DensityMatrix. Each cell, and the photon weight, is read by
    one probability call on its one-ket event.
    """
    if not isinstance(cfg, ScenarioConfig):
        raise ConfigError(f"run_scenario needs a ScenarioConfig, got {echo(cfg)}")
    p = cfg.reaction_prob
    sv = optics.apply_bs1_pair(cfg.backend)
    ch = measurement.annihilation_channel(p)

    if p in (0, 1):
        kept, survival = measurement.project_knowledge(sv, ch)
        final = _bs2_stage(kept, cfg.bs2_plus, cfg.bs2_minus)
        rows = {cell: final.probability(event) * survival
                for cell, event in _CELLS.items()}
        return final, OutcomeTable(rows, 1 - survival, False, cfg.key)

    rho = measurement.apply_channel(pure_to_density(sv), ch)
    final = _bs2_stage(rho, cfg.bs2_plus, cfg.bs2_minus)
    rows = {cell: final.diagonal_probability(event)
            for cell, event in _CELLS.items()}
    gamma = final.diagonal_probability((ABSORBED,))
    return final, OutcomeTable(rows, gamma, False, cfg.key)


def full_table(p: Fraction = Fraction(1),
               backend: str = EXACT) -> Dict[str, OutcomeTable]:
    """Conditional coincidence tables for all four layouts at the given p."""
    tables = {}
    for bs2_plus in (False, True):
        for bs2_minus in (False, True):
            cfg = ScenarioConfig(bs2_plus, bs2_minus, p, backend)
            _, table = run_scenario(cfg)
            tables[cfg.key] = table.conditioned()
    return tables

