"""Brute-force local-hidden-variable audit of the Hardy coincidence facts.

Each local strategy predetermines a detector outcome for both settings of
both parties (second beam splitter in place or removed). There are only
2^4 = 16 such strategies. Deterministic strategies suffice: any stochastic
local model is a convex mixture of them, so it can assign positive weight
to the target event only through a deterministic strategy that realizes
the event while violating none of the zero-probability constraints. The
audit therefore just enumerates all 16.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import hardy
from .errors import ConfigError, SimulationError, echo

IN, OUT = "in", "out"

Setting = Tuple[str, str]      # (e+ setting, e- setting), each "in"/"out"
Outcome = Tuple[str, str]      # (e+ detector, e- detector), each "c"/"d"

KEY = {(OUT, OUT): "OO", (IN, OUT): "IO", (OUT, IN): "OI", (IN, IN): "II"}


class LocalStrategy(NamedTuple):
    """Predetermined outcomes: a_* for the positron, b_* for the electron."""

    a_in: str
    a_out: str
    b_in: str
    b_out: str

    def outcome(self, setting: Setting) -> Outcome:
        s_a, s_b = setting
        a = self.a_in if s_a == IN else self.a_out
        b = self.b_in if s_b == IN else self.b_out
        return (a, b)

    def __str__(self) -> str:
        return (f"a(in)={self.a_in} a(out)={self.a_out} "
                f"b(in)={self.b_in} b(out)={self.b_out}")


def all_strategies() -> List[LocalStrategy]:
    return [LocalStrategy(*combo)
            for combo in itertools.product("cd", repeat=4)]


class ConstraintSet(NamedTuple):
    """Quantum facts an LHV model must reproduce.

    zero_events: (setting, outcome) pairs with probability exactly 0.
    positive_event: a nonzero (setting, outcome, probability) cell, or None.
    """

    zero_events: List[Tuple[Setting, Outcome]]
    positive_event: Optional[Tuple[Setting, Outcome, Fraction]]


def quantum_constraints(tables: Dict[str, hardy.OutcomeTable]) -> ConstraintSet:
    """Read the Hardy chain off exact coincidence tables.

    Each table is read conditioned on no photon (``OutcomeTable.conditioned``),
    so ``run_scenario``'s unconditional tables and ``full_table``'s give the
    same constraints. The zero events are the cells exactly 0, in KEY order
    and then sorted cell order. The positive event is the first nonzero cell
    that no strategy surviving those zero events produces, or None. Missing
    layouts and float tables are refused: a zero test on rounded values can
    give a wrong zero set.
    """
    if not isinstance(tables, dict):
        raise ConfigError(f"the LHV constraints need a dict of tables, "
                          f"got {echo(tables)}")
    for key in KEY.values():
        if key not in tables:
            raise SimulationError(f"the LHV constraints need layout {key}'s table")
        if not isinstance(tables[key], hardy.OutcomeTable):
            raise ConfigError(f"layout {key}'s table is {echo(tables[key])}, "
                              f"not an OutcomeTable")
    tables = {key: tables[key].conditioned() for key in KEY.values()}
    cells = [(setting, outcome, tables[key].prob(*outcome))
             for setting, key in KEY.items()
             for outcome in sorted(tables[key].rows)]
    if any(isinstance(prob, float) for _, _, prob in cells):
        raise SimulationError("the LHV constraints need exact tables, "
                              "not float ones")
    zero_events = [(setting, outcome) for setting, outcome, prob in cells
                   if prob == 0]
    survivors = audit(ConstraintSet(zero_events, None)).surviving_strategies
    positive = next((cell for cell in cells if cell[2] != 0
                     and all(s.outcome(cell[0]) != cell[1] for s in survivors)),
                    None)
    return ConstraintSet(zero_events, positive)


class Verdict(NamedTuple):
    """Audit result; eliminations maps each killed strategy to its zero event."""

    contradiction: bool
    surviving_strategies: List[LocalStrategy]
    eliminations: Dict[LocalStrategy, Tuple[Setting, Outcome]]


def audit(cs: ConstraintSet) -> Verdict:
    """Enumerate all 16 strategies against the constraints.

    A strategy survives iff it triggers no zero event. The verdict is a
    contradiction iff no surviving strategy realizes the positive event
    (pointwise, which by convexity covers all mixtures).
    """
    if not isinstance(cs, ConstraintSet):
        raise ConfigError(f"the audit needs a ConstraintSet, got {echo(cs)}")
    survivors: List[LocalStrategy] = []
    eliminations: Dict[LocalStrategy, Tuple[Setting, Outcome]] = {}
    for strat in all_strategies():
        killed = next((event for event in cs.zero_events
                       if strat.outcome(event[0]) == event[1]), None)
        if killed is None:
            survivors.append(strat)
        else:
            eliminations[strat] = killed
    positive = cs.positive_event
    contradiction = positive is not None and positive[2] != 0 and not any(
        s.outcome(positive[0]) == positive[1] for s in survivors)
    return Verdict(contradiction, survivors, eliminations)


def audit_report(cs: ConstraintSet) -> str:
    """Human-readable enumeration: each strategy's fate, then the verdict."""
    verdict = audit(cs)
    lines = ["LHV audit: 16 deterministic strategies",
             "zero constraints: "
             + "; ".join(f"P({o[0]},{o[1]}|{s[0]},{s[1]}) = 0"
                         for s, o in cs.zero_events)]
    if cs.positive_event:
        s, o, prob = cs.positive_event
        lines.append(f"positive fact: P({o[0]},{o[1]}|{s[0]},{s[1]}) = {prob}")
    lines.append("")
    for strat in all_strategies():
        if strat in verdict.eliminations:
            setting, outcome = verdict.eliminations[strat]
            lines.append(f"  {strat}  ELIMINATED by zero event "
                         f"({outcome[0]},{outcome[1]}|{setting[0]},{setting[1]})")
        else:
            lines.append(f"  {strat}  survives")
    lines.append("")
    n = len(verdict.surviving_strategies)
    lines.append(f"surviving strategies: {n}")
    if verdict.contradiction:
        lines.append("verdict: CONTRADICTION - no local model exists")
    else:
        lines.append("verdict: satisfiable - a local model exists")
    return "\n".join(lines)
