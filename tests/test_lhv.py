"""Exhaustive local-hidden-variable audit."""

from fractions import Fraction

import pytest

from hardysim.amplitude import FLOAT
from hardysim.errors import SimulationError
from hardysim.hardy import ScenarioConfig, full_table, run_scenario
from hardysim.lhv import (ConstraintSet, LocalStrategy, all_strategies, audit,
                          audit_report, quantum_constraints)


class TestEnumeration:
    def test_sixteen_distinct_strategies(self):
        strategies = all_strategies()
        assert len(strategies) == 16
        assert len(set(strategies)) == 16

    def test_outcomes(self):
        s = LocalStrategy("d", "c", "d", "c")
        assert s.outcome(("in", "in")) == ("d", "d")
        assert s.outcome(("in", "out")) == ("d", "c")
        assert s.outcome(("out", "in")) == ("c", "d")
        assert s.outcome(("out", "out")) == ("c", "c")

    def test_strategy_fields_cannot_be_set(self):
        with pytest.raises(AttributeError):
            LocalStrategy("d", "c", "d", "c").a_in = "c"


class TestQuantumConstraints:
    def test_zero_events(self):
        cs = quantum_constraints(full_table())
        assert cs.zero_events == [
            (("out", "out"), ("c", "c")),
            (("in", "out"), ("d", "d")),
            (("out", "in"), ("d", "d")),
        ]

    def test_positive_event(self):
        cs = quantum_constraints(full_table())
        setting, outcome, prob = cs.positive_event
        assert setting == ("in", "in")
        assert outcome == ("d", "d")
        assert prob == Fraction(1, 12) and type(prob) is Fraction

    def test_unconditional_tables_give_the_conditional_constraints(self):
        # run_scenario's tables keep the photon weight; read as they are, the
        # positive event II (d, d) would be 1/16 instead of 1/12
        tables = {}
        for plus in (False, True):
            for minus in (False, True):
                cfg = ScenarioConfig(plus, minus)
                tables[cfg.key] = run_scenario(cfg)[1]
        assert not any(t.conditional for t in tables.values())
        assert quantum_constraints(tables) == quantum_constraints(full_table())

    def test_float_tables_are_refused(self):
        with pytest.raises(SimulationError, match="exact tables"):
            quantum_constraints(full_table(backend=FLOAT))

    def test_missing_layout_is_named(self):
        with pytest.raises(SimulationError, match="layout OO"):
            quantum_constraints({})
        with pytest.raises(SimulationError, match="layout IO"):
            quantum_constraints({"OO": full_table()["OO"]})


class TestAudit:
    def test_contradiction(self):
        verdict = audit(quantum_constraints(full_table()))
        assert verdict.contradiction
        # every strategy with a_in = b_in = d is eliminated
        for s in verdict.surviving_strategies:
            assert not (s.a_in == "d" and s.b_in == "d")

    def test_no_zero_events_is_satisfiable(self):
        cs = quantum_constraints(full_table())
        verdict = audit(ConstraintSet([], cs.positive_event))
        assert not verdict.contradiction
        assert len(verdict.surviving_strategies) == 16

    def test_no_positive_event_nothing_to_explain(self):
        cs = quantum_constraints(full_table())
        setting, outcome, _ = cs.positive_event
        verdict = audit(ConstraintSet(cs.zero_events,
                                      (setting, outcome, Fraction(0))))
        assert not verdict.contradiction

    def test_monotone_in_zero_events(self):
        cs = quantum_constraints(full_table())
        extra = cs.zero_events + [(("in", "in"), ("c", "d"))]
        assert audit(ConstraintSet(extra, cs.positive_event)).contradiction

    def test_scale_of_positive_probability_is_irrelevant(self):
        cs = quantum_constraints(full_table())
        setting, outcome, prob = cs.positive_event
        # an ExactScalar in Q(sqrt2) has no ordering, only == 0
        irrational = full_table(Fraction(1, 2))["II"].prob(*outcome)
        for value in (prob / 100, prob / 2, prob, irrational):
            verdict = audit(ConstraintSet(cs.zero_events,
                                          (setting, outcome, value)))
            assert verdict.contradiction


class TestReport:
    def test_report_shape(self):
        report = audit_report(quantum_constraints(full_table()))
        assert "CONTRADICTION" in report
        assert "no local model exists" in report
        assert report.count("ELIMINATED") + report.count("survives") == 16

    def test_half_p_leaves_a_local_model(self):
        # at p = 1/2 only the OI and IO (d, d) cells vanish, and the nine
        # strategies that survive them realize every nonzero cell
        report = audit_report(quantum_constraints(full_table(Fraction(1, 2))))
        lines = report.splitlines()
        assert lines[-2:] == ["surviving strategies: 9",
                              "verdict: satisfiable - a local model exists"]

    def test_eliminations_name_their_killer(self):
        verdict = audit(quantum_constraints(full_table()))
        assert len(verdict.eliminations) + len(verdict.surviving_strategies) == 16
        for strat, (setting, outcome) in verdict.eliminations.items():
            assert strat.outcome(setting) == outcome
