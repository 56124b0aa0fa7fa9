"""Scenario orchestration over the four second-beam-splitter layouts."""

import fractions
import os
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hardysim import amplitude, hardy, measurement, optics
from hardysim.amplitude import EXACT, FLOAT, I, ONE
from hardysim.errors import (ConfigError, ModeAliasingError, SimulationError,
                             echo)
from hardysim.hardy import OutcomeTable, ScenarioConfig, full_table, run_scenario
from hardysim.measurement import (DOOMED, annihilation_channel,
                                  apply_channel, check_reaction_prob)
from hardysim.state import (ABSORBED, DensityMatrix, StateVector,
                            pure_to_density)
from helpers import (EXACT_SWEEP_PS, FLOAT_GOLDEN_PS, UnreadableReal, c, d,
                     deep_list, density_times, diagonal_kets, eq3_state,
                     eq6_state, ket, no_photon_entries, scaled, u, v)


def sweep_text(ps, backend=EXACT, show=str) -> str:
    """One tab-separated line per (p, layout) of a sweep: show() of the
    unconditional cells cc, cd, dc, dd and of the photon weight."""
    lines = ["p\tlayout\tcc\tcd\tdc\tdd\tgamma"]
    for p in ps:
        for plus in (False, True):
            for minus in (False, True):
                cfg = ScenarioConfig(plus, minus, p, backend)
                _, table = run_scenario(cfg)
                cells = [table.prob(dp, dm) for dp in ("c", "d")
                         for dm in ("c", "d")]
                lines.append("\t".join([str(p), cfg.key, *map(show, cells),
                                        show(table.gamma_prob)]))
    return "\n".join(lines) + "\n"


def golden_text(name: str) -> str:
    path = os.path.join(os.path.dirname(__file__), "golden", name)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class TestFinalStates:
    def test_plus_in_minus_removed(self):
        final, table = run_scenario(ScenarioConfig(True, False))
        assert set(final.amps) == {ket(c, d), ket(c, c), ket(d, c)}
        # relative amplitudes {2i, -1, i} against c+d-
        base = final.amps[ket(d, c)] / I  # strip the i
        assert final.amps[ket(c, d)] == 2 * I * base
        assert final.amps[ket(c, c)] == -base
        cond = table.conditioned()
        assert cond.prob("c", "d") == Fraction(2, 3)
        assert cond.prob("c", "c") == Fraction(1, 6)
        assert cond.prob("d", "c") == Fraction(1, 6)
        assert cond.prob("d", "d") == 0

    def test_both_in_eq14_support(self):
        final, table = run_scenario(ScenarioConfig(True, True))
        base = -final.amps[ket(c, c)] / 3
        assert final.amps[ket(d, d)] == -base
        assert final.amps[ket(d, c)] == I * base
        assert final.amps[ket(c, d)] == I * base
        cond = table.conditioned()
        assert cond.prob("d", "d") == Fraction(1, 12)
        assert cond.prob("c", "c") == Fraction(3, 4)
        assert cond.prob("c", "d") == Fraction(1, 12)
        assert cond.prob("d", "c") == Fraction(1, 12)
        assert table.prob("d", "d") == Fraction(1, 16)
        assert table.gamma_prob == Fraction(1, 4)

    def test_each_layout_is_image_of_projected_state(self):
        from hardysim.hardy import _bs2_stage
        for bs2_plus in (False, True):
            for bs2_minus in (False, True):
                final, _ = run_scenario(ScenarioConfig(bs2_plus, bs2_minus))
                # the projected state is eq6 / 2 (acceptance criterion 2)
                image = _bs2_stage(eq6_state(), bs2_plus, bs2_minus)
                assert final.amps == scaled(image, ONE / 2).amps


class TestFullTable:
    def test_all_keys_present(self):
        assert set(full_table()) == {"OO", "IO", "OI", "II"}

    def test_mixed_layouts_swap_symmetric(self):
        tables = full_table()
        for dp in "cd":
            for dm in "cd":
                assert tables["IO"].prob(dp, dm) == tables["OI"].prob(dm, dp)


class TestNormalization:
    def test_gamma_is_p_over_four(self):
        for p in (Fraction(0), Fraction(1, 2), Fraction(1)):
            _, table = run_scenario(ScenarioConfig(True, True, p))
            assert table.gamma_prob == p / 4


class TestConditioning:
    """conditioned() keeps the photon weight it conditions away."""

    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    def test_keeps_gamma_prob(self, backend):
        for p in (Fraction(1), Fraction(1, 2)):
            _, table = run_scenario(ScenarioConfig(True, True, p, backend))
            cond = table.conditioned()
            assert cond.conditional
            assert cond.gamma_prob == table.gamma_prob
            assert type(cond.gamma_prob) is type(table.gamma_prob)

    @pytest.mark.parametrize("p", EXACT_SWEEP_PS, ids=str)
    def test_rows_times_survival_give_the_unconditional_rows(self, p):
        for key, (bs2_plus, bs2_minus) in {
                "OO": (False, False), "IO": (True, False),
                "OI": (False, True), "II": (True, True)}.items():
            _, table = run_scenario(ScenarioConfig(bs2_plus, bs2_minus, p))
            assert table.config == key
            cond = table.conditioned()
            for cell, value in table.rows.items():
                assert cond.rows[cell] * (1 - cond.gamma_prob) == value


class TestBaseline:
    """p = 0: balanced interferometers, no annihilation branch."""

    def test_both_removed_uniform(self):
        _, table = run_scenario(ScenarioConfig(False, False, Fraction(0)))
        for dp in "cd":
            for dm in "cd":
                assert table.prob(dp, dm) == Fraction(1, 4)


class TestDensityCrossCheck:
    def test_pure_path_matches_density_path_at_p_one(self):
        from hardysim.hardy import _bs2_stage
        from hardysim.optics import apply_bs1_pair
        sv = apply_bs1_pair()
        rho = apply_channel(pure_to_density(sv), annihilation_channel(Fraction(1)))
        for bs2_plus in (False, True):
            for bs2_minus in (False, True):
                final, _ = run_scenario(ScenarioConfig(bs2_plus, bs2_minus))
                rho_final = _bs2_stage(rho, bs2_plus, bs2_minus)
                survival = rho_final.diagonal_probability(
                    [k for k in diagonal_kets(rho_final) if not k.is_absorbed])
                assert survival == Fraction(3, 4)
                assert (no_photon_entries(rho_final)
                        == density_times(final, survival))

    def test_mixed_p_returns_density(self):
        final, _ = run_scenario(ScenarioConfig(True, True, Fraction(1, 2)))
        assert isinstance(final, DensityMatrix)
        assert final.diagonal_probability(diagonal_kets(final)) == 1

    def test_endpoint_p_returns_state_vector(self):
        for p in (Fraction(0), Fraction(1)):
            final, _ = run_scenario(ScenarioConfig(True, True, p))
            assert isinstance(final, StateVector)


class TestBackendAgreement:
    @pytest.mark.parametrize("p", [Fraction(777821, 10**6),
                                   Fraction(833821, 10**6)])
    @pytest.mark.parametrize("bs2_plus, bs2_minus", [(True, False),
                                                     (False, True)])
    def test_float_density_matrix_has_the_exact_support(self, p, bs2_plus,
                                                        bs2_minus):
        # at these p a 1.4e-17 cancellation residue used to survive as an
        # 11th entry; the support of a mixed layout does not depend on p
        exact, _ = run_scenario(ScenarioConfig(bs2_plus, bs2_minus,
                                               Fraction(1, 2)))
        flt, _ = run_scenario(ScenarioConfig(bs2_plus, bs2_minus, p, FLOAT))
        assert len(exact.entries) == 10
        assert set(flt.entries) == set(exact.entries)


class TestConfigValidation:
    def test_p_out_of_range(self):
        # huge terms too: str() of an int past 4300 digits raises ValueError
        for bad in (Fraction(2), Fraction(10**5000), Fraction(-1, 10**5000),
                    float("nan"), float("inf")):
            with pytest.raises(SimulationError) as info:
                ScenarioConfig(True, True, bad)
            assert len(str(info.value)) < 200

    @pytest.mark.parametrize("bad", [True, False, "1/2", None, 0.5 + 0j, 1j,
                                     "x" * 10**6, [Fraction(1)], "abc"])
    def test_p_not_a_real_number(self, bad):
        # a bool would run as p = 0 or 1 and be reported as True or False
        with pytest.raises(ConfigError, match="not a real number") as info:
            ScenarioConfig(True, True, bad)
        assert len(str(info.value)) < 200

    def test_p_real_but_unreadable(self):
        with pytest.raises(ConfigError, match="cannot be read") as info:
            ScenarioConfig(True, True, UnreadableReal())
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("p", [0, 1, Fraction(1, 2), 0.5])
    def test_real_p_is_kept(self, p):
        held = ScenarioConfig(True, True, p).reaction_prob
        assert held == p and type(held) is Fraction

    def test_unknown_backend(self):
        for name in ("symbolic", "y" * 1000):
            with pytest.raises(ConfigError, match="unknown backend") as info:
                ScenarioConfig(True, True, Fraction(1), name)
            assert len(str(info.value)) < 200

    @pytest.mark.parametrize("flags", [("a", "b"), ("", "x"), (None, [0]),
                                       (1, 0), (True, 0)],
                             ids=["a-b", "empty-x", "None-list", "1-0", "True-0"])
    def test_flag_that_is_not_a_bool(self, flags):
        # each of these once ran silently as some layout: ("a", "b") as II
        with pytest.raises(ConfigError, match="must be true or false"):
            ScenarioConfig(*flags)

    def test_backend_is_checked_before_the_range_of_p(self):
        # so the CLI exits 2, not 3, on a config with both faults
        with pytest.raises(ConfigError, match="unknown backend"):
            ScenarioConfig(True, True, 2, "symbolic")
        with pytest.raises(SimulationError, match="outside") as info:
            ScenarioConfig(True, True, 2)
        assert not isinstance(info.value, ConfigError)

    def test_backend_name_is_kept(self):
        cfg = ScenarioConfig(True, True, backend="float")
        assert cfg.backend == "float" and cfg.backend is FLOAT

    @pytest.mark.parametrize("field", ["bs2_plus", "reaction_prob", "backend"])
    def test_fields_cannot_be_set(self, field):
        cfg = ScenarioConfig(True, True)
        with pytest.raises(AttributeError):
            setattr(cfg, field, False)

    def test_keys(self):
        assert ScenarioConfig(False, False).key == "OO"
        assert ScenarioConfig(True, False).key == "IO"
        assert ScenarioConfig(False, True).key == "OI"
        assert ScenarioConfig(True, True).key == "II"

    @pytest.mark.parametrize("cfg", [(True, True, 1, "exact"), None,
                                     {"bs2_plus": True, "bs2_minus": True},
                                     "x" * 10**6])
    def test_run_scenario_takes_only_a_scenario_config(self, cfg):
        # a plain tuple with the same fields once ended in AttributeError
        with pytest.raises(ConfigError, match="needs a ScenarioConfig") as info:
            run_scenario(cfg)
        assert len(str(info.value)) < 200


mixed = (st.none() | st.booleans() | st.integers() | st.floats()
         | st.fractions() | st.complex_numbers() | st.text(max_size=6)
         | st.lists(st.booleans() | st.integers(), max_size=2))


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.booleans() | mixed, st.booleans() | mixed,
           st.fractions(min_value=0, max_value=1) | mixed,
           st.sampled_from(["exact", "float", EXACT, FLOAT]) | mixed)
    def test_fields_are_checked_or_refused(self, plus, minus, p, backend):
        try:
            cfg = ScenarioConfig(plus, minus, p, backend)
        except SimulationError:
            pass
        else:
            assert type(cfg.bs2_plus) is bool and type(cfg.bs2_minus) is bool
            assert type(cfg.reaction_prob) is Fraction
            assert 0 <= cfg.reaction_prob <= 1
            assert cfg.backend is EXACT or cfg.backend is FLOAT
        try:
            tables = full_table(p, backend)
        except SimulationError:
            return
        assert sorted(tables) == ["II", "IO", "OI", "OO"]

    @pytest.mark.parametrize("call", [
        lambda: ScenarioConfig(10**5000, True),
        lambda: ScenarioConfig(True, True, 1, 10**5000),
        lambda: check_reaction_prob([10**5000]),
        lambda: ScenarioConfig(deep_list(), True),
        lambda: ScenarioConfig(True, True, 1, deep_list()),
        lambda: full_table(deep_list()),
        lambda: full_table(1, deep_list()),
    ], ids=["huge-flag", "huge-backend", "huge-int-in-p", "deep-flag",
            "deep-backend", "deep-table-p", "deep-table-backend"])
    def test_values_without_text_are_refused(self, call):
        with pytest.raises(ConfigError) as info:
            call()
        assert len(str(info.value)) < 300


class TestExactSweepGolden:
    def test_exact_sweep_matches_the_golden_file(self):
        # golden/exact-sweep.txt pins every exact cell and photon weight of
        # the benchmark's exact sweep, so a faster pipeline must reproduce
        # them bit for bit
        assert sweep_text(EXACT_SWEEP_PS) == golden_text("exact-sweep.txt")


class TestFloatSweepGolden:
    def test_float_sweep_matches_the_golden_file(self):
        # golden/float-sweep.txt pins repr() of every float cell and photon
        # weight over FLOAT_GOLDEN_PS; repr() round-trips a float, so a
        # change in its last bit shows
        assert (sweep_text(FLOAT_GOLDEN_PS, FLOAT, repr)
                == golden_text("float-sweep.txt"))


class TestOutcomeTable:
    def test_repr_names_every_field(self):
        table = OutcomeTable({("c", "c"): Fraction(1, 2)}, Fraction(0), True,
                             "II")
        assert repr(table) == ("OutcomeTable(rows={('c', 'c'): Fraction(1, 2)}, "
                               "gamma_prob=Fraction(0, 1), conditional=True, "
                               "config='II')")

    def test_conditioning_on_no_coincidence_raises(self):
        table = OutcomeTable({(a, b): Fraction(0) for a in "cd" for b in "cd"},
                             Fraction(1), False, "II")
        with pytest.raises(SimulationError, match="no surviving coincidences"):
            table.conditioned()

    @pytest.mark.parametrize("rows", [5, {("c", "c"): "a"}], ids=repr)
    def test_conditioning_rows_that_are_not_probabilities_raises(self, rows):
        # 5 once ended in AttributeError: 'int' object has no attribute 'values'
        with pytest.raises(ConfigError, match="not a dict of probabilities") as info:
            OutcomeTable(rows, 0, False, "II").conditioned()
        assert echo(rows) in str(info.value)

    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    @pytest.mark.parametrize("cell", [("x", "y"), ("C", "d"), ("c", None),
                                      ([1], "c")], ids=repr)
    def test_an_unknown_cell_raises(self, cell, backend):
        # ("x", "y") once ended in KeyError, an unhashable detector in
        # TypeError
        table = full_table(backend=backend)["II"]
        with pytest.raises(ConfigError, match="no cell") as info:
            table.prob(*cell)
        assert f"({echo(cell[0])}, {echo(cell[1])})" in str(info.value)

    def test_equality_compares_fields_and_config_can_be_set(self):
        _, table = run_scenario(ScenarioConfig(True, True))
        _, again = run_scenario(ScenarioConfig(True, True))
        assert table == again
        # another type is left to its own __eq__, so the two are unequal
        assert table.__eq__(table.rows) is NotImplemented
        assert table != table.rows and not table == 5
        again.config = "OO"
        assert table != again


class TestWorkBudget:
    """ExactScalar constructions per exact scenario, counted, not timed.

    The sweep is the benchmark's exact one: 4 layouts x 9 p whose sqrt(p)
    and sqrt(1-p) lie in Q(sqrt2). Every scalar is reduced by a gcd and
    allocated through ``amplitude._new_scalar``, so that is where they are
    counted. The fixed optics are built at import and the prepared state's
    density matrix before counting, so the count is per-scenario work and
    does not depend on which tests ran before. It reads 90.92 per scenario.
    """

    BUDGET = 92

    def test_exact_sweep_constructions_per_scenario(self, monkeypatch):
        pure_to_density(optics.apply_bs1_pair())
        made = 0
        new_scalar = amplitude._new_scalar

        def counted(cls):
            nonlocal made
            made += 1
            return new_scalar(cls)

        monkeypatch.setattr(amplitude, "_new_scalar", counted)
        scenarios = [ScenarioConfig(plus, minus, p)
                     for p in EXACT_SWEEP_PS for plus in (False, True)
                     for minus in (False, True)]
        for cfg in scenarios:
            run_scenario(cfg)
        assert made / len(scenarios) <= self.BUDGET


class TestFractionCalls:
    """Calls into fractions.py per scenario, counted, not timed, after the
    ScenarioConfig is built; the numerator and denominator getters are left
    out. The channel reads p's integers, so a float scenario's only calls
    are the two Fraction.__eq__ of `p in (0, 1)`, and an exact one's are the
    reading and scaling of exact rational probabilities: 9.58 per scenario
    over the benchmark's exact sweep. Each prepared state's density matrix
    is built before counting, as in TestWorkBudget."""

    EXACT_BUDGET = 9.6

    @staticmethod
    def calls_per_scenario(scenarios):
        for backend in (EXACT, FLOAT):
            pure_to_density(optics.apply_bs1_pair(backend))
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            code = frame.f_code
            if (event == "call" and code.co_filename == fractions.__file__
                    and code.co_name not in ("numerator", "denominator")):
                calls += 1

        before = sys.getprofile()
        sys.setprofile(profile)
        try:
            for cfg in scenarios:
                run_scenario(cfg)
        finally:
            sys.setprofile(before)
        return calls / len(scenarios)

    @staticmethod
    def sweep(ps, backend):
        return [ScenarioConfig(plus, minus, p, backend) for p in ps
                for plus in (False, True) for minus in (False, True)]

    def test_float_scenario_calls(self):
        ps = FLOAT_GOLDEN_PS + [Fraction(k, 10**6) for k in
                                random.Random(36).sample(range(1, 10**6), 8)]
        assert self.calls_per_scenario(self.sweep(ps, FLOAT)) == 2

    def test_exact_scenario_calls(self):
        calls = self.calls_per_scenario(self.sweep(EXACT_SWEEP_PS, EXACT))
        assert calls <= self.EXACT_BUDGET


def per_arm_stage(obj, bs2_plus, bs2_minus):
    """The second stage one arm at a time, plus arm first: a splitter in
    place applies its ket map, a removed one its relabeling. The reference
    the layout's passes must equal."""
    for arm, present in ((optics.PLUS, bs2_plus), (optics.MINUS, bs2_minus)):
        ket_map = optics.bs_ket_map if present else optics.relabel_ket_map
        obj = obj.apply_ket_map(ket_map(obj.backend, arm))
    return obj


def value_reprs(obj):
    """A state's amplitudes or a matrix's entries as (key, repr(value)), in
    order: dict order and the last ulp both count."""
    held = obj.amps if isinstance(obj, StateVector) else obj.entries
    return [(k, repr(val)) for k, val in held.items()]


LAYOUTS = {"OO": (False, False), "IO": (True, False), "OI": (False, True),
           "II": (True, True)}


class TestFusedSecondStage:
    """_bs2_stage runs the layout's passes from the optics table; a removed
    splitter's relabeling is folded into the other arm's pass. On what the
    second splitters meet in run_scenario (a StateVector at p = 0 and 1 on
    both backends, a DensityMatrix at exact_sweep's interior p on the exact
    backend and at FLOAT_GOLDEN_PS on the float one), the result equals the
    per-arm reference bit for bit, in the same order. A live detector label
    on either arm still raises ModeAliasingError, relabeled or not."""

    INPUTS = ([(EXACT, p) for p in EXACT_SWEEP_PS]
              + [(FLOAT, p) for p in [Fraction(0), Fraction(1)] + FLOAT_GOLDEN_PS])

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("backend, p", INPUTS,
                             ids=[f"{b}-{p}" for b, p in INPUTS])
    def test_passes_equal_the_per_arm_stage(self, backend, p, layout):
        ch = annihilation_channel(p)
        sv = optics.apply_bs1_pair(backend)
        obj = (measurement.project_knowledge(sv, ch)[0] if p in (0, 1)
               else apply_channel(pure_to_density(sv), ch))
        assert type(obj) is (StateVector if p in (0, 1) else DensityMatrix)
        got = hardy._bs2_stage(obj, *LAYOUTS[layout])
        want = per_arm_stage(obj, *LAYOUTS[layout])
        assert type(got) is type(want) and got.backend is want.backend
        assert value_reprs(got) == value_reprs(want)
        if isinstance(got, StateVector):
            assert repr(got.norm_sq()) == repr(want.norm_sq())

    @pytest.mark.parametrize("kind", [StateVector, DensityMatrix])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("bad", [ket(u, c), ket(u, d), ket(c, u),
                                     ket(d, v), ket(c, d)], ids=str)
    def test_a_live_detector_label_raises(self, kind, layout, bad):
        good = ket(u, v)
        for kets in ((good, bad), (bad, good)):
            obj = (StateVector(dict.fromkeys(kets, ONE)) if kind is StateVector
                   else DensityMatrix({(a, b): ONE for a in kets for b in kets}))
            with pytest.raises(ModeAliasingError):
                hardy._bs2_stage(obj, *LAYOUTS[layout])

    @pytest.mark.parametrize("kind", [StateVector, DensityMatrix])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    def test_a_value_that_is_not_a_ket_raises(self, backend, layout, kind):
        one = amplitude.backend(backend).one
        obj = (StateVector({5: one}) if kind is StateVector
               else DensityMatrix({(5, 5): one}))
        with pytest.raises(ConfigError, match="5 is not a BasisKet"):
            hardy._bs2_stage(obj, *LAYOUTS[layout])


class TestCostModel:
    """Which elements apply a ket map, counted: a splitter in place applies
    one, and a removed one's relabeling is folded into the other arm's
    splitter, so OO applies one pass through both relabelings and is the
    only layout with a pass that just renames kets; the channel and the
    knowledge projection change only the doomed ket, so neither applies
    one. The prepared state is built before
    counting. The table reads each cell, and at 0 < p < 1 the photon
    weight, by one probability call on a one-ket event."""

    CALLS = {"OO": 1, "IO": 1, "OI": 1, "II": 2}
    RENAMES = {"OO": 1, "IO": 0, "OI": 0, "II": 0}

    @staticmethod
    def renames(obj, ket_map):
        """Whether ket_map takes every ket obj holds to one ket with
        coefficient one, a pure relabeling."""
        kets = (obj.amps if isinstance(obj, StateVector)
                else {a for a, _ in obj.entries})
        one = obj.backend.one
        return all(len(image) == 1 and image[0][1] == one
                   for image in map(tuple, map(ket_map, kets)))

    @classmethod
    def calls_per_layout(cls, monkeypatch, kind, backend, p,
                         renames_only=False):
        """{layout: calls of kind.apply_ket_map in one run_scenario}, or
        with renames_only those calls whose map only relabels kets."""
        optics.apply_bs1_pair(backend)
        calls = []
        call = kind.apply_ket_map

        def counted(obj, ket_map):
            if not renames_only or cls.renames(obj, ket_map):
                calls.append(obj)
            return call(obj, ket_map)

        monkeypatch.setattr(kind, "apply_ket_map", counted)
        made = {}
        for plus in (False, True):
            for minus in (False, True):
                cfg = ScenarioConfig(plus, minus, p, backend)
                calls.clear()
                final, _ = run_scenario(cfg)
                assert type(final) is kind
                made[cfg.key] = len(calls)
        return made

    @pytest.mark.parametrize("kind, p", [(DensityMatrix, Fraction(1, 2)),
                                         (StateVector, Fraction(1)),
                                         (StateVector, Fraction(0))],
                             ids=["interior", "endpoint", "endpoint-0"])
    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    def test_ket_map_applications_per_layout(self, monkeypatch, backend,
                                             kind, p):
        assert self.calls_per_layout(monkeypatch, kind, backend,
                                     p) == self.CALLS

    @pytest.mark.parametrize("kind, p", [(DensityMatrix, Fraction(1, 2)),
                                         (StateVector, Fraction(1)),
                                         (StateVector, Fraction(0))],
                             ids=["interior", "endpoint-1", "endpoint-0"])
    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    def test_renames_per_layout(self, monkeypatch, backend, kind, p):
        assert self.calls_per_layout(monkeypatch, kind, backend, p,
                                     renames_only=True) == self.RENAMES

    @pytest.mark.parametrize("kind, ps, photon", [
        (StateVector, [Fraction(0), Fraction(1)], []),
        (DensityMatrix, [Fraction(1, 2), Fraction(9, 25)], [(ABSORBED,)])],
        ids=["endpoint", "interior"])
    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    def test_the_table_reads_one_ket_per_call(self, monkeypatch, backend,
                                              kind, ps, photon):
        calls = []
        for cls, name in ((StateVector, "probability"),
                          (DensityMatrix, "diagonal_probability")):
            def counted(obj, kets, cls=cls, read=getattr(cls, name)):
                calls.append((cls, tuple(kets)))
                return read(obj, calls[-1][1])

            monkeypatch.setattr(cls, name, counted)
        cells = [(ket(a, b),) for a in (c, d) for b in (c, d)]
        expected = Counter((kind, event) for event in cells + photon)
        for p in ps:
            for plus in (False, True):
                for minus in (False, True):
                    calls.clear()
                    run_scenario(ScenarioConfig(plus, minus, p, backend))
                    assert Counter(calls) == expected

    def test_the_channel_keeps_entries_off_the_doomed_row_and_column(self):
        for backend, p in ((EXACT, Fraction(1, 2)), (FLOAT, 0.5)):
            rho = pure_to_density(optics.apply_bs1_pair(backend))
            out = apply_channel(rho, annihilation_channel(p))
            kept = [key for key in rho.entries if DOOMED not in key]
            assert len(kept) == 9
            assert all(out.entries[key] is rho.entries[key] for key in kept)


class TestSharedPreparedState:
    """Every scenario starts from apply_bs1_pair's one state per backend and
    from that state's one density matrix, so no scenario may change either.
    exact_sweep's 36 scenarios and 8 float ones run in two orders; then the
    shared objects are checked against a fresh build of the optics, and
    every table against one run on that fresh build, whose second-stage
    passes are its own."""

    FLOAT_PS = [k / 1000 for k in random.Random(27).sample(range(1, 1000), 2)]
    SCENARIOS = [ScenarioConfig(plus, minus, p, backend)
                 for backend, ps in ((EXACT, EXACT_SWEEP_PS), (FLOAT, FLOAT_PS))
                 for p in ps for plus in (False, True) for minus in (False, True)]

    @pytest.mark.parametrize("step", [1, -1], ids=["forward", "reversed"])
    def test_no_scenario_changes_the_shared_state(self, monkeypatch, step):
        scenarios = self.SCENARIOS[::step]
        tables = [run_scenario(cfg)[1] for cfg in scenarios]
        for backend in (EXACT, FLOAT):
            sv = optics.apply_bs1_pair(backend)
            assert optics.apply_bs1_pair(backend) is sv
            rho = pure_to_density(sv)
            assert pure_to_density(sv) is rho
            fresh = optics._build(backend).prepared
            assert sv.amps == fresh.amps
            assert rho.entries == pure_to_density(fresh).entries
        shared = optics.apply_bs1_pair(EXACT)
        assert shared.amps == eq3_state().amps
        assert shared.norm_sq() == 1
        built = dict(optics._OPTICS)
        for cfg, table in zip(scenarios, tables):
            fresh = optics._build(cfg.backend)
            layout = cfg.bs2_plus, cfg.bs2_minus
            shared, passes = built[cfg.backend].stages[layout], fresh.stages[layout]
            # the rerun goes through the fresh build's own passes
            assert len(passes) == len(shared)
            assert all(f is not g for f, g in zip(passes, shared))
            monkeypatch.setitem(optics._OPTICS, cfg.backend, fresh)
            assert run_scenario(cfg)[1] == table


def is_hermitian(rho) -> bool:
    """Every entry's mirror entry exists and is its conjugate: exactly on the
    exact backend, within FLOAT_TOL on the float one."""
    def close(x, y):
        return x == y if rho.backend == EXACT else abs(x - y) <= amplitude.FLOAT_TOL

    return all((b, a) in rho.entries and close(rho.entries[(b, a)].conjugate(), val)
               for (a, b), val in rho.entries.items())


class TestHermitianByConstruction:
    """Every density matrix run_scenario builds is Hermitian, which no check
    in the library tests: the state's pure_to_density, the channel's output
    and the final matrix, for the 4 layouts at interior p on both backends."""

    EXACT_PS = [Fraction(p) for p in ("1/2", "9/25", "16/25", "1/9", "8/9",
                                      "1/50", "49/50")]
    FLOAT_PS = [k / 1000 for k in random.Random(18).sample(range(1, 1000), 8)]

    @pytest.mark.parametrize("backend, p",
                             [(EXACT, p) for p in EXACT_PS]
                             + [(FLOAT, p) for p in FLOAT_PS])
    def test_every_matrix_passes_the_check(self, monkeypatch, backend, p):
        made = []

        def kept(fn):
            def wrapper(*args):
                made.append(fn(*args))
                return made[-1]
            return wrapper

        monkeypatch.setattr(hardy, "pure_to_density",
                            kept(hardy.pure_to_density))
        monkeypatch.setattr(measurement, "apply_channel",
                            kept(measurement.apply_channel))
        for plus in (False, True):
            for minus in (False, True):
                final, _ = run_scenario(ScenarioConfig(plus, minus, p, backend))
                made.append(final)
        assert len(made) == 12
        for rho in made:
            assert isinstance(rho, DensityMatrix)
            assert is_hermitian(rho)
