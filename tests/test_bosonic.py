"""Two-photon Fock machinery: bunching and coincidence post-selection."""

import random
from fractions import Fraction

import pytest

from hardysim.amplitude import FLOAT, ExactScalar, I, INV_SQRT2, ONE
from hardysim.bosonic import (BosonicState, apply_bs_bosonic,
                              coincidence_postselect,
                              distinguishable_coincidence_probability,
                              hom_coincidence_probability)
from hardysim.errors import AnnihilatedError, EmptyStateError, SimulationError


class TestApplyBs:
    def test_hom_bunching(self):
        out = apply_bs_bosonic(BosonicState.single((1, 1)), 0, 1)
        assert (1, 1) not in out.amps
        # (i/sqrt2)(|2,0> + |0,2>): squared weights 1/2 each
        assert out.amps[(2, 0)].norm_sq() == ExactScalar.from_fraction(
            Fraction(1, 2))
        assert out.amps[(2, 0)] == out.amps[(0, 2)]
        assert out.norm_sq() == 1

    def test_single_photon_matches_one_particle_bs(self):
        out = apply_bs_bosonic(BosonicState.single((1, 0)), 0, 1)
        assert out.amps == {(1, 0): INV_SQRT2, (0, 1): I * INV_SQRT2}
        out2 = apply_bs_bosonic(BosonicState.single((0, 1)), 0, 1)
        assert out2.amps == {(1, 0): I * INV_SQRT2, (0, 1): INV_SQRT2}

    def test_norm_preserved_on_random_two_photon_states(self):
        rng = random.Random(23)
        kets = [(2, 0), (1, 1), (0, 2)]
        for _ in range(200):
            amps = {}
            for k in kets:
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(4)]
                amps[k] = ExactScalar(*coeffs)
            state = BosonicState(amps)
            if state.is_zero():
                continue
            out = apply_bs_bosonic(state, 0, 1)
            assert out.norm_sq() == state.norm_sq()

    def test_photon_number_conserved(self):
        out = apply_bs_bosonic(BosonicState.single((1, 1)), 0, 1)
        assert out.total_photons() == {2}

    def test_untouched_modes_pass_through(self):
        out = apply_bs_bosonic(BosonicState.single((1, 0, 1)), 0, 1)
        assert all(k[2] == 1 for k in out.amps)

    def test_invalid_modes(self):
        with pytest.raises(SimulationError):
            apply_bs_bosonic(BosonicState.single((1, 1)), 0, 0)
        with pytest.raises(SimulationError):
            apply_bs_bosonic(BosonicState.single((1, 1)), 0, 5)

    def test_photon_cap(self):
        with pytest.raises(SimulationError):
            BosonicState.single((3, 2))

    def test_result_is_a_bosonic_state(self):
        out = apply_bs_bosonic(BosonicState.single((1, 1), FLOAT), 0, 1)
        assert type(out) is BosonicState and out.backend == FLOAT

    def test_ket_map_to_mixed_photon_number_raises(self):
        state = BosonicState.single((1, 1))
        with pytest.raises(SimulationError):
            state.apply_ket_map(lambda k: [(k, ONE), ((2, 1), ONE)])

    def test_float_residue_is_pruned(self):
        state = BosonicState({(1, 1): complex(0.5), (2, 0): complex(1e-17),
                              (0, 2): complex(1e-12)}, FLOAT)
        assert set(state.amps) == {(1, 1), (0, 2)}

    def test_dump_lists_the_fock_kets_in_order(self):
        state = BosonicState({(1, 1): ONE, (0, 2): I})
        assert state.dump() == "(0, 2) | 1*i\n(1, 1) | 1"
        assert repr(state).startswith("BosonicState(exact, ")


class TestPostselect:
    def test_hom_output_has_no_coincidence(self):
        out = apply_bs_bosonic(BosonicState.single((1, 1)), 0, 1)
        with pytest.raises(AnnihilatedError):
            coincidence_postselect(out, (0, 1))

    def test_plain_coincidence_kept(self):
        state = BosonicState.single((1, 1))
        kept, survival = coincidence_postselect(state, (0, 1))
        assert survival == 1
        assert kept.amps == state.amps

    def test_partial_overlap(self):
        state = BosonicState({(1, 1): ONE, (2, 0): ONE})
        kept, survival = coincidence_postselect(state, (0, 1))
        assert survival == Fraction(1, 2)
        assert set(kept.amps) == {(1, 1)}


class TestHom:
    def test_coincidence_probability_zero(self):
        assert hom_coincidence_probability() == 0

    def test_float_backend_agrees(self):
        assert abs(hom_coincidence_probability(FLOAT)) <= 1e-12

    def test_unknown_backend_raises(self):
        with pytest.raises(SimulationError):
            hom_coincidence_probability("symbolic")
        with pytest.raises(SimulationError):
            distinguishable_coincidence_probability("symbolic")

    def test_distinguishable_gives_half(self):
        assert distinguishable_coincidence_probability() == Fraction(1, 2)

    def test_underflowed_float_norm_raises(self):
        # |1e-170|^2 underflows to 0.0 although the amplitude is nonzero
        state = BosonicState({(1, 1): complex(1e-170)}, FLOAT)
        assert not state.is_zero()
        with pytest.raises(EmptyStateError):
            state.probability(lambda k: True)

    def test_bunched_plus_coincidence_is_one(self):
        out = apply_bs_bosonic(BosonicState.single((1, 1)), 0, 1)
        bunched = out.probability(lambda k: k in ((2, 0), (0, 2)))
        coincidence = out.probability(lambda k: k == (1, 1))
        assert bunched + coincidence == 1
        assert bunched == 1
