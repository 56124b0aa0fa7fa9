"""Hong-Ou-Mandel bunching: an exchange-symmetric input through one splitter."""

import itertools
import random
from fractions import Fraction

import pytest

from hardysim.amplitude import EXACT, FLOAT, I, INV_SQRT2, ONE
from hardysim.bosonic import (distinguishable_coincidence_probability,
                              hom_coincidence_probability, splitter_output)
from hardysim.errors import ConfigError, ModeAliasingError, SimulationError
from hardysim.state import BasisKet
from helpers import S, c, d, u, v

SYMMETRIC = (BasisKet(u, v), BasisKet(v, u))
COINCIDENCE = (BasisKet(c, d), BasisKet(d, c))


def coincidence(ket):
    return ket.plus != ket.minus


class TestApplyBs:
    def test_single_photon_matches_one_particle_bs(self):
        # i on reflection: u -> (c + i d)/sqrt2, v -> (i c + d)/sqrt2
        out = splitter_output([BasisKet(u, S)])
        assert out.amps == {BasisKet(c, S): INV_SQRT2,
                            BasisKet(d, S): I * INV_SQRT2}
        out2 = splitter_output([BasisKet(S, v)])
        assert out2.amps == {BasisKet(S, c): I * INV_SQRT2,
                             BasisKet(S, d): INV_SQRT2}

    def test_norm_preserved_on_random_two_photon_states(self):
        rng = random.Random(23)
        kets = [BasisKet(a, b) for a, b in itertools.product((S, u, v), repeat=2)]
        for _ in range(200):
            chosen = rng.sample(kets, rng.randint(1, len(kets)))
            assert splitter_output(chosen).norm_sq() == len(chosen)

    def test_photon_number_conserved(self):
        # each photon leaves through a detector port; none is lost
        for kets in (SYMMETRIC, SYMMETRIC[:1]):
            out = splitter_output(kets)
            assert all(k.plus in (c, d) and k.minus in (c, d) for k in out.amps)

    def test_untouched_modes_pass_through(self):
        out = splitter_output([BasisKet(S, S)])
        assert out.amps == {BasisKet(S, S): ONE}

    def test_invalid_modes(self):
        # a photon already on an output port cannot enter the splitter
        with pytest.raises(ModeAliasingError):
            splitter_output([BasisKet(c, u)])

    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    def test_a_value_that_is_not_a_ket_raises(self, backend):
        # once AttributeError: 'int' object has no attribute 'is_absorbed'
        with pytest.raises(ConfigError, match="5 is not a BasisKet"):
            splitter_output([5], backend)

    def test_dump_lists_the_bunched_kets_in_order(self):
        out = splitter_output(SYMMETRIC)
        assert out.dump() == "e+:c e-:c | 1*i\ne+:d e-:d | 1*i"
        assert repr(out).startswith("StateVector(exact, ")

    def test_float_residue_is_pruned(self):
        # t^2 + r^2 cancels on the float backend too, leaving no (c,d) ket
        out = splitter_output(SYMMETRIC, FLOAT)
        assert set(out.amps) == {BasisKet(c, c), BasisKet(d, d)}


class TestPostselect:
    def test_hom_output_has_no_coincidence(self):
        assert not any(map(coincidence, splitter_output(SYMMETRIC).amps))

    def test_plain_coincidence_kept(self):
        # distinguishable particles reach (c,d) and (d,c) with weight 1/4 each
        out = splitter_output(SYMMETRIC[:1])
        assert {k for k in out.amps if coincidence(k)} == set(COINCIDENCE)
        assert out.probability(COINCIDENCE) == Fraction(1, 2)


class TestHom:
    def test_unknown_backend_raises(self):
        with pytest.raises(SimulationError):
            hom_coincidence_probability("symbolic")
        with pytest.raises(SimulationError):
            distinguishable_coincidence_probability("symbolic")

    def test_distinguishable_gives_half(self):
        exact = distinguishable_coincidence_probability()
        assert exact == Fraction(1, 2) and type(exact) is Fraction
        approx = distinguishable_coincidence_probability(FLOAT)
        assert abs(approx - 0.5) <= 1e-12 and type(approx) is float

    def test_bunched_plus_coincidence_is_one(self):
        out = splitter_output(SYMMETRIC)
        bunched = out.probability([k for k in out.amps if k.plus == k.minus])
        assert bunched + out.probability(
            [k for k in out.amps if coincidence(k)]) == 1
        assert bunched == 1
