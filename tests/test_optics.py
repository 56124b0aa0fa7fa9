"""Beam splitters, relabeling and the two-arm input stage."""

import random
from fractions import Fraction

import pytest

from hardysim import amplitude, optics
from hardysim.amplitude import EXACT, FLOAT, ExactScalar, I, INV_SQRT2, ONE
from hardysim.errors import ConfigError, ModeAliasingError
from hardysim.optics import (MINUS, PLUS, apply_bs1_pair, bs_ket_map,
                             relabel_ket_map)
from hardysim.state import ABSORBED, DensityMatrix, PathLabel, StateVector
from helpers import S, c, d, eq3_state, eq6_state, ket, random_state, u, v


def bs1_ket_map(backend, arm):
    """The first beam splitter on one arm (S -> v, u), built as the
    prepared state builds it."""
    return optics._splitter(amplitude.backend(backend), arm, (S,), (v, u))


class TestApplyBs:
    def test_first_bs_on_source(self):
        sv = StateVector({ket(S, S): ONE})
        out = sv.apply_ket_map(bs1_ket_map(EXACT, PLUS))
        assert out.amps == {ket(v, S): INV_SQRT2, ket(u, S): I * INV_SQRT2}

    def test_second_bs_convention(self):
        # u -> (c + i d)/sqrt2 and v -> (i c + d)/sqrt2 on either arm
        for arm, mk in ((PLUS, lambda lbl: ket(lbl, S)),
                        (MINUS, lambda lbl: ket(S, lbl))):
            bs = bs_ket_map(EXACT, arm)
            out_u = StateVector({mk(u): ONE}).apply_ket_map(bs)
            assert out_u.amps == {mk(c): INV_SQRT2, mk(d): I * INV_SQRT2}
            out_v = StateVector({mk(v): ONE}).apply_ket_map(bs)
            assert out_v.amps == {mk(c): I * INV_SQRT2, mk(d): INV_SQRT2}

    def test_inverse_composition(self):
        rng = random.Random(13)
        for _ in range(100):
            sv = random_state(rng)
            fwd = sv.apply_ket_map(bs_ket_map(sv.backend, MINUS))
            # conjugate-transpose convention: swap the i signs
            inv = _apply_bs_dagger(fwd, MINUS, (c, d), (u, v))
            assert inv.amps == sv.amps

    def test_mode_aliasing_rejected(self):
        sv = StateVector({ket(u, c): ONE})
        with pytest.raises(ModeAliasingError):
            sv.apply_ket_map(bs_ket_map(EXACT, MINUS))


def _apply_bs_dagger(sv, arm, in_pair, out_pair):
    """Inverse beam splitter: transmission 1/sqrt2, reflection -i/sqrt2."""
    from hardysim.state import BasisKet

    one = sv.backend.one
    s = sv.backend.inv_sqrt2
    mi_s = -sv.backend.i * s

    def arm_label(k):
        return k.plus if arm == PLUS else k.minus

    def with_label(k, lbl):
        return (BasisKet(lbl, k.minus) if arm == PLUS
                else BasisKet(k.plus, lbl))

    def ket_map(k):
        if k.is_absorbed:
            return [(k, one)]
        lbl = arm_label(k)
        if lbl == in_pair[0]:
            return [(with_label(k, out_pair[0]), s),
                    (with_label(k, out_pair[1]), mi_s)]
        if lbl == in_pair[1]:
            return [(with_label(k, out_pair[0]), mi_s),
                    (with_label(k, out_pair[1]), s)]
        return [(k, one)]

    return sv.apply_ket_map(ket_map)


def relabel(sv, arm):
    return sv.apply_ket_map(relabel_ket_map(sv.backend, arm))


class TestRelabel:
    def test_removed_bs_maps_eq6_to_eq8(self):
        sv = eq6_state()
        out = relabel(relabel(sv, PLUS), MINUS)
        assert out.amps == {ket(d, d): ONE, ket(d, c): I, ket(c, d): I}

    def test_identity_map(self):
        # the source and the photon branch hold no u or v to relabel
        sv = StateVector({ket(S, S): ONE, ABSORBED: I})
        assert relabel(relabel(sv, PLUS), MINUS).amps == sv.amps

    def test_norm_invariant(self):
        sv = eq3_state()
        assert relabel(sv, MINUS).norm_sq() == sv.norm_sq()

    def test_merging_a_live_label_rejected(self):
        # u -> c or v -> d while c or d stays live would add two amplitudes
        for arm, live in ((PLUS, ket(c, u)), (MINUS, ket(v, d))):
            with pytest.raises(ModeAliasingError):
                relabel(StateVector({live: ONE, ket(u, v): ONE}), arm)


class TestMemoizedKetMaps:
    @pytest.mark.parametrize("build, bad, good, image", [
        (lambda: bs_ket_map(EXACT, MINUS), ket(u, c),
         ket(u, u), [(ket(u, c), INV_SQRT2), (ket(u, d), I * INV_SQRT2)]),
        (lambda: relabel_ket_map(EXACT, PLUS), ket(d, S),
         ket(u, S), [(ket(c, S), ONE)]),
    ], ids=["bs", "relabel"])
    def test_an_aliasing_ket_raises_on_every_lookup(self, build, bad, good,
                                                    image):
        ket_map = build()
        for _ in range(2):
            with pytest.raises(ModeAliasingError):
                ket_map(bad)
            with pytest.raises(ModeAliasingError):
                build()(bad)
        assert list(ket_map(good)) == image

    @pytest.mark.parametrize("order", [("exact", "float"), ("float", "exact")])
    def test_each_backend_keeps_its_coefficients(self, order):
        for backend in order:
            kind = ExactScalar if backend == "exact" else complex
            for ket_map in (bs_ket_map(backend, PLUS),
                            relabel_ket_map(backend, PLUS)):
                coefficients = [x for _, x in ket_map(ket(u, S))]
                assert coefficients
                assert all(type(x) is kind for x in coefficients)

    def test_a_backend_name_and_its_instance_share_one_map(self):
        assert bs_ket_map("exact", PLUS) is bs_ket_map(EXACT, PLUS)
        assert relabel_ket_map("exact", MINUS) is relabel_ket_map(EXACT, MINUS)
        assert apply_bs1_pair() is apply_bs1_pair("exact") is apply_bs1_pair(EXACT)
        ket_map = bs_ket_map(EXACT, PLUS)
        assert ket_map(ket(v, S)) is ket_map(ket(v, S))

    @pytest.mark.parametrize("backend", [["x"], {}, "symbolic"], ids=repr)
    @pytest.mark.parametrize("build", [
        lambda backend: bs_ket_map(backend, PLUS),
        lambda backend: relabel_ket_map(backend, PLUS),
        apply_bs1_pair,
    ], ids=["bs", "relabel", "bs1-pair"])
    def test_a_bad_backend_is_a_config_error(self, build, backend):
        # resolved before the table lookup, so never a KeyError or TypeError
        with pytest.raises(ConfigError):
            build(backend)

    # An arm other than PLUS or MINUS once acted on the minus arm.
    def test_an_unknown_arm_is_refused_by_bs_ket_map(self):
        with pytest.raises(ConfigError, match="arm 'PLUS'"):
            bs_ket_map(EXACT, "PLUS")

    def test_an_unknown_arm_is_refused_by_relabel(self):
        with pytest.raises(ConfigError, match="arm 'sideways'"):
            relabel_ket_map(EXACT, "sideways")

    def test_an_unhashable_arm_is_a_config_error(self):
        with pytest.raises(ConfigError, match="arm"):
            relabel_ket_map(EXACT, ["x"])

    @pytest.mark.parametrize("kind", [StateVector, DensityMatrix])
    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    @pytest.mark.parametrize("build", [bs1_ket_map, bs_ket_map, relabel_ket_map],
                             ids=["bs1", "bs2", "relabel"])
    def test_a_value_that_is_not_a_ket_raises(self, build, backend, kind):
        # once AttributeError: 'int' object has no attribute 'is_absorbed'
        ket_map = build(backend, PLUS)
        one = amplitude.backend(backend).one
        obj = (StateVector({5: one}) if kind is StateVector
               else DensityMatrix({(5, 5): one}))
        for call in (lambda: ket_map(5), lambda: obj.apply_ket_map(ket_map)):
            with pytest.raises(ConfigError, match="5 is not a BasisKet"):
                call()


# Every element's image of one ket, written out by hand, by the label on
# the element's arm: (out label, coefficient) pairs with "t" = 1/sqrt2
# (transmitted) and "r" = i/sqrt2 (reflected), or None where the element
# refuses the ket. The other arm's label is untouched.
IMAGES = {
    "bs1": {S: [(v, "t"), (u, "r")], u: None, v: None,
            c: [(c, "1")], d: [(d, "1")], ABSORBED: [(ABSORBED, "1")]},
    "bs2": {S: [(S, "1")], u: [(c, "t"), (d, "r")], v: [(c, "r"), (d, "t")],
            c: None, d: None, ABSORBED: [(ABSORBED, "1")]},
    "relabel": {S: [(S, "1")], u: [(c, "1")], v: [(d, "1")],
                c: None, d: None, ABSORBED: [(ABSORBED, "1")]},
}
ELEMENTS = {
    "bs1": bs1_ket_map,
    "bs2": bs_ket_map,
    "relabel": relabel_ket_map,
}
COEFFICIENTS = {"exact": {"1": ONE, "t": INV_SQRT2, "r": I * INV_SQRT2},
                "float": {"1": 1, "t": 0.5 ** 0.5, "r": 1j * 0.5 ** 0.5}}


class TestEveryImage:
    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("arm", [PLUS, MINUS])
    @pytest.mark.parametrize("element, label", [
        (element, label) for element, row in IMAGES.items() for label in row],
        ids=str)
    def test_image(self, element, label, arm, backend):
        ket_map = ELEMENTS[element](backend, arm)
        expected = IMAGES[element][label]
        for other in PathLabel:
            def place(lbl):
                if lbl is ABSORBED:
                    return ABSORBED
                return ket(lbl, other) if arm == PLUS else ket(other, lbl)

            if expected is None:
                with pytest.raises(ModeAliasingError):
                    ket_map(place(label))
                continue
            got = list(ket_map(place(label)))
            assert [k for k, _ in got] == [place(out) for out, _ in expected]
            want = [COEFFICIENTS[backend][x] for _, x in expected]
            assert [x for _, x in got] == (
                want if backend == "exact" else pytest.approx(want))


class TestApplyBs1Pair:
    def test_norm_is_one(self):
        assert apply_bs1_pair().norm_sq() == 1

    def test_uu_probability(self):
        out = apply_bs1_pair()
        assert out.probability([ket(u, u)]) == Fraction(1, 4)

    def test_equals_two_independent_bs(self):
        via_pair = apply_bs1_pair()
        via_steps = StateVector({ket(S, S): ONE})
        for arm in (PLUS, MINUS):
            via_steps = via_steps.apply_ket_map(bs1_ket_map(EXACT, arm))
        assert via_pair.amps == via_steps.amps
