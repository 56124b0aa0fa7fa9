"""Knowledge projection and the annihilation channel."""

import random
from fractions import Fraction

import pytest

from hardysim import amplitude as amp
from hardysim.amplitude import EXACT, FLOAT, INV_SQRT2, ExactScalar, ONE
from hardysim.errors import (AnnihilatedError, ConfigError, EmptyStateError,
                             SimulationError, UnrepresentableError)
from hardysim.measurement import (DOOMED, AnnihilationChannel,
                                  annihilation_channel, apply_channel,
                                  project_knowledge)
from hardysim.optics import apply_bs1_pair
from hardysim.state import (ABSORBED, BasisKet, DensityMatrix, StateVector,
                            pure_to_density)
from helpers import (EXACT_SWEEP_PS, UnreadableReal, density_times,
                     diagonal_kets, eq3_state, eq6_state, ket,
                     no_photon_entries, random_hermitian, u, v)

PARTICLE_KETS = [ket(v, v), ket(v, u), ket(u, v), ket(u, u)]

NOT_REAL = [True, False, "1/2", None, "abc", 0.5 + 0j]


def certain():
    """The channel at p = 1, whose no-photon branch is the projection."""
    return annihilation_channel(Fraction(1))


class TestProjectKnowledge:
    def test_already_inside_kept(self):
        projected, survival = project_knowledge(eq6_state(), certain())
        assert survival == 1
        assert projected.amps == eq6_state().amps

    def test_idempotent(self):
        once, _ = project_knowledge(eq3_state(), certain())
        twice, again = project_knowledge(once, certain())
        assert again == 1
        assert twice.amps == once.amps

    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    def test_an_empty_state_raises(self, backend):
        with pytest.raises(EmptyStateError):
            project_knowledge(StateVector({}, backend),
                              annihilation_channel(Fraction(1, 2), backend))

    def test_certain_annihilation_raises(self):
        sv = StateVector({ket(u, u): ONE})
        with pytest.raises(AnnihilatedError):
            project_knowledge(sv, certain())

    def test_interior_p_damps_the_doomed_ket(self):
        # sqrt(1 - 9/25) = 4/5; the doomed ket carries 1/4, so survival 91/100
        sv = eq3_state()
        kept, survival = project_knowledge(sv, annihilation_channel(Fraction(9, 25)))
        assert survival == Fraction(91, 100)
        four_fifths = ExactScalar(Fraction(4, 5))
        assert kept.amps[DOOMED] == sv.amps[DOOMED] * four_fifths
        for k in (ket(v, v), ket(v, u), ket(u, v)):
            assert kept.amps[k] == sv.amps[k]

    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    def test_p_zero_returns_the_input(self, backend):
        sv = apply_bs1_pair(backend)
        kept, survival = project_knowledge(
            sv, annihilation_channel(Fraction(0), backend))
        assert survival == 1
        assert kept.amps == sv.amps


class TestChannelConstruction:
    def test_p_one_is_the_projector(self):
        ch = annihilation_channel(Fraction(1))
        pass_map = ch.pass_map()
        for k in PARTICLE_KETS:
            image = pass_map(k)
            if k == DOOMED:
                assert image == [(k, ExactScalar())]
            else:
                assert image == [(k, ONE)]
        assert ch.absorb_map()(DOOMED) == [(ABSORBED, ONE)]

    def test_p_zero_is_identity(self):
        ch = annihilation_channel(Fraction(0))
        assert ch.pass_map()(DOOMED) == [(DOOMED, ONE)]
        assert ch.absorb_map()(DOOMED) == [(ABSORBED, ExactScalar())]

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 2), Fraction(1)])
    def test_kraus_completeness(self, p):
        # each element sends the doomed ket to one ket and is the identity
        # or zero elsewhere, so K_pass^dag K_pass + K_abs^dag K_abs = 1
        # comes down to |sqrt(1-p)|^2 + |sqrt(p)|^2 = 1
        ch = annihilation_channel(p)
        pass_map, absorb_map = ch.pass_map(), ch.absorb_map()
        keep = ch.sqrt_1mp
        [(sink, absorb)] = absorb_map(DOOMED)
        assert keep * keep.conjugate() + absorb * absorb.conjugate() == ONE
        assert pass_map(DOOMED) == [(DOOMED, keep)]
        assert sink == ABSORBED
        for k in PARTICLE_KETS:
            if k != DOOMED:
                assert pass_map(k) == [(k, ONE)]
                assert absorb_map(k) == []

    def test_p_out_of_range(self):
        # huge terms too: str() of an int past 4300 digits raises ValueError
        for bad in (Fraction(-1, 2), Fraction(3, 2), 10**5000,
                    Fraction(-1, 10**5000), float("nan"), float("inf")):
            with pytest.raises(SimulationError) as info:
                annihilation_channel(bad)
            assert len(str(info.value)) < 200

    @pytest.mark.parametrize("bad", NOT_REAL)
    def test_p_not_a_real_number(self, bad):
        # Fraction() would read a bool as 0 or 1 and text as a rational
        with pytest.raises(ConfigError, match="not a real number") as info:
            annihilation_channel(bad)
        assert len(str(info.value)) < 200

    def test_p_real_but_unreadable(self):
        with pytest.raises(ConfigError, match="cannot be read") as info:
            annihilation_channel(UnreadableReal())
        assert len(str(info.value)) < 200

    def test_only_a_finite_p_is_out_of_range(self):
        # Fraction() runs before the range test: NaN and +-inf cannot be read
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match="cannot be read"):
                annihilation_channel(bad)
        for bad in (Fraction(3, 2), -1, 1.5, 10**5000):
            with pytest.raises(SimulationError, match="outside") as info:
                annihilation_channel(bad)
            assert not isinstance(info.value, ConfigError)

    def test_float_p_is_held_as_a_fraction(self):
        assert annihilation_channel is AnnihilationChannel
        ch = annihilation_channel(0.5)
        assert type(ch.p) is Fraction and ch.p == Fraction(1, 2)
        assert ch.absorb_map()(DOOMED) == [(ABSORBED, INV_SQRT2)]

    def test_exact_backend_rejects_irrational_sqrt(self):
        with pytest.raises(UnrepresentableError):
            annihilation_channel(Fraction(1, 3))
        with pytest.raises(UnrepresentableError):
            annihilation_channel(Fraction(1, 4))  # sqrt(3/4) not in the field
        # sqrt(1 - 10^-5000) is irrational too; its radicand is not quoted
        with pytest.raises(UnrepresentableError) as info:
            annihilation_channel(Fraction(1, 10**5000))
        assert len(str(info.value)) < 200
        # only sqrt(1-p) = 1/2 is needed to build the channel; sqrt(3/4) is
        # formed only for the absorb element
        ch = annihilation_channel(Fraction(3, 4))
        assert ch.sqrt_1mp == ExactScalar(Fraction(1, 2))
        with pytest.raises(UnrepresentableError, match=r"sqrt\(3/4\)"):
            ch.absorb_map()

    def test_float_backend_takes_any_p(self):
        ch = annihilation_channel(Fraction(1, 3), FLOAT)
        [(_, sqrt_p)] = ch.absorb_map()(DOOMED)
        assert abs(sqrt_p * sqrt_p - (1 / 3)) < 1e-12


class TestApplyChannel:
    def test_p_zero_leaves_rho_unchanged(self):
        rho = pure_to_density(eq3_state())
        out = apply_channel(rho, annihilation_channel(Fraction(0)))
        assert out.entries == rho.entries

    def test_survival_is_one_minus_p_over_four(self):
        # the doomed ket carries weight 1/4, so survival = 1 - p/4
        # 9/25 works exactly: sqrt(9/25) = 3/5 and sqrt(16/25) = 4/5
        for p in (Fraction(0), Fraction(9, 25), Fraction(1, 2), Fraction(1)):
            rho = pure_to_density(eq3_state())
            out = apply_channel(rho, annihilation_channel(p))
            assert out.diagonal_probability([ABSORBED]) == p / 4

    def test_existing_photon_entry_is_kept(self):
        # half the weight already in the sink; the channel at p = 1/2 adds
        # p * rho(DOOMED, DOOMED) = 1/2 * 1/8 to it
        half = Fraction(1, 2)
        rho = DensityMatrix({**density_times(eq3_state(), half),
                             (ABSORBED, ABSORBED): ExactScalar(half)})
        out = apply_channel(rho, annihilation_channel(half))
        assert out.entries[(ABSORBED, ABSORBED)] == ExactScalar(Fraction(9, 16))
        assert out.diagonal_probability(diagonal_kets(out)) == 1


def dense_channel(rho, p, backend):
    """K_pass rho K_pass^dagger + K_abs rho K_abs^dagger, entry by entry: a
    sum over every (a, b) of K(a2, a) rho(a, b) K(b2, b)* for both Kraus
    elements, written out as matrices over the kets rho holds plus the sink."""
    arith = amp.backend(backend)
    zero, one = arith.zero, arith.one
    s, r = arith.sqrt(1 - p), arith.sqrt(p)

    def k_pass(a2, a):
        return zero if a2 != a else s if a == DOOMED else one

    def k_abs(a2, a):
        return r if (a2, a) == (ABSORBED, DOOMED) else zero

    basis = sorted({k for pair in rho.entries for k in pair} | {ABSORBED},
                   key=BasisKet.sort_key)
    out = {}
    for a2 in basis:
        for b2 in basis:
            total = zero
            for kraus in (k_pass, k_abs):
                for a in basis:
                    for b in basis:
                        total = total + (kraus(a2, a)
                                         * rho.entries.get((a, b), zero)
                                         * kraus(b2, b).conjugate())
            if total != 0:
                out[(a2, b2)] = total
    return out


class TestApplyChannelOracle:
    """apply_channel against the dense two-Kraus sum, on seeded random
    Hermitian matrices over {u, v} per arm plus the photon sink, each with a
    nonzero doomed diagonal entry so that the sink term always shows: exact
    at the benchmark's exact p, float at those and at eight seeded p."""

    BASIS = [ket(a, b) for a in (u, v) for b in (u, v)] + [ABSORBED]
    FLOAT_PS = [k / 1000 for k in random.Random(21).sample(range(1, 1000), 8)]

    @pytest.mark.parametrize("backend, p",
                             [(EXACT, p) for p in EXACT_SWEEP_PS]
                             + [(FLOAT, p) for p in EXACT_SWEEP_PS + FLOAT_PS])
    def test_matches_the_dense_oracle(self, backend, p):
        entries = random_hermitian(random.Random(f"{backend}:{p}"),
                                   self.BASIS).entries
        entries.setdefault((DOOMED, DOOMED), ExactScalar(Fraction(1, 3)))
        if backend == FLOAT:
            entries = {key: val.to_complex() for key, val in entries.items()}
        rho = DensityMatrix(entries, backend)
        got = apply_channel(rho, annihilation_channel(p, backend)).entries
        want = dense_channel(rho, Fraction(p), backend)
        if backend == EXACT:
            assert got == want
        else:
            assert got.keys() == want.keys()
            for key, val in want.items():
                assert abs(got[key] - val) <= 1e-12


def all_entries_channel(rho, ch):
    """apply_channel in its all-entries form: every entry (a, b) scaled by
    s(a) conj(s(b)), each ket's s read off pass_map, and p rho(DOOMED,
    DOOMED) added to the sink."""
    pass_map = ch.pass_map()
    ket_side, bra_side = {}, {}
    for k in {k for pair in rho.entries for k in pair}:
        [(_, s)] = pass_map(k)
        ket_side[k], bra_side[k] = s, s.conjugate()
    entries = {(a, b): (val * ket_side[a]) * bra_side[b]
               for (a, b), val in rho.entries.items()}
    doomed = rho.entries.get((DOOMED, DOOMED))
    if doomed is not None:
        term = doomed * type(doomed)(ch.p)
        cur = entries.get((ABSORBED, ABSORBED))
        entries[(ABSORBED, ABSORBED)] = term if cur is None else cur + term
    return DensityMatrix(entries, rho.backend)


class TestApplyChannelAgainstAllEntries:
    """apply_channel, which changes only the doomed row and column, against
    its all-entries form: on the source density matrix at exact_sweep's p
    and at eight seeded float p, and on TestApplyChannelOracle's random
    matrices, which hold a sink entry. Values are equal (exact ones bit for
    bit) and in the same order."""

    FLOAT_PS = [k / 1000 for k in random.Random(28).sample(range(1, 1000), 8)]

    @pytest.mark.parametrize("backend, ps", [(EXACT, EXACT_SWEEP_PS),
                                             (FLOAT, FLOAT_PS)],
                             ids=["exact", "float"])
    def test_equals_the_all_entries_form(self, backend, ps):
        source = pure_to_density(apply_bs1_pair(backend))
        for p in ps:
            entries = random_hermitian(random.Random(f"{backend}:{p}"),
                                       TestApplyChannelOracle.BASIS).entries
            entries.setdefault((DOOMED, DOOMED), ExactScalar(Fraction(1, 3)))
            if backend == FLOAT:
                entries = {key: val.to_complex()
                           for key, val in entries.items()}
            ch = annihilation_channel(p, backend)
            for rho in (source, DensityMatrix(entries, backend)):
                got = apply_channel(rho, ch).entries
                assert list(got.items()) == list(
                    all_entries_channel(rho, ch).entries.items())


class TestConditioning:
    """Post-selecting on no photon, through the channel's output."""

    def test_no_gamma_component(self):
        # no doomed ket, so no photon: the channel leaves rho as it is
        rho = pure_to_density(eq6_state())
        out = apply_channel(rho, certain())
        assert out.entries == no_photon_entries(out) == rho.entries

    def test_pure_gamma_raises(self):
        # only the doomed ket: the photon is certain and nothing survives
        sv = StateVector({DOOMED: ONE})
        out = apply_channel(pure_to_density(sv), certain())
        assert out.entries == {(ABSORBED, ABSORBED): ONE}
        with pytest.raises(AnnihilatedError):
            project_knowledge(sv, certain())
