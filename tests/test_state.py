"""State vectors, density matrices and probability extraction."""

import random
from fractions import Fraction

import pytest

from hardysim import amplitude as amp
from hardysim.amplitude import EXACT, FLOAT, ExactScalar, I, ONE, real_part
from hardysim.errors import (ConfigError, EmptyStateError, ModeAliasingError,
                             SimulationError, echo)
from hardysim.measurement import (annihilation_channel, apply_channel,
                                  project_knowledge)
from hardysim.optics import (MINUS, PLUS, apply_bs1_pair, bs_ket_map,
                             relabel_ket_map)
from hardysim.state import (ABSORBED, BasisKet, DensityMatrix, PathLabel,
                            StateVector, pure_to_density)
from helpers import (EXACT_SWEEP_PS, S, c, d, diagonal_kets, eq3_state,
                     eq6_state, ket, random_hermitian, random_state, u, v)

ALL_KETS = [ket(a, b) for a in PathLabel for b in PathLabel] + [ABSORBED]


@pytest.mark.parametrize("name", ["symbolic", "EXACT"])
def test_unknown_backend_raises(name):
    with pytest.raises(SimulationError):
        apply_bs1_pair(name)


def build(kind, held):
    """A StateVector or DensityMatrix holding these values, in order, on
    distinct kets (on the diagonal, for a matrix)."""
    kets = [ket(a, b) for a in (u, v) for b in (u, v)]
    if kind is StateVector:
        return StateVector(dict(zip(kets, held)))
    return DensityMatrix({(k, k): x for k, x in zip(kets, held)})


@pytest.mark.parametrize("kind", [StateVector, DensityMatrix])
class TestBackendFromValues:
    """A state or matrix takes its backend from its first value, before
    pruning: EXACT for an ExactScalar or an empty map, FLOAT for any other
    number. A map that mixes ExactScalar with other values raises
    ConfigError, with either kind first."""

    @pytest.mark.parametrize("held, backend, live", [
        ([], EXACT, 0),
        ([ExactScalar()], EXACT, 0),
        ([ONE, I], EXACT, 2),
        ([0j], FLOAT, 0),
        ([0.5, 0j, complex(0.5)], FLOAT, 2),
        ([Fraction(1, 2), 1], FLOAT, 2),
    ])
    def test_the_first_value_fixes_the_backend(self, kind, held, backend,
                                               live):
        obj = build(kind, held)
        assert obj.backend is backend
        assert len(values(obj)) == live

    @pytest.mark.parametrize("other", [complex(0.5), 0j, 0.5, Fraction(1, 2)])
    @pytest.mark.parametrize("exact", [ONE, ExactScalar()])
    def test_a_mixed_map_raises(self, kind, exact, other):
        for mixed in ([exact, other], [other, exact], [ONE, I, other]):
            with pytest.raises(ConfigError, match="ExactScalar mixed"):
                build(kind, mixed)

    @pytest.mark.parametrize("backend, other", [(EXACT, FLOAT), (FLOAT, EXACT)])
    def test_a_ket_map_of_the_other_backend_raises(self, kind, backend, other):
        # an exact state with a float map, and a float state with an exact
        # one, once ended in TypeError from the first product
        sv = apply_bs1_pair(backend)
        obj = sv if kind is StateVector else pure_to_density(sv)
        for arm in (PLUS, MINUS):
            for maker in (bs_ket_map, relabel_ket_map):
                assert obj.apply_ket_map(maker(backend, arm)).backend is backend
                with pytest.raises(ConfigError, match="unfit") as info:
                    obj.apply_ket_map(maker(other, arm))
                assert "unsupported operand" in str(info.value)


class TestBasisKet:
    def test_ordering(self):
        assert PathLabel.S < PathLabel.u < PathLabel.v < PathLabel.c < PathLabel.d

    def test_absorbed_sorts_last(self):
        kets = [ABSORBED, ket(d, d), ket(S, S)]
        ordered = sorted(kets, key=BasisKet.sort_key)
        assert ordered == [ket(S, S), ket(d, d), ABSORBED]

    def test_hash_is_the_tuple_hash(self):
        # the hash the frozen-dataclass form had; set iteration order rests on it
        assert hash(ket(u, v)) == hash((u, v))
        assert hash(ABSORBED) == hash((None, None))

    @pytest.mark.parametrize("field", ["plus", "minus"])
    def test_fields_cannot_be_set(self, field):
        with pytest.raises(AttributeError):
            setattr(ket(u, v), field, c)


class TestProbability:
    def test_eq6_has_no_uu(self):
        assert eq6_state().probability([ket(u, u)]) == 0
        assert ket(u, u) not in eq6_state().amps

    def test_total_is_one(self):
        sv = eq3_state()
        assert sv.probability(sv.amps) == 1

    def test_empty_state_raises(self):
        # a zero value is pruned away, leaving an empty state of its backend
        for backend in (EXACT, FLOAT):
            sv = StateVector({ket(u, u): backend.zero})
            rho = DensityMatrix({(ket(u, u), ket(u, u)): backend.zero})
            assert sv.backend is rho.backend is backend
            for event in ([], [ket(u, u)], ALL_KETS):
                with pytest.raises(EmptyStateError):
                    sv.probability(event)
                with pytest.raises(EmptyStateError):
                    rho.diagonal_probability(event)
            with pytest.raises(EmptyStateError):
                pure_to_density(sv)

    def test_underflowed_float_norm_raises(self):
        # |1e-170|^2 underflows to 0.0 although the amplitude is nonzero
        sv = StateVector({ket(u, u): complex(1e-170)})
        assert not sv.is_zero()
        with pytest.raises(EmptyStateError):
            sv.probability(sv.amps)

    def test_partition_sums_to_one(self):
        rng = random.Random(7)
        for _ in range(50):
            sv = random_state(rng)
            # partition by the plus-arm label; sum of exact kept-norms must
            # equal the total norm regardless of sqrt2 content
            total = ExactScalar()
            for label in (u, v):
                kept = ExactScalar()
                for k, a in sv.amps.items():
                    if k.plus == label:
                        kept = kept + a * a.conjugate()
                total = total + kept
            assert total == sv._norm_sq()


def born_oracle(sv, event):
    """sum over the kets of event that sv holds of |a_k|^2 / |psi|^2, from
    each exact amplitude's rational coefficients: for a = (q0 + q2 sqrt2) +
    i (q1 + q3 sqrt2), |a|^2 = q0^2 + q1^2 + 2 q2^2 + 2 q3^2 +
    2 (q0 q2 + q1 q3) sqrt2. Returns the ratio as (x, y), meaning
    x + y sqrt2, rationalized by the conjugate of the norm."""
    def weight(kets):
        x = y = Fraction(0)
        for k in kets:
            if k in sv.amps:
                a = sv.amps[k]
                x += a.q0 ** 2 + a.q1 ** 2 + 2 * a.q2 ** 2 + 2 * a.q3 ** 2
                y += 2 * (a.q0 * a.q2 + a.q1 * a.q3)
        return x, y

    x, y = weight(event)
    n, m = weight(sv.amps)
    den = n * n - 2 * m * m
    return (x * n - 2 * y * m) / den, (y * n - x * m) / den


def float_oracle(sv, event):
    """The same ratio on complex amplitudes, summed with abs()."""
    total = sum(abs(a) ** 2 for a in sv.amps.values())
    return sum(abs(sv.amps[k]) ** 2 for k in event if k in sv.amps) / total


def as_pair(x):
    """An exact probability, a Fraction or a real ExactScalar, as (x, y)
    meaning x + y sqrt2."""
    if isinstance(x, Fraction):
        return x, Fraction(0)
    assert x.q1 == x.q3 == 0
    return x.q0, x.q2


class TestEventOracle:
    """An event is a collection of distinct kets. StateVector.probability and
    pure_to_density(sv).diagonal_probability against the Born weight summed
    independently, on seeded random states and on both backends."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    def test_matches_the_dense_oracle(self, backend, seed):
        rng = random.Random(f"event:{seed}")
        sv = random_state(rng)
        if backend == FLOAT:
            sv = StateVector({k: a.to_complex() for k, a in sv.amps.items()})
        rho = pure_to_density(sv)
        # the empty event gives 0, the event of all kets 1
        for read in (sv.probability, rho.diagonal_probability):
            assert read([]) == 0
            got = read(ALL_KETS)
            assert got == 1 if backend == EXACT else abs(got - 1) <= 1e-12
        held = list(sv.amps)
        foreign = [k for k in ALL_KETS if k not in sv.amps]
        for size in range(len(held) + 1):
            event = rng.sample(held, size)
            for got in (sv.probability(event),
                        rho.diagonal_probability(event)):
                if backend == EXACT:
                    assert as_pair(got) == born_oracle(sv, event)
                else:
                    assert abs(got - float_oracle(sv, event)) <= 1e-12
            # kets the state does not hold add nothing, bit for bit
            padded = event + rng.sample(foreign, 3)
            assert sv.probability(padded) == sv.probability(event)
            assert (rho.diagonal_probability(padded)
                    == rho.diagonal_probability(event))

    def test_a_predicate_is_not_an_event(self):
        with pytest.raises(TypeError):
            eq3_state().probability(lambda k: True)
        with pytest.raises(TypeError):
            pure_to_density(eq3_state()).diagonal_probability(lambda k: True)


class TestDensity:
    def test_pure_source(self):
        rho = pure_to_density(StateVector({ket(S, S): ONE}))
        assert rho.entries == {(ket(S, S), ket(S, S)): ONE}

    def test_eq6_diagonal_thirds(self):
        rho = pure_to_density(eq6_state())
        third = ExactScalar(Fraction(1, 3))
        for k in eq6_state().amps:
            assert rho.entries[(k, k)] == third
        assert {a for a, _ in rho.entries} == set(eq6_state().amps)

    def test_trace_and_purity_of_pure(self):
        rho = pure_to_density(eq3_state())
        assert rho.diagonal_probability(diagonal_kets(rho)) == 1
        assert rho.purity() == 1

    def test_maximally_mixed_two_kets(self):
        half = ExactScalar(Fraction(1, 2))
        rho = DensityMatrix({(ket(u, u), ket(u, u)): half,
                             (ket(v, v), ket(v, v)): half})
        assert rho.diagonal_probability(diagonal_kets(rho)) == 1
        assert rho.purity() == Fraction(1, 2)

    def test_diagonal_matches_probability(self):
        sv = eq3_state()
        rho = pure_to_density(sv)
        for k in sv.amps:
            assert real_part(rho.entries[(k, k)]) == sv.probability([k])

    def test_zero_pruning(self):
        sv = StateVector({ket(u, u): ONE, ket(v, v): ONE - ONE})
        assert set(sv.amps) == {ket(u, u)}

    def test_float_cancellation_residue_is_pruned(self):
        # a value at most RESIDUE_REL (4 ulp) times the largest is dropped;
        # a genuine small value far above rounding is kept
        sv = StateVector({ket(u, u): complex(0.5), ket(u, v): complex(1e-17),
                          ket(v, u): complex(1e-12)})
        assert set(sv.amps) == {ket(u, u), ket(v, u)}
        rho = DensityMatrix({(ket(u, u), ket(u, u)): complex(0.25),
                             (ket(v, v), ket(v, v)): complex(1e-14),
                             (ket(v, u), ket(v, u)): complex(1e-17)})
        assert set(rho.entries) == {(ket(u, u), ket(u, u)),
                                    (ket(v, v), ket(v, v))}

    def test_float_all_zero_state_is_pruned_empty(self):
        # the cut is 0 when every value is 0; an exact 0j must still go
        sv = StateVector({ket(u, u): 0j})
        assert sv.is_zero() and sv.backend is FLOAT


def dense_conjugation(rho, ket_map, basis):
    """U rho U^dagger, entry by entry: sum over a, b of <a2|U|a> rho(a, b)
    <b2|U|b>*, with U read column by column off ket_map over basis."""
    columns = {}
    for a in basis:
        column = columns[a] = {}
        for a2, x in ket_map(a):
            column[a2] = column.get(a2, amp.ZERO) + x
    images = sorted({a2 for column in columns.values() for a2 in column},
                    key=BasisKet.sort_key)
    out = {}
    for a2 in images:
        for b2 in images:
            total = amp.ZERO
            for a in basis:
                for b in basis:
                    total = total + (columns[a].get(a2, amp.ZERO)
                                     * rho.entries.get((a, b), amp.ZERO)
                                     * columns[b].get(b2, amp.ZERO).conjugate())
            if total != amp.ZERO:
                out[(a2, b2)] = total
    return out


class TestApplyKetMapOracle:
    """DensityMatrix.apply_ket_map against a dense sum over U's matrix
    elements, on seeded random exact Hermitian matrices over the kets that
    reach the second splitters, {u, v} per arm, plus the photon sink."""

    BASIS = [ket(a, b) for a in (u, v) for b in (u, v)] + [ABSORBED]
    MAPS = {
        "bs2-plus": bs_ket_map(EXACT, PLUS),
        "bs2-minus": bs_ket_map(EXACT, MINUS),
        "relabel-plus": relabel_ket_map(EXACT, PLUS),
        "relabel-minus": relabel_ket_map(EXACT, MINUS),
        "pass-half": annihilation_channel(Fraction(1, 2)).pass_map(),
    }

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_matches_the_dense_oracle(self, name, seed):
        rho = random_hermitian(random.Random(f"{name}:{seed}"), self.BASIS)
        ket_map = self.MAPS[name]
        assert (rho.apply_ket_map(ket_map).entries
                == dense_conjugation(rho, ket_map, self.BASIS))

    @pytest.mark.parametrize("name", [n for n in MAPS if n != "pass-half"])
    def test_an_aliasing_ket_still_raises(self, name):
        # a live detector label on the element's own arm, as a ket of a
        # diagonal entry and as the bra alone of an off-diagonal one
        bad = ket(c, u) if name.endswith("plus") else ket(u, c)
        good = ket(u, u)
        for entries in ({(good, good): ONE, (bad, bad): ONE},
                        {(good, bad): ONE}):
            rho = DensityMatrix(entries)
            with pytest.raises(ModeAliasingError):
                rho.apply_ket_map(self.MAPS[name])


def second_stage_inputs(backend, ps):
    """What the second splitters meet in run_scenario at each p, and more:
    the channel's output (its no-photon branch at p = 0 and 1), and that
    output after one element, splitter or relabeling, on either arm."""
    states = []
    for p in ps:
        ch = annihilation_channel(p)
        sv = apply_bs1_pair(backend)
        after = (project_knowledge(sv, ch)[0] if p in (0, 1)
                 else apply_channel(pure_to_density(sv), ch))
        states.append(after)
        for arm in (PLUS, MINUS):
            for ket_map in (bs_ket_map(backend, arm),
                            relabel_ket_map(backend, arm)):
                states.append(after.apply_ket_map(ket_map))
    return states


def values(obj):
    """A state's amplitudes or a matrix's entries, as (key, value) pairs in
    order."""
    held = obj.amps if isinstance(obj, StateVector) else obj.entries
    return list(held.items())


class TestRename:
    """rename against the general path, apply_ket_map of the same
    relabeling, on what the second splitters meet at exact_sweep's p and at
    p = 0, 1 and eight seeded p on the float backend: equal values (exact
    ones bit for bit) in the same order, and the same squared norm; or
    ModeAliasingError from both. A map that is not a relabeling raises
    ConfigError naming the ket."""

    FLOAT_PS = [0.0, 1.0] + [k / 1000 for k in
                             random.Random(28).sample(range(1, 1000), 8)]

    @pytest.mark.parametrize("arm", [PLUS, MINUS])
    @pytest.mark.parametrize("backend, ps", [(EXACT, EXACT_SWEEP_PS),
                                             (FLOAT, FLOAT_PS)],
                             ids=["exact", "float"])
    def test_rename_equals_the_linear_map(self, backend, ps, arm):
        ket_map = relabel_ket_map(backend, arm)
        renamed = {StateVector: 0, DensityMatrix: 0}
        for obj in second_stage_inputs(backend, ps):
            try:
                want = obj.apply_ket_map(ket_map)
            except ModeAliasingError:
                with pytest.raises(ModeAliasingError):
                    obj.rename(ket_map)
                continue
            got = obj.rename(ket_map)
            assert type(got) is type(obj) and got.backend is obj.backend
            assert values(got) == values(want)
            # each value moves as the same object
            assert all(x is y for (_, x), (_, y)
                       in zip(values(got), values(obj)))
            if isinstance(obj, StateVector):
                assert got._norm is obj._norm  # carried, not summed again
                assert got.norm_sq() == want.norm_sq()
            renamed[type(obj)] += 1
        assert all(renamed.values())

    @pytest.mark.parametrize("kind", [StateVector, DensityMatrix])
    @pytest.mark.parametrize("arm", [PLUS, MINUS])
    def test_a_live_detector_label_on_the_arm_raises(self, kind, arm):
        bad = ket(c, u) if arm == PLUS else ket(u, c)
        good = ket(u, v)
        obj = (StateVector({good: ONE, bad: ONE}) if kind is StateVector
               else DensityMatrix({(good, good): ONE, (good, bad): ONE,
                                   (bad, good): ONE, (bad, bad): ONE}))
        with pytest.raises(ModeAliasingError):
            obj.rename(relabel_ket_map(EXACT, arm))

    @pytest.mark.parametrize("kind", [StateVector, DensityMatrix])
    @pytest.mark.parametrize("images", [2, 0])
    def test_a_map_that_is_not_a_relabeling_raises(self, kind, images):
        # a splitter gives each ket two images; once ValueError from unpacking
        sv = eq3_state()
        obj = sv if kind is StateVector else pure_to_density(sv)
        ket_map = bs_ket_map(EXACT, PLUS) if images else (lambda k: ())
        first = next(iter(sv.amps))
        with pytest.raises(ConfigError, match="not a relabeling") as info:
            obj.rename(ket_map)
        assert echo(first) in str(info.value)


class TestDump:
    def test_canonical_lines(self):
        text = eq6_state().dump()
        assert text.splitlines() == [
            "e+:u e-:v | 1*i",
            "e+:v e-:u | 1*i",
            "e+:v e-:v | 1",
        ]

    def test_gamma_line(self):
        sv = StateVector({ABSORBED: I})
        assert sv.dump() == "GAMMA | 1*i"
