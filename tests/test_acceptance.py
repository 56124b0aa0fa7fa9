"""Acceptance suite: one test per exit criterion, with a pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import functools
import random
from fractions import Fraction

from hypothesis import given, settings

from hardysim.amplitude import EXACT, FLOAT, ExactScalar, I, ONE, ZERO
from hardysim.bosonic import hom_coincidence_probability, splitter_output
from hardysim.hardy import ScenarioConfig, full_table, run_scenario
from hardysim.lhv import ConstraintSet, audit, quantum_constraints
from hardysim.measurement import (annihilation_channel, apply_channel,
                                  project_knowledge)
from hardysim.optics import MINUS, PLUS, apply_bs, apply_bs1_pair
from hardysim.state import ABSORBED, DensityMatrix, pure_to_density
from helpers import (c, d, density_times, diagonal_kets, eq6_state, inner,
                     ket, no_photon_entries, random_state, scalars, scaled, u,
                     v)


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} FAIL: {description}")
                raise
            print(f"criterion {number} PASS: {description}")
        return wrapper
    return deco


@criterion(1, "input through both first beam splitters, exact amplitudes")
def test_criterion_1():
    out = apply_bs1_pair()
    half = ExactScalar(Fraction(1, 2))
    assert out.amps == {
        ket(v, v): half,
        ket(v, u): I * half,
        ket(u, v): I * half,
        ket(u, u): -half,
    }


@criterion(2, "knowledge projection: relative amplitudes {1,i,i}, survival 3/4")
def test_criterion_2():
    sv = apply_bs1_pair()
    projected, survival = project_knowledge(sv, annihilation_channel(Fraction(1)))
    assert survival == Fraction(3, 4)
    # eq3's amplitudes on eq6's kets, {1, i, i}/2: the projection rescales
    # nothing, so every exact amplitude is fixed
    assert projected.amps == scaled(eq6_state(), ONE / 2).amps
    assert projected.probability([ket(u, u)]) == 0


@criterion(3, "both BS2 removed: support {dd,cd,dc}, amplitudes {1,i,i}, P(cc)=0")
def test_criterion_3():
    final, table = run_scenario(ScenarioConfig(False, False))
    assert set(final.amps) == {ket(d, d), ket(c, d), ket(d, c)}
    base = final.amps[ket(d, d)]
    assert final.amps[ket(c, d)] == I * base
    assert final.amps[ket(d, c)] == I * base
    assert table.conditioned().prob("c", "c") == 0


@criterion(4, "Hardy chain: three exact zeros, 1/12, 1/16 and gamma 1/4")
def test_criterion_4():
    tables = full_table()
    assert tables["OO"].prob("c", "c") == 0
    assert tables["IO"].prob("d", "d") == 0
    assert tables["OI"].prob("d", "d") == 0
    assert tables["II"].prob("d", "d") == Fraction(1, 12)
    _, uncond = run_scenario(ScenarioConfig(True, True))
    assert uncond.prob("d", "d") == Fraction(1, 16)
    assert uncond.gamma_prob == Fraction(1, 4)
    # float backend, same chain to 1e-12
    tables_f = full_table(backend=FLOAT)
    assert abs(tables_f["OO"].prob("c", "c")) <= 1e-12
    assert abs(tables_f["IO"].prob("d", "d")) <= 1e-12
    assert abs(tables_f["OI"].prob("d", "d")) <= 1e-12
    assert abs(tables_f["II"].prob("d", "d") - 1 / 12) <= 1e-12
    _, uncond_f = run_scenario(ScenarioConfig(True, True, backend=FLOAT))
    assert abs(uncond_f.prob("d", "d") - 1 / 16) <= 1e-12
    assert abs(uncond_f.gamma_prob - 1 / 4) <= 1e-12


@criterion(5, "channel consistency: p=1 factorization, p=0 limit, traces, mixing")
def test_criterion_5():
    sv = apply_bs1_pair()
    rho = pure_to_density(sv)
    # p=1: density path equals pure path, exact density equality, and the
    # no-photon block is eq6's density weighted by survival 3/4
    out = apply_channel(rho, annihilation_channel(Fraction(1)))
    projected, survival = project_knowledge(sv, annihilation_channel(Fraction(1)))
    assert survival == Fraction(3, 4)
    particles = [k for k in diagonal_kets(out) if not k.is_absorbed]
    assert out.diagonal_probability(particles) == survival
    assert no_photon_entries(out) == density_times(projected, survival)
    assert no_photon_entries(out) == density_times(eq6_state(), survival)
    assert out.entries[(ABSORBED, ABSORBED)] == ExactScalar(Fraction(1, 4))
    # p=0 with both BS2 in: certain double detection at c, no photon
    _, baseline = run_scenario(ScenarioConfig(True, True, Fraction(0)))
    assert baseline.prob("c", "c") == 1
    assert baseline.gamma_prob == 0
    # trace preservation
    for p in (Fraction(0), Fraction(1, 2), Fraction(1)):
        out_p = apply_channel(rho, annihilation_channel(p))
        assert out_p.diagonal_probability(diagonal_kets(out_p)) == 1
    sv_f = apply_bs1_pair(FLOAT)
    out_f = apply_channel(pure_to_density(sv_f),
                          annihilation_channel(Fraction(1, 4), FLOAT))
    assert abs(out_f.diagonal_probability(diagonal_kets(out_f)) - 1.0) <= 1e-12
    # p=1/2 mixes: full state and particle block both lose purity
    out_half = apply_channel(rho, annihilation_channel(Fraction(1, 2)))
    assert out_half.purity() < 1
    block = DensityMatrix(no_photon_entries(out_half))
    assert block.diagonal_probability(diagonal_kets(block)) == Fraction(7, 8)
    assert block.purity() == Fraction(49, 64)


@criterion(6, "LHV audit: contradiction, and removing any zero flips it")
def test_criterion_6():
    cs = quantum_constraints(full_table())
    verdict = audit(cs)
    assert verdict.contradiction
    assert len(verdict.surviving_strategies) + len(verdict.eliminations) == 16
    for i in range(len(cs.zero_events)):
        reduced = cs.zero_events[:i] + cs.zero_events[i + 1:]
        assert not audit(ConstraintSet(reduced, cs.positive_event)).contradiction


@criterion(7, "HOM: coincidence exactly 0; |u,v> + |v,u> leaves as i(|c,c> + |d,d>)")
def test_criterion_7():
    prob = hom_coincidence_probability()
    assert prob == 0 and type(prob) is Fraction
    # squared norm 2 in and out
    out = splitter_output([ket(u, v), ket(v, u)])
    assert out.amps == {ket(c, c): I, ket(d, d): I}
    assert out.norm_sq() == 2


@criterion(8, "backend agreement on every probability to 1e-12")
def test_criterion_8():
    for p in (Fraction(0), Fraction(1, 2), Fraction(1)):
        for bs2_plus in (False, True):
            for bs2_minus in (False, True):
                _, te = run_scenario(ScenarioConfig(bs2_plus, bs2_minus, p))
                _, tf = run_scenario(
                    ScenarioConfig(bs2_plus, bs2_minus, p, FLOAT))
                for key in te.rows:
                    assert abs(float(te.rows[key]) - tf.rows[key]) <= 1e-12
                assert abs(float(te.gamma_prob) - tf.gamma_prob) <= 1e-12
    prob = hom_coincidence_probability(FLOAT)
    assert type(prob) is float
    assert abs(float(hom_coincidence_probability()) - prob) <= 1e-12


@criterion(9, "property suites: unitarity, table normalization")
def test_criterion_9():
    # unitarity: inner products and norms preserved on 1000 random state
    # pairs through the second splitter of each arm
    for arm, seed in ((PLUS, 11), (MINUS, 101)):
        rng = random.Random(seed)
        for _ in range(1000):
            a = random_state(rng)
            b = random_state(rng)
            a2 = apply_bs(a, arm)
            b2 = apply_bs(b, arm)
            assert inner(a2, b2) == inner(a, b)
            assert a2.norm_sq() == a.norm_sq()
    # table normalization across the p grid and all four layouts
    grid = [(Fraction(0), EXACT), (Fraction(1, 4), FLOAT),
            (Fraction(1, 2), EXACT), (Fraction(1), EXACT)]
    for p, backend in grid:
        for bs2_plus in (False, True):
            for bs2_minus in (False, True):
                _, table = run_scenario(
                    ScenarioConfig(bs2_plus, bs2_minus, p, backend))
                total = sum(table.rows.values()) + table.gamma_prob
                cond_total = sum(table.conditioned().rows.values())
                if backend == EXACT:
                    assert total == 1 and cond_total == 1
                else:
                    assert abs(total - 1.0) <= 1e-12
                    assert abs(cond_total - 1.0) <= 1e-12


@criterion(9, "property suites: field axioms on 1000 random scalar triples")
@settings(max_examples=1000, deadline=None)
@given(scalars, scalars, scalars)
def test_criterion_9_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    if x != ZERO:
        assert x * x.inverse() == ONE
