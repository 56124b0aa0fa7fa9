"""Every coincidence probability against a closed form derived by hand.

After both first beam splitters and the pass branch of the annihilation
step, the (plus arm, minus arm) state is

    1/2 (vv + i vu + i uv - s uu),    s = sqrt(1 - p),

and the absorbed branch carries the weight p |1/2|^2 = p/4. A second beam
splitter in place sends u -> (c + i d)/sqrt2 and v -> (i c + d)/sqrt2; a
removed one sends u -> c and v -> d. The detector amplitudes are then

    OO: cc = -s/2,                cd = i/2,
        dc = i/2,                 dd = 1/2
    IO: cc = -(1 + s)/(2 sqrt2),  cd = i/sqrt2,
        dc = i (1 - s)/(2 sqrt2), dd = 0
    OI: IO with the arms swapped
    II: cc = -(3 + s)/4,          cd = i (1 - s)/4,
        dc = i (1 - s)/4,         dd = (s - 1)/4

each a phase times a real (a + b s) r, so the unconditional probability of
a cell is w (a + b s)^2 with w = r^2.

The HOM analogue sends photons into ports u and v of one such splitter,
with t = 1/sqrt2 and r = i/sqrt2. They leave through different ports (c, d)
when both are transmitted or both reflected. For the exchange-symmetric
input |u,v> + |v,u> (squared norm 2) those paths add to t^2 + r^2 = 0 in
each coincidence cell, so P = |t^2 + r^2|^2 = 0. Distinguishable particles,
input |u,v>, do not interfere: P = |t|^4 + |r|^4 = 1/2. Bunching sends the
symmetric input to 2tr (|c,c> + |d,d>) = i (|c,c> + |d,d>), normalized
(i/sqrt2)(|c,c> + |d,d>).

Nothing here comes from the package beyond the values it returns.
"""

import math
import random
from fractions import Fraction as F

import pytest

from hardysim.amplitude import FLOAT, ExactScalar
from hardysim.bosonic import (distinguishable_coincidence_probability,
                              hom_coincidence_probability, splitter_output)
from hardysim.hardy import ScenarioConfig, full_table, run_scenario
from hardysim.lhv import audit, quantum_constraints
from hardysim.state import BasisKet, PathLabel

LAYOUTS = {"OO": (False, False), "IO": (True, False), "OI": (False, True),
           "II": (True, True)}

# layout -> (det_plus, det_minus) -> (w, a, b): P = w (a + b s)^2
ORACLE = {
    "OO": {("c", "c"): (F(1, 4), 0, 1), ("c", "d"): (F(1, 4), 1, 0),
           ("d", "c"): (F(1, 4), 1, 0), ("d", "d"): (F(1, 4), 1, 0)},
    "IO": {("c", "c"): (F(1, 8), 1, 1), ("c", "d"): (F(1, 2), 1, 0),
           ("d", "c"): (F(1, 8), 1, -1), ("d", "d"): (F(0), 0, 0)},
    "OI": {("c", "c"): (F(1, 8), 1, 1), ("c", "d"): (F(1, 8), 1, -1),
           ("d", "c"): (F(1, 2), 1, 0), ("d", "d"): (F(0), 0, 0)},
    "II": {("c", "c"): (F(1, 16), 3, 1), ("c", "d"): (F(1, 16), 1, -1),
           ("d", "c"): (F(1, 16), 1, -1), ("d", "d"): (F(1, 16), 1, -1)},
}

# p -> s = sqrt(1 - p) as (x, y), meaning x + y sqrt2: the nine p of the
# benchmark's exact sweep, whose square roots lie in Q(sqrt2), then five p
# whose sqrt(p) does not; only s and the weight p reach a table
EXACT_S = {
    F(0): (F(1), F(0)), F(1): (F(0), F(0)), F(1, 2): (F(0), F(1, 2)),
    F(9, 25): (F(4, 5), F(0)), F(16, 25): (F(3, 5), F(0)),
    F(1, 9): (F(0), F(2, 3)), F(8, 9): (F(1, 3), F(0)),
    F(1, 50): (F(0), F(7, 10)), F(49, 50): (F(0), F(1, 10)),
    F(3, 4): (F(1, 2), F(0)), F(5, 9): (F(2, 3), F(0)),
    F(7, 16): (F(3, 4), F(0)), F(7, 9): (F(0), F(1, 3)),
    F(17, 18): (F(0), F(1, 6)),
}


def mul(x, y):
    """Product in Q(sqrt2) of pairs (a, b) meaning a + b sqrt2."""
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def exact_cell(layout, cell, s):
    w, a, b = ORACLE[layout][cell]
    amp = (a + b * s[0], b * s[1])
    return mul((w, F(0)), mul(amp, amp))


def as_pair(value):
    """A probability the package returned, as (a, b) meaning a + b sqrt2."""
    if isinstance(value, ExactScalar):
        assert value.q1 == 0 and value.q3 == 0
        return (value.q0, value.q2)
    assert isinstance(value, F)
    return (value, F(0))


def test_oracle_tables_sum_to_one():
    for p, s in EXACT_S.items():
        assert mul(s, s) == (1 - p, 0) and s[0] + s[1] * math.sqrt(2) >= 0
        for layout in LAYOUTS:
            total = [p / 4, F(0)]
            for cell in ORACLE[layout]:
                x = exact_cell(layout, cell, s)
                total = [total[0] + x[0], total[1] + x[1]]
            assert total == [1, 0]


@pytest.mark.parametrize("p", sorted(EXACT_S))
def test_exact_backend_matches_closed_form(p):
    s = EXACT_S[p]
    conditional = full_table(p)
    survival = 1 - p / 4
    for layout, (bs2_plus, bs2_minus) in LAYOUTS.items():
        _, table = run_scenario(ScenarioConfig(bs2_plus, bs2_minus, p))
        assert as_pair(table.gamma_prob) == (p / 4, 0)
        for cell in ORACLE[layout]:
            expected = exact_cell(layout, cell, s)
            assert as_pair(table.prob(*cell)) == expected
            assert as_pair(conditional[layout].prob(*cell)) == (
                expected[0] / survival, expected[1] / survival)


def test_float_backend_matches_closed_form():
    rng = random.Random(20121)
    ps = [F(rng.randint(1, 999999), 10**6) for _ in range(12)]
    # at p = 1e-9 the 1.6e-20 and 3.1e-20 cells print 0.0, within the
    # absolute bound (README's float paragraph)
    for p in (ps + [F(1, 10**6), F(1, 10**9), F(999999, 10**6), F(1, 3)]
              + sorted(EXACT_S)):
        s = math.sqrt(1 - float(p))
        for layout, (bs2_plus, bs2_minus) in LAYOUTS.items():
            _, table = run_scenario(
                ScenarioConfig(bs2_plus, bs2_minus, p, FLOAT))
            assert abs(table.gamma_prob - float(p) / 4) <= 1e-12
            for cell, (w, a, b) in ORACLE[layout].items():
                expected = float(w) * (a + b * s) ** 2
                assert abs(table.prob(*cell) - expected) <= 1e-12


@pytest.mark.parametrize("p", [F(1, 10**6), F(3, 10**6)])
def test_float_keeps_small_genuine_cells(p):
    # the (1 - s)^2 cells are 3e-14 and 3e-13 here, far above the rounding
    # of the O(1) sums they come from, so none may be pruned to 0; the
    # density-matrix path computes them to about 1e-3 relative
    s = math.sqrt(1 - float(p))
    for layout, (bs2_plus, bs2_minus) in LAYOUTS.items():
        _, table = run_scenario(ScenarioConfig(bs2_plus, bs2_minus, p, FLOAT))
        for cell, (w, a, b) in ORACLE[layout].items():
            if w and a == -b:
                expected = float(w) * (1 - s) ** 2
                assert abs(table.prob(*cell) - expected) <= 1e-2 * expected


@pytest.mark.parametrize("p, expected", [
    (F(1), F(1, 16)),
    (F(9, 25), F(1, 400)),
    (F(1, 9), ExactScalar(F(17, 144), 0, F(-1, 12), 0)),  # 17/144 - sqrt2/12
])
def test_known_hardy_probabilities(p, expected):
    _, table = run_scenario(ScenarioConfig(True, True, p))
    assert table.prob("d", "d") == expected
    assert table.gamma_prob == p / 4


SETTING = {"O": "out", "I": "in"}


def oracle_zero_events(s):
    """Cells with w (a + b s)^2 = 0, in LAYOUTS order, cells sorted."""
    return [((SETTING[layout[0]], SETTING[layout[1]]), cell)
            for layout in LAYOUTS for cell in sorted(ORACLE[layout])
            if exact_cell(layout, cell, s) == (0, 0)]


@pytest.mark.parametrize("p, n_zeros, n_survivors, contradiction", [
    (F(1), 3, 5, True),
    (F(1, 2), 2, 9, False),
    (F(9, 25), 2, 9, False),
    (F(0), 7, 4, False),
    (F(3, 4), 2, 9, False),
    (F(5, 9), 2, 9, False),
    (F(7, 16), 2, 9, False),
    (F(7, 9), 2, 9, False),
    (F(17, 18), 2, 9, False),
])
def test_contradiction_needs_p_one(p, n_zeros, n_survivors, contradiction):
    # only the exact knowledge projection (p = 1) zeroes OO (c,c) while
    # keeping II (d,d) positive; at p < 1 the zeros left admit a local model
    cs = quantum_constraints(full_table(p))
    assert cs.zero_events == oracle_zero_events(EXACT_S[p])
    assert len(cs.zero_events) == n_zeros
    verdict = audit(cs)
    assert len(verdict.surviving_strategies) == n_survivors
    assert verdict.contradiction is contradiction
    if contradiction:
        assert cs.positive_event == (("in", "in"), ("d", "d"), F(1, 12))
    else:
        assert cs.positive_event is None


SYMMETRIC = [BasisKet(PathLabel.u, PathLabel.v),
             BasisKet(PathLabel.v, PathLabel.u)]


def by_name(sv):
    return {(str(k.plus), str(k.minus)): a for k, a in sv.amps.items()}


def test_hom_exact():
    # t^2 = 1/2, r^2 = -1/2 and |t|^2 = |r|^2 = 1/2, all rational
    t_sq, r_sq, abs_sq = F(1, 2), F(-1, 2), F(1, 2)
    hom = hom_coincidence_probability()
    assert hom == (t_sq + r_sq) ** 2 and type(hom) is F
    dist = distinguishable_coincidence_probability()
    assert dist == abs_sq ** 2 + abs_sq ** 2 == F(1, 2) and type(dist) is F
    out = splitter_output(SYMMETRIC)
    # 2tr = i in both bunched cells; i/sqrt2 each after dividing by sqrt2
    assert out.norm_sq() == 2
    i = ExactScalar(0, 1)
    assert by_name(out) == {("c", "c"): i, ("d", "d"): i}


def test_hom_float():
    t = 1 / math.sqrt(2)
    r = 1j * t
    hom = hom_coincidence_probability(FLOAT)
    assert abs(hom - abs(t * t + r * r) ** 2) <= 1e-12 and type(hom) is float
    dist = distinguishable_coincidence_probability(FLOAT)
    assert abs(dist - (abs(t) ** 4 + abs(r) ** 4)) <= 1e-12
    assert type(dist) is float
    out = splitter_output(SYMMETRIC, FLOAT)
    amps = by_name(out)
    assert set(amps) == {("c", "c"), ("d", "d")}
    norm = math.sqrt(out.norm_sq())
    for a in amps.values():
        assert abs(a / norm - 1j / math.sqrt(2)) <= 1e-12
