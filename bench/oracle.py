"""Closed-form outcome tables for the two-interferometer experiment.

This module imports nothing from hardysim: it is the reference the
benchmark checks the program against.

After both first beam splitters and the "pass" branch of the annihilation
step, the unnormalised two-particle state is

    1/2 (|vv> + i|vu> + i|uv> - s|uu>),    s = sqrt(1 - p),

and the photon branch carries weight p/4. A second beam splitter in place
sends u -> (c + i d)/sqrt2 and v -> (i c + d)/sqrt2; a removed one sends
u -> c and v -> d. Every detector amplitude is therefore
(g0 + g1 s) / (2 sqrt2^k) with Gaussian integers g0, g1 and k second beam
splitters in place, and every cell probability is affine in s:

    P = (|g0|^2 + |g1|^2 (1 - p) + 2 Re(g0 conj g1) s) / (4 * 2^k).

Exact values are elements a + b sqrt2 of Q(sqrt2), held as pairs
(a, b) of Fractions; float values are plain floats.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

LAYOUTS = ("OO", "IO", "OI", "II")  # (BS2+, BS2-): O = removed, I = in place
DETECTORS = ("c", "d")
CELLS = tuple((dp, dm) for dp in DETECTORS for dm in DETECTORS)
FLOAT_TOL = 1e-12

# Gaussian integers as (re, im). Transfer of one arm's path to a detector,
# without the 1/sqrt2 of a beam splitter in place.
_BS2_IN = {"u": {"c": (1, 0), "d": (0, 1)}, "v": {"c": (0, 1), "d": (1, 0)}}
_BS2_OUT = {"u": {"c": (1, 0), "d": (0, 0)}, "v": {"c": (0, 0), "d": (1, 0)}}
# Pass-branch amplitudes, times 2, as (constant part, coefficient of s).
_PASS = {("v", "v"): ((1, 0), (0, 0)), ("v", "u"): ((0, 1), (0, 0)),
         ("u", "v"): ((0, 1), (0, 0)), ("u", "u"): ((0, 0), (-1, 0))}


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def affine_cell(layout: str, dp: str, dm: str):
    """(|g0|^2, |g1|^2, 2 Re(g0 conj g1), k) for one detector cell."""
    t_plus = _BS2_IN if layout[0] == "I" else _BS2_OUT
    t_minus = _BS2_IN if layout[1] == "I" else _BS2_OUT
    g0 = g1 = (0, 0)
    for (x, y), (c0, c1) in _PASS.items():
        t = _gmul(t_plus[x][dp], t_minus[y][dm])
        g0 = _gadd(g0, _gmul(c0, t))
        g1 = _gadd(g1, _gmul(c1, t))
    k = layout.count("I")
    cross = 2 * (g0[0] * g1[0] + g0[1] * g1[1])
    return g0[0] ** 2 + g0[1] ** 2, g1[0] ** 2 + g1[1] ** 2, cross, k


# ---------------------------------------------------------------------------
# Q(sqrt2) as pairs (a, b) meaning a + b*sqrt2.
# ---------------------------------------------------------------------------

def r2(a, b=0):
    return (Fraction(a), Fraction(b))


def r2_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def r2_scale(x, q):
    return (x[0] * q, x[1] * q)


def r2_float(x) -> float:
    return float(x[0]) + float(x[1]) * math.sqrt(2.0)


def _rational_sqrt(q: Fraction):
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_r2(q: Fraction):
    """sqrt(q) in Q(sqrt2) for rational q >= 0, or None if it is not there."""
    q = Fraction(q)
    r = _rational_sqrt(q)
    if r is not None:
        return (r, Fraction(0))
    r = _rational_sqrt(q / 2)
    if r is not None:
        return (Fraction(0), r)
    return None


def table_exact(layout: str, p):
    """Unconditional table: ({cell: (a, b)}, gamma as (a, b))."""
    p = Fraction(p)
    s = sqrt_r2(1 - p)
    if s is None or not 0 <= p <= 1:
        raise ValueError(f"p = {p} has no exact table")
    rows = {}
    for dp, dm in CELLS:
        a0, a1, cross, k = affine_cell(layout, dp, dm)
        denom = 4 * 2 ** k
        const = Fraction(a0) + Fraction(a1) * (1 - p)
        rows[(dp, dm)] = r2_add(r2(const / denom), r2_scale(s, Fraction(cross, denom)))
    return rows, r2(p / 4)


def table_float(layout: str, p: float):
    """Unconditional table as floats: ({cell: float}, gamma)."""
    s = math.sqrt(1.0 - p)
    rows = {}
    for dp, dm in CELLS:
        a0, a1, cross, k = affine_cell(layout, dp, dm)
        rows[(dp, dm)] = (a0 + a1 * (1.0 - p) + cross * s) / (4 * 2 ** k)
    return rows, p / 4.0


def conditioned_exact(rows, gamma):
    """Rows renormalised on 'no photon'; requires a rational 1 - gamma."""
    survival = 1 - gamma[0]
    if gamma[1] or survival == 0:
        raise ValueError("cannot condition")
    return {cell: r2_scale(v, 1 / survival) for cell, v in rows.items()}


# ---------------------------------------------------------------------------
# Local-hidden-variable enumeration and the HOM analogue.
# ---------------------------------------------------------------------------

def hardy_chain():
    """Conditional and unconditional Hardy facts at p = 1, as Fractions."""
    cond = {lay: conditioned_exact(*table_exact(lay, 1)) for lay in LAYOUTS}
    rows_ii, gamma = table_exact("II", 1)
    return {
        "P(c+,c-|out,out)": cond["OO"][("c", "c")][0],
        "P(d+,d-|in,out)": cond["IO"][("d", "d")][0],
        "P(d+,d-|out,in)": cond["OI"][("d", "d")][0],
        "P(d+,d-|in,in) cond": cond["II"][("d", "d")][0],
        "P(d+,d-|in,in) uncond": rows_ii[("d", "d")][0],
        "gamma": gamma[0],
    }


def lhv_enumeration():
    """Fate of each of the 16 deterministic strategies under the p = 1 facts.

    Zero events are every (layout, cell) other than II with conditional
    probability 0; the positive event is (II, (d, d)). Returns
    (list of (strategy, survives), contradiction).
    """
    zero_events = []
    for lay in ("OO", "IO", "OI"):
        cond = conditioned_exact(*table_exact(lay, 1))
        zero_events += [(lay, cell) for cell in CELLS if cond[cell] == r2(0)]
    positive = conditioned_exact(*table_exact("II", 1))[("d", "d")] != r2(0)
    fates = []
    for a_in, a_out, b_in, b_out in itertools.product("cd", repeat=4):
        def outcome(layout):
            a = a_in if layout[0] == "I" else a_out
            b = b_in if layout[1] == "I" else b_out
            return (a, b)
        alive = all(outcome(lay) != cell for lay, cell in zero_events)
        fates.append(((a_in, a_out, b_in, b_out), alive))
    realizable = any(alive and strat[0] == "d" and strat[2] == "d"
                     for strat, alive in fates)
    return fates, positive and not realizable


def hom_probabilities():
    """(coincidence for |1,1> at one 50/50 splitter, same for distinguishable).

    Transmission 1/sqrt2, reflection i/sqrt2: the coincidence amplitude is
    t*t + r*r and distinguishable particles add |t|^4 + |r|^4.
    """
    t_sq = (Fraction(1, 2), Fraction(0))    # t^2 as a Gaussian rational
    r_sq = (Fraction(-1, 2), Fraction(0))   # (i/sqrt2)^2
    amp = (t_sq[0] + r_sq[0], t_sq[1] + r_sq[1])
    coincidence = amp[0] ** 2 + amp[1] ** 2
    distinguishable = Fraction(1, 2) ** 2 + Fraction(1, 2) ** 2
    return coincidence, distinguishable
