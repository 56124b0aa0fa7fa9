"""Beam-splitter unitaries and mode relabeling on one interferometer arm.

Phase convention: transmission keeps the amplitude, reflection picks up i,
so the first input goes to (first_out + i*second_out)/sqrt2 and the second
to (i*first_out + second_out)/sqrt2. A removed second beam splitter is a
pure relabeling of internal paths onto detector ports.
"""

from __future__ import annotations

import functools
from typing import Tuple

from . import amplitude as amp
from .amplitude import EXACT
from .errors import ModeAliasingError
from .state import BasisKet, PathLabel, StateVector

PLUS = "plus"
MINUS = "minus"
_REMOVED_BS2 = {PathLabel.u: PathLabel.c, PathLabel.v: PathLabel.d}


def _arm_label(ket: BasisKet, arm: str) -> PathLabel:
    return ket.plus if arm == PLUS else ket.minus


def _with_arm_label(ket: BasisKet, arm: str, label: PathLabel) -> BasisKet:
    if arm == PLUS:
        return BasisKet(label, ket.minus)
    return BasisKet(ket.plus, label)


@functools.cache
def bs_ket_map(backend: str, arm: str, in_pair: Tuple[PathLabel, PathLabel],
               out_pair: Tuple[PathLabel, PathLabel]):
    """Linear ket map of one beam splitter; absorbed kets pass through.

    Memoized per (backend, element) and per ket (functools.cache): an
    image that raises is not stored, so that ket raises on every lookup.
    """
    backend = amp.backend(backend)
    one = backend.one
    s = backend.inv_sqrt2
    i_s = backend.i * s

    def image(ket: BasisKet):
        if ket.is_absorbed:
            return ((ket, one),)
        label = _arm_label(ket, arm)
        if label == in_pair[0]:
            return ((_with_arm_label(ket, arm, out_pair[0]), s),
                    (_with_arm_label(ket, arm, out_pair[1]), i_s))
        if label == in_pair[1]:
            return ((_with_arm_label(ket, arm, out_pair[0]), i_s),
                    (_with_arm_label(ket, arm, out_pair[1]), s))
        if label in out_pair:
            raise ModeAliasingError(
                f"mode aliasing: live label {label} collides with output pair")
        return ((ket, one),)

    return functools.cache(image)


def apply_bs(sv: StateVector, arm: str, in_pair: Tuple[PathLabel, PathLabel],
             out_pair: Tuple[PathLabel, PathLabel]) -> StateVector:
    """Apply one beam splitter to the given arm."""
    return sv.apply_ket_map(bs_ket_map(sv.backend, arm, in_pair, out_pair))


@functools.cache
def relabel_ket_map(backend: str, arm: str):
    """The removed second beam splitter on one arm: u -> c, v -> d.

    Memoized like ``bs_ket_map``. A live c or d on the arm would collide
    with a relabeled path, so that ket raises ModeAliasingError.
    """
    one = amp.backend(backend).one

    def image(ket: BasisKet):
        if ket.is_absorbed:
            return ((ket, one),)
        label = _arm_label(ket, arm)
        if label in _REMOVED_BS2.values():
            raise ModeAliasingError(
                f"mode aliasing: live label {label} collides with a relabel target")
        return ((_with_arm_label(ket, arm, _REMOVED_BS2.get(label, label)), one),)

    return functools.cache(image)


def apply_bs1_pair(backend: str = EXACT) -> StateVector:
    """The source |S+>|S-> sent through both first beam splitters
    (S -> v, u per arm)."""
    sv = StateVector({BasisKet(PathLabel.S, PathLabel.S): amp.backend(backend).one},
                     backend)
    for arm in (PLUS, MINUS):
        sv = apply_bs(sv, arm, (PathLabel.S, PathLabel.S),
                      (PathLabel.v, PathLabel.u))
    return sv
