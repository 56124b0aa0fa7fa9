"""Beam-splitter unitaries and mode relabeling on one interferometer arm.

Phase convention: transmission keeps the amplitude, reflection picks up i,
so the first input goes to (first_out + i*second_out)/sqrt2 and the second
to (i*first_out + second_out)/sqrt2. A removed second beam splitter is a
pure relabeling of internal paths onto detector ports.
"""

from __future__ import annotations

import functools
from typing import Dict, Tuple

from . import amplitude as amp
from .errors import ModeAliasingError, SimulationError
from .state import BasisKet, PathLabel, StateVector

PLUS = "plus"
MINUS = "minus"


def _arm_label(ket: BasisKet, arm: str) -> PathLabel:
    return ket.plus if arm == PLUS else ket.minus


def _with_arm_label(ket: BasisKet, arm: str, label: PathLabel) -> BasisKet:
    if arm == PLUS:
        return BasisKet(label, ket.minus)
    return BasisKet(ket.plus, label)


class _KetImages(dict):
    """ket -> its image, a tuple of (ket, coefficient), worked out once.

    An image that raises is not stored, so that ket raises on every lookup.
    """

    __slots__ = ("_image",)

    def __init__(self, image):
        super().__init__()
        self._image = image

    def __missing__(self, ket: BasisKet):
        images = self[ket] = self._image(ket)
        return images


@functools.cache
def bs_ket_map(backend: str, arm: str, in_pair: Tuple[PathLabel, PathLabel],
               out_pair: Tuple[PathLabel, PathLabel]):
    """Linear ket map of one beam splitter; absorbed kets pass through.

    Memoized per (backend, element): every call with equal arguments
    returns the same map, and each ket's image is built on first lookup.
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

    return _KetImages(image).__getitem__


def apply_bs(sv: StateVector, arm: str, in_pair: Tuple[PathLabel, PathLabel],
             out_pair: Tuple[PathLabel, PathLabel]) -> StateVector:
    """Apply one beam splitter to the given arm."""
    return sv.apply_ket_map(bs_ket_map(sv.backend, arm, in_pair, out_pair))


def relabel_ket_map(backend: str, arm: str,
                    mapping: Dict[PathLabel, PathLabel]):
    """Injective renaming of path labels on one arm (a removed BS).

    Memoized like ``bs_ket_map``, on the mapping's items.
    """
    return _relabel_ket_map(backend, arm, tuple(mapping.items()))


@functools.cache
def _relabel_ket_map(backend: str, arm: str,
                     items: Tuple[Tuple[PathLabel, PathLabel], ...]):
    mapping = dict(items)
    targets = list(mapping.values())
    if len(set(targets)) != len(targets):
        raise ModeAliasingError("relabel map is not injective")
    one = amp.backend(backend).one

    def image(ket: BasisKet):
        if ket.is_absorbed:
            return ((ket, one),)
        label = _arm_label(ket, arm)
        if label not in mapping and label in targets:
            raise ModeAliasingError(
                f"mode aliasing: live label {label} collides with a relabel target")
        return ((_with_arm_label(ket, arm, mapping.get(label, label)), one),)

    return _KetImages(image).__getitem__


def apply_bs1_pair(sv: StateVector) -> StateVector:
    """Send |S+>|S-> through both first beam splitters (S -> v, u per arm)."""
    expected = {BasisKet(PathLabel.S, PathLabel.S)}
    if set(sv.amps) != expected:
        raise SimulationError("apply_bs1_pair expects the bare source state")
    out = apply_bs(sv, PLUS, (PathLabel.S, PathLabel.S),
                   (PathLabel.v, PathLabel.u))
    return apply_bs(out, MINUS, (PathLabel.S, PathLabel.S),
                    (PathLabel.v, PathLabel.u))
