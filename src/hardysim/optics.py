"""Beam-splitter unitaries and mode relabeling on one interferometer arm.

Phase convention: transmission keeps the amplitude, reflection picks up i,
so the first input goes to (first_out + i*second_out)/sqrt2 and the second
to (i*first_out + second_out)/sqrt2. A removed second beam splitter is a
pure relabeling of internal paths onto detector ports. Each element reads
some labels of its arm and passes absorbed kets and all other labels
through; a live label it writes but does not read would merge with an
image, so that ket raises ModeAliasingError.
"""

from __future__ import annotations

import functools
from typing import Dict, NamedTuple, Tuple

from . import amplitude as amp
from .amplitude import EXACT, FLOAT
from .errors import ConfigError, ModeAliasingError, echo
from .state import BasisKet, KetMap, PathLabel, StateVector

PLUS = "plus"
MINUS = "minus"
BS2_IN = (PathLabel.u, PathLabel.v)   # the second beam splitter's inputs
BS2_OUT = (PathLabel.c, PathLabel.d)  # and the detector ports they meet


def _arm_ket_map(backend, arm: str, table):
    """The ket map of one element on one arm, from its table label ->
    ((out label, coefficient), ...), memoized per ket: an image that raises
    is not stored, so that ket raises on every lookup. A value that is not
    a BasisKet raises ConfigError."""
    one = backend.one
    targets = {out for images in table.values() for out, _ in images}

    def image(ket: BasisKet):
        if not isinstance(ket, BasisKet):
            raise ConfigError(f"{echo(ket)} is not a BasisKet")
        if ket.is_absorbed:
            return ((ket, one),)
        label = ket.plus if arm == PLUS else ket.minus
        images = table.get(label)
        if images is None:
            if label in targets:
                raise ModeAliasingError(f"mode aliasing: live label {label} "
                                        f"is an output of this element")
            return ((ket, one),)
        if arm == PLUS:
            return tuple((BasisKet(out, ket.minus), x) for out, x in images)
        return tuple((BasisKet(ket.plus, out), x) for out, x in images)

    return functools.cache(image)


def _splitter(backend, arm: str, inputs, outputs) -> KetMap:
    """A 50/50 beam splitter on one arm with one or two inputs."""
    t, (first, second) = backend.inv_sqrt2, outputs
    r = backend.i * t
    return _arm_ket_map(backend, arm, dict(zip(inputs, (
        ((first, t), (second, r)), ((first, r), (second, t))))))


class _Optics(NamedTuple):
    bs2: Dict[str, KetMap]      # the second beam splitter, per arm
    relabel: Dict[str, KetMap]  # the removed second beam splitter, per arm
    prepared: StateVector       # the source after both first beam splitters
    stages: Dict[Tuple[bool, bool], tuple]  # (bs2_plus, bs2_minus) -> passes


def _build(backend) -> _Optics:
    """One backend's fixed elements, built once at import and shared; the
    first beam splitters (S -> v, u per arm) only prepare the source. A
    layout's second stage is its ket maps, one pass each: one per splitter
    in place, a removed one's relabeling folded into the other's images with
    each coefficient kept, or with both removed both relabelings in one."""
    prepared = StateVector({BasisKet(PathLabel.S, PathLabel.S): backend.one})
    for arm in (PLUS, MINUS):
        prepared = prepared.apply_ket_map(_splitter(
            backend, arm, (PathLabel.S,), (PathLabel.v, PathLabel.u)))
    ports = {label: ((out, backend.one),) for label, out in zip(BS2_IN, BS2_OUT)}
    bs2 = {arm: _splitter(backend, arm, BS2_IN, BS2_OUT) for arm in (PLUS, MINUS)}
    relabel = {arm: _arm_ket_map(backend, arm, ports) for arm in (PLUS, MINUS)}

    def then(first, second):  # first, then the relabeling second
        return functools.cache(lambda ket: tuple(
            (second(k)[0][0], x) for k, x in first(ket)))

    return _Optics(bs2, relabel, prepared, {
        (True, True): (bs2[PLUS], bs2[MINUS]),
        (True, False): (then(bs2[PLUS], relabel[MINUS]),),
        (False, True): (then(bs2[MINUS], relabel[PLUS]),),
        (False, False): (then(relabel[PLUS], relabel[MINUS]),)})


_OPTICS = {backend: _build(backend) for backend in (EXACT, FLOAT)}


def _on_arm(maps: Dict[str, KetMap], arm: str) -> KetMap:
    try:
        return maps[arm]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown arm {echo(arm)}: expected "
                          f"{PLUS!r} or {MINUS!r}") from None


def bs_ket_map(backend: str, arm: str) -> KetMap:
    """The second beam splitter on one arm (u, v -> c, d)."""
    return _on_arm(_OPTICS[amp.backend(backend)].bs2, arm)


def relabel_ket_map(backend: str, arm: str) -> KetMap:
    """The removed second beam splitter on one arm (u -> c, v -> d)."""
    return _on_arm(_OPTICS[amp.backend(backend)].relabel, arm)


def apply_bs1_pair(backend: str = EXACT) -> StateVector:
    """The source |S+>|S-> after both first beam splitters: every scenario
    starts from this one StateVector per backend, so it must not change."""
    return _OPTICS[amp.backend(backend)].prepared
