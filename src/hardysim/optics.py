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
from typing import Tuple

from . import amplitude as amp
from .amplitude import EXACT
from .errors import ConfigError, ModeAliasingError, echo
from .state import BasisKet, PathLabel, StateVector

PLUS = "plus"
MINUS = "minus"
BS2_IN = (PathLabel.u, PathLabel.v)   # the second beam splitter's inputs
BS2_OUT = (PathLabel.c, PathLabel.d)  # and the detector ports they meet


def _arm_ket_map(backend, arm: str, table):
    """The ket map of one element on one arm, from its table
    label -> ((out label, coefficient), ...). Memoized per ket
    (functools.cache): an image that raises is not stored, so that ket
    raises on every lookup."""
    one = backend.one
    targets = {out for images in table.values() for out, _ in images}

    def image(ket: BasisKet):
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


def _check_arm(arm) -> None:
    if arm not in (PLUS, MINUS):
        raise ConfigError(f"unknown arm {echo(arm)}: expected "
                          f"{PLUS!r} or {MINUS!r}")


def _check_label_pair(pair) -> None:
    if not (type(pair) is tuple and len(pair) == 2
            and type(pair[0]) is PathLabel and type(pair[1]) is PathLabel):
        raise ConfigError(f"{echo(pair)} is not a tuple of two path labels")


def _per_backend(*checks):
    """Memoize a builder per (backend, other arguments). Before the lookup
    the backend is resolved and each other argument passes its check, in
    order: an unknown or unhashable value raises ConfigError, not the
    cache's TypeError, and every spelling of a backend ("exact", EXACT, the
    default) shares one entry. ``cache_clear`` empties the memo."""
    def wrap(build):
        memo = functools.cache(build)

        @functools.wraps(build)
        def lookup(backend=EXACT, *args):
            for check, arg in zip(checks, args):
                check(arg)
            return memo(amp.backend(backend), *args)

        lookup.cache_clear = memo.cache_clear
        return lookup

    return wrap


@_per_backend(_check_arm, _check_label_pair, _check_label_pair)
def bs_ket_map(backend: str, arm: str, in_pair: Tuple[PathLabel, PathLabel],
               out_pair: Tuple[PathLabel, PathLabel]):
    """Linear ket map of one beam splitter, memoized per (backend, element)."""
    s = backend.inv_sqrt2
    i_s = backend.i * s
    first, second = out_pair
    # in_pair[0] comes last, so it wins where both inputs are one port (BS1)
    return _arm_ket_map(backend, arm, {in_pair[1]: ((first, i_s), (second, s)),
                                       in_pair[0]: ((first, s), (second, i_s))})


def apply_bs(sv: StateVector, arm: str, in_pair: Tuple[PathLabel, PathLabel],
             out_pair: Tuple[PathLabel, PathLabel]) -> StateVector:
    """Apply one beam splitter to the given arm."""
    return sv.apply_ket_map(bs_ket_map(sv.backend, arm, in_pair, out_pair))


@_per_backend(_check_arm)
def relabel_ket_map(backend: str, arm: str):
    """The removed second beam splitter on one arm (u -> c, v -> d),
    memoized like ``bs_ket_map``."""
    return _arm_ket_map(backend, arm, {label: ((out, backend.one),)
                                       for label, out in zip(BS2_IN, BS2_OUT)})


@_per_backend()
def apply_bs1_pair(backend: str = EXACT) -> StateVector:
    """The source |S+>|S-> sent through both first beam splitters
    (S -> v, u per arm): the prepared state every scenario starts from.

    Built once per backend per process and shared, memoized like
    ``bs_ket_map``: every call returns the same StateVector, so callers must
    not change it."""
    sv = StateVector({BasisKet(PathLabel.S, PathLabel.S): backend.one}, backend)
    for arm in (PLUS, MINUS):
        sv = apply_bs(sv, arm, (PathLabel.S, PathLabel.S),
                      (PathLabel.v, PathLabel.u))
    return sv
