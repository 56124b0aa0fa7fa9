"""Basis labels, state vectors and density matrices for the two-particle system.

Two distinguishable species travel through their own interferometers: the
positron (plus arm) and the electron (minus arm). Path labels live in
{S, u, v, c, d} per arm; an extra orthogonal sink ket ("absorbed") carries
the annihilation-photon branch. Vacuum input ports play no role in any of
the computed quantities and are not modeled.

Amplitudes stay UNNORMALIZED; the squared norm is tracked separately so
that every probability is an exact rational even when the normalization
constant itself (e.g. 1/sqrt3) lies outside Q(i, sqrt2).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from . import amplitude as amp
from .errors import ConfigError, EmptyStateError, echo


class PathLabel(enum.IntEnum):
    """Interferometer path/port label; ordering fixes the canonical basis."""

    S = 0
    u = 1
    v = 2
    c = 3
    d = 4

    def __str__(self) -> str:
        return self.name


class BasisKet(NamedTuple):
    """Joint outcome label: a path per species, or the absorbed-photon sink.

    A tuple, so hashing and equality run in C: ``hash(BasisKet(a, b))`` is
    ``hash((a, b))``.
    """

    plus: Optional[PathLabel] = None
    minus: Optional[PathLabel] = None

    @property
    def is_absorbed(self) -> bool:
        return self.plus is None

    def sort_key(self):
        if self.is_absorbed:
            return (1, 0, 0)
        return (0, int(self.plus), int(self.minus))

    def __str__(self) -> str:
        if self.is_absorbed:
            return "GAMMA"
        return f"e+:{self.plus} e-:{self.minus}"


ABSORBED = BasisKet()

KetMap = Callable[[BasisKet], Iterable[Tuple[BasisKet, object]]]


class StateVector:
    """Finite map ket -> amplitude with an exact squared norm, summed on first
    read and cached, so a state that is only passed on never sums it. Its
    density matrix is kept the same way (``pure_to_density``); both caches
    assume that a state is not changed once built. The backend is read off
    the amplitudes (``amplitude.backend_of``)."""

    def __init__(self, amps: Dict[BasisKet, object]):
        self.backend = amp.backend_of(amps.values())
        self.amps = self.backend.prune(amps)
        self._norm = None
        self._density = None

    def _norm_sq(self):
        """Squared norm in the amplitude type (ExactScalar or complex)."""
        if self._norm is None:
            total = self.backend.zero
            for a in self.amps.values():
                total = total + a * a.conjugate()
            self._norm = total
        return self._norm

    def norm_sq(self):
        """Squared norm as Fraction (exact backend) or float."""
        return amp.real_part(self._norm_sq())

    def is_zero(self) -> bool:
        return not self.amps

    def apply_ket_map(self, ket_map: KetMap) -> "StateVector":
        """Push every basis ket through a linear ket -> sum-of-kets map; a
        map whose values do not multiply this state's raises ConfigError."""
        out: Dict[BasisKet, object] = {}
        try:
            for k, a in self.amps.items():
                for k2, c in ket_map(k):
                    cur = out.get(k2)
                    out[k2] = a * c if cur is None else cur + a * c
        except TypeError as exc:
            raise ConfigError(f"ket map unfit for this state: {exc}") from exc
        return StateVector(out)

    def rename(self, ket_map: KetMap) -> "StateVector":
        """The state under a relabeling: ket_map sends each ket to one ket
        (else ConfigError) with coefficient 1, and no two live kets to one. So
        each amplitude moves as it is, with no product, merge or prune, and
        the squared norm carries over."""
        amps: Dict[BasisKet, object] = {}
        try:
            for k, a in self.amps.items():
                [(k2, _)] = ket_map(k)
                amps[k2] = a
        except ValueError:
            raise ConfigError(f"{echo(k)} has not one image: not a relabeling") from None
        out = object.__new__(StateVector)
        out.backend, out.amps = self.backend, amps
        out._norm, out._density = self._norm, None
        return out

    def probability(self, kets: Iterable[BasisKet]):
        """Born probability of an event, a collection of distinct kets looked
        up one by one (a ket not held adds nothing); exact where possible."""
        if self.is_zero():
            raise EmptyStateError("empty state")
        kept = self.backend.zero
        for k in kets:
            a = self.amps.get(k)
            if a is not None:
                kept = kept + a * a.conjugate()
        return self.backend.ratio(kept, self._norm_sq())

    def dump(self) -> str:
        """Canonical text form, one ket per line in basis order."""
        return "\n".join(f"{k} | {self.amps[k]}"
                         for k in sorted(self.amps, key=BasisKet.sort_key))

    def __repr__(self) -> str:
        return f"StateVector({self.backend}, {{{self.dump()}}})"


class DensityMatrix:
    """Finite map (BasisKet, BasisKet) -> amplitude, Hermitian by construction
    in the library; a matrix built by hand is not checked. The backend is
    read off the entries, as a StateVector's is."""

    def __init__(self, entries: Dict[Tuple[BasisKet, BasisKet], object]):
        self.backend = amp.backend_of(entries.values())
        self.entries = self.backend.prune(entries)

    def purity(self):
        """trace(rho^2), computed as sum_ab rho(a,b) rho(b,a)."""
        total = self.backend.zero
        for (a, b), val in self.entries.items():
            other = self.entries.get((b, a))
            if other is not None:
                total = total + val * other
        return amp.real_part(total)

    def diagonal_probability(self, kets: Iterable[BasisKet]):
        """Diagonal weight of an event, as StateVector.probability, but not
        divided by the trace: a matrix built by hand is read unnormalized."""
        if not self.entries:
            raise EmptyStateError("empty state")
        total = self.backend.zero
        for k in kets:
            val = self.entries.get((k, k))
            if val is not None:
                total = total + val
        return amp.real_part(total)

    def apply_ket_map(self, ket_map: KetMap) -> "DensityMatrix":
        """rho -> U rho U^dagger for U given as a linear ket map, in two
        one-sided passes: U on every entry's ket into (a2, b), then U* on
        every bra of that into (a2, b2). ket_map(k) returns k's image as
        (ket, amplitude) pairs; each image is read once, so an iterator will
        do. It is called once per entry on the ket side and once per distinct
        bra, whose conjugated image is then reused for every entry. As for a
        StateVector, a map unfit for the values raises ConfigError."""
        half: Dict[Tuple[BasisKet, BasisKet], object] = {}
        bras: Dict[BasisKet, list] = {}
        out: Dict[Tuple[BasisKet, BasisKet], object] = {}
        try:
            for (a, b), val in self.entries.items():
                for a2, ca in ket_map(a):
                    key, term = (a2, b), val * ca
                    cur = half.get(key)
                    half[key] = term if cur is None else cur + term
            for (a2, b), val in half.items():
                bra = bras.get(b)
                if bra is None:
                    bra = bras[b] = [(b2, cb.conjugate()) for b2, cb in ket_map(b)]
                for b2, cb in bra:
                    key, term = (a2, b2), val * cb
                    cur = out.get(key)
                    out[key] = term if cur is None else cur + term
        except TypeError as exc:
            raise ConfigError(f"ket map unfit for this matrix: {exc}") from exc
        return DensityMatrix(out)

    def rename(self, ket_map: KetMap) -> "DensityMatrix":
        """rho under a relabeling, as StateVector.rename: both sides of every
        entry are renamed and each value moves as it is. ket_map is called
        once per distinct ket."""
        names: Dict[BasisKet, BasisKet] = {}
        try:
            for pair in self.entries:
                for k in pair:
                    if k not in names:
                        [(names[k], _)] = ket_map(k)
        except ValueError:
            raise ConfigError(f"{echo(k)} has not one image: not a relabeling") from None
        out = object.__new__(DensityMatrix)
        out.backend = self.backend
        out.entries = {(names[a], names[b]): val
                       for (a, b), val in self.entries.items()}
        return out

    def __repr__(self) -> str:
        return f"DensityMatrix({self.backend}, {len(self.entries)} entries)"


def pure_to_density(sv: StateVector) -> DensityMatrix:
    """rho = |psi><psi| / <psi|psi>; unit trace, purity 1. Built on the first
    call and kept on sv, like its squared norm, so every call on one state
    returns the same DensityMatrix; callers must not change it."""
    if sv._density is not None:
        return sv._density
    if sv.is_zero():
        raise EmptyStateError("empty state")
    inv = sv.backend.one / sv.norm_sq()
    bras = [(b, vb.conjugate() * inv) for b, vb in sv.amps.items()]
    entries = {}
    for a, va in sv.amps.items():
        for b, cb in bras:
            entries[(a, b)] = va * cb
    sv._density = DensityMatrix(entries)
    return sv._density
