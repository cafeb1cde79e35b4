"""The free m-cone of a matroid and its tipless/baseless variants.

Given a loopless matroid M on E, the free m-cone Q_m(M) lives on
E, plus m fresh fiber elements over each point of E, plus one tip.
Its cyclic flats are those of M together with q(F) for every nonempty
flat F of M, where q(F) adds to F the fibers over F and the tip, and
the rank of q(F) is r(F) + 1.  Deleting the tip, the base E, or both
gives the three variants.
"""

from __future__ import annotations

from enum import Enum

from . import zlattice
from .core import Matroid, as_mask, bit_members, matroid_from_rank_oracle
from .errors import AxiomViolation, SourceHasLoops, ValidationError

__all__ = [
    "VariantKind",
    "ConeMatroid",
    "free_m_cone",
    "variant",
    "higgs_lift",
    "is_flat_in_cone",
    "q",
    "p",
]


class VariantKind(Enum):
    FULL = "full"
    TIPLESS = "tipless"
    BASELESS = "baseless"
    TIPLESS_BASELESS = "tipless-baseless"

    @classmethod
    def coerce(cls, kind) -> "VariantKind":
        if isinstance(kind, cls):
            return kind
        if isinstance(kind, str):
            key = kind.strip().lower().replace("_", "-")
            for member in cls:
                if member.value == key:
                    return member
        raise ValidationError(f"unknown variant kind {kind!r}")


def _q_mask(n: int, m: int, s: int) -> int:
    """q(S) in the cone layout over an n-element source: S, the m fibers
    over each element of S, and the tip."""
    out = s | (1 << (m + 1) * n)
    fibers = (1 << m) - 1
    for e in bit_members(s):
        out |= fibers << (n + e * m)
    return out


class ConeMatroid(Matroid):
    """A free m-cone, remembering its source matroid and element roles.

    Element ids: the source element e keeps id e; its j-th fiber
    (j = 1..m) has id n + e*m + (j-1); the tip has id (m+1)*n.  Names
    follow the same scheme: fibers of element "x" are "x#1".."x#m" and
    the tip is "@tip".
    """

    __slots__ = ("m", "source", "tip_id", "base_mask", "fiber_mask")

    def __init__(self, n, zf, names, m: int, source: Matroid):
        super().__init__(n, zf, names=names)
        self.m = m
        self.source = source
        self.tip_id = (m + 1) * source.n
        self.base_mask = (1 << source.n) - 1
        self.fiber_mask = self._full & ~(self.base_mask | (1 << self.tip_id))

    def fiber_ids(self, e: int) -> list[int]:
        n = self.source.n
        return [n + e * self.m + j for j in range(self.m)]

    def fibers_of(self, e: int) -> int:
        n = self.source.n
        return ((1 << self.m) - 1) << (n + e * self.m)

    def q_mask(self, s: int) -> int:
        return _q_mask(self.source.n, self.m, s)

    def p_mask(self, s: int) -> int:
        out = s & self.base_mask
        n, m = self.source.n, self.m
        fibers = (s & self.fiber_mask) >> n
        while fibers:
            e = (fibers & -fibers).bit_length() - 1
            out |= 1 << (e // m)
            fibers &= fibers - 1
        return out


def q(Q: ConeMatroid, s) -> set[int]:
    """The cone of a source subset: s itself, its fibers, and the tip."""
    return set(bit_members(Q.q_mask(as_mask(s))))


def p(Q: ConeMatroid, s) -> set[int]:
    """Project a cone subset to the source: base elements stay, fiber
    elements map to the element under them, the tip has no image."""
    return set(bit_members(Q.p_mask(as_mask(s))))


def free_m_cone(M: Matroid, m: int, validate: bool = True) -> ConeMatroid:
    """Build Q_m(M) from its cyclic-flat description directly."""
    if m < 1:
        raise ValidationError("m must be at least 1")
    if not M.is_loopless():
        raise SourceHasLoops("the cone construction requires a loopless source")
    n = M.n
    nq = (m + 1) * n + 1
    names = list(M.names) + [
        f"{M.names[e]}#{j}" for e in range(n) for j in range(1, m + 1)
    ] + ["@tip"]

    entries = list(M.zf)
    for rk, level in enumerate(M.flats_by_rank()):
        if rk == 0 and level == [0]:
            continue
        for f in level:
            if f:
                entries.append((_q_mask(n, m, f), rk + 1))
    if validate:
        report = zlattice.validate_axioms(entries)
        if not report.ok:
            raise AxiomViolation(report.axiom, report.witness, report.message)
    return ConeMatroid(nq, entries, names, m, M)


def variant(Q: ConeMatroid, kind) -> Matroid:
    """Delete the tip, the base, or both; FULL returns Q itself."""
    kind = VariantKind.coerce(kind)
    if kind is VariantKind.FULL:
        return Q
    if kind is VariantKind.TIPLESS:
        drop = 1 << Q.tip_id
    elif kind is VariantKind.BASELESS:
        drop = Q.base_mask
    else:
        drop = Q.base_mask | (1 << Q.tip_id)
    return Q.delete(drop)


def higgs_lift(M: Matroid) -> Matroid:
    """The matroid with rank function min(r(X) + 1, |X|)."""
    return matroid_from_rank_oracle(
        M.n,
        lambda x: min(M.rank_mask(x) + 1, x.bit_count()),
        names=M.names,
    )


def is_flat_in_cone(Q: ConeMatroid, F) -> bool:
    """Flat test for subsets of the cone, by the structural description.

    A tip-containing flat is exactly the cone of a flat of the source.
    A tip-free flat meets each column {e} union T_e at most once, its
    base part is a flat, and its fiber picks extend that base part
    independently.
    """
    fmask = as_mask(F) & Q.full_mask
    M = Q.source
    base = fmask & Q.base_mask
    if fmask >> Q.tip_id & 1:
        return M.is_flat_mask(base) and fmask == Q.q_mask(base)
    fibers = fmask & Q.fiber_mask
    cnt = fibers.bit_count()
    for e in range(M.n):
        col = (fmask >> e & 1) + (fibers & Q.fibers_of(e)).bit_count()
        if col > 1:
            return False
    if not M.is_flat_mask(base):
        return False
    proj = Q.p_mask(fibers)
    return M.rank_mask(base | proj) == M.rank_mask(base) + cnt
