"""The free m-cone of a matroid and its tipless/baseless variants.

Given a loopless matroid M on E, the free m-cone Q_m(M) lives on
E, plus m fresh fiber elements over each point of E, plus one tip.
Its cyclic flats are those of M together with q(F) for every nonempty
flat F of M, where q(F) adds to F the fibers over F and the tip, and
the rank of q(F) is r(F) + 1.  Deleting the tip, the base E, or both
gives the three variants.  Like every Matroid, each cone, variant and
Higgs lift has its family checked against the lattice axioms when built.
"""

from __future__ import annotations

from enum import Enum

from .core import Matroid, bit_members, from_cyclic_flats
from .errors import SourceHasLoops, ValidationError

__all__ = [
    "VariantKind",
    "ConeMatroid",
    "free_m_cone",
    "variant",
    "higgs_lift",
]


class VariantKind(Enum):
    """Which parts of the cone a variant keeps: the tip, the base E, or both."""

    FULL = "full"
    TIPLESS = "tipless"
    BASELESS = "baseless"
    TIPLESS_BASELESS = "tipless-baseless"

    @property
    def tip(self) -> bool:
        return self in (VariantKind.FULL, VariantKind.BASELESS)

    @property
    def base(self) -> bool:
        return self in (VariantKind.FULL, VariantKind.TIPLESS)

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
    follow :func:`_cone_names`: fibers of element "x" are "x#1".."x#m"
    and the tip is "@tip", with the separator and the prefix doubled until
    no new name is already a source name.
    """

    __slots__ = ("m", "source", "tip_id", "base_mask")

    def __init__(self, n, zf, names, m: int, source: Matroid):
        super().__init__(n, zf, names=names)
        self.m = m
        self.source = source
        self.tip_id = (m + 1) * source.n
        self.base_mask = (1 << source.n) - 1


def _cone_names(names, m: int) -> list[str]:
    """Fiber names "x" + "#"*k + "j" and the tip name "@"*k' + "tip", with
    k and k' the least counts that miss every source name.

    The new names are distinct among themselves: the trailing digits of a
    fiber name give j, the separator before them gives x, and the tip ends
    in a letter.  Sources without "#" or "@tip" names keep "x#j" and "@tip".
    """
    taken = set(names)
    sep = "#"
    while any(f"{x}{sep}{j}" in taken for x in names for j in range(1, m + 1)):
        sep += "#"
    tip = "@tip"
    while tip in taken:
        tip = "@" + tip
    return [f"{x}{sep}{j}" for x in names for j in range(1, m + 1)] + [tip]


def free_m_cone(M: Matroid, m: int) -> ConeMatroid:
    """Build Q_m(M) from its cyclic-flat description directly."""
    if m < 1:
        raise ValidationError("m must be at least 1")
    if not M.is_loopless():
        raise SourceHasLoops("the cone construction requires a loopless source")
    n = M.n
    nq = (m + 1) * n + 1
    names = list(M.names) + _cone_names(M.names, m)

    entries = list(M.zf)
    for rk, level in enumerate(M.flats_by_rank()):
        if rk == 0 and level == [0]:
            continue
        for f in level:
            if f:
                entries.append((_q_mask(n, m, f), rk + 1))
    return ConeMatroid(nq, entries, names, m, M)


def variant(Q: ConeMatroid, kind) -> Matroid:
    """Delete the tip, the base, or both; FULL returns Q itself."""
    kind = VariantKind.coerce(kind)
    drop = (0 if kind.tip else 1 << Q.tip_id) | (0 if kind.base else Q.base_mask)
    return Q.delete(drop) if drop else Q


def higgs_lift(M: Matroid) -> Matroid:
    """The matroid with rank function min(r(X) + 1, |X|), built from the
    cyclic flats of M.

    The lift is the dual of the truncation of the dual, so its cyclic flats
    are the empty set with rank 0 and each cyclic flat Z of M with
    |Z| - r(Z) >= 2, its rank raised by one.
    """
    entries = [(0, 0)] + [(z, r + 1) for z, r in M.zf if z.bit_count() - r >= 2]
    return from_cyclic_flats(entries, M.n, names=M.names)
