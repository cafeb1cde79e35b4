"""Matroid kernel: construction, rank oracle, closure, flats, minors, isomorphism.

A matroid on ground set {0, ..., n-1} is stored as the family of its cyclic
flats (as bitmasks) together with their ranks.  Ranks of arbitrary subsets
come from the minimum formula

    r(X) = min over stored (Z, r_Z) of  r_Z + |X - Z|

which is exercised against an independent bases oracle in the test suite
before anything downstream relies on it.  All arithmetic is exact; subsets
are Python ints used as bitmasks.

Closure and coloops come from the cyclic flats Z that attain the minimum
for X (Bonin and de Mier, "The lattice of cyclic flats of a matroid"):

    for e not in X,  r(X + e) = r(X)  iff  some minimizing Z contains e,
    for e in X,      r(X - e) < r(X)  iff  some minimizing Z misses e,

so cl(X) is X together with the union of the minimizers, and the coloops
of M|X are the elements of X outside their intersection.  One pass over
the family gives the rank and both masks.

The same formula gives every cover of a flat F of rank k at once.  With
v_Z = r_Z + |F - Z| and S = {Z : v_Z = k + 1},

    cl(F + e) = F + e + union of the Z - F, Z in S, that contain e,

so the covers of F are F plus each connected component of the nonempty
sets Z - F (Z in S), and F + e for each e in none of them.  The flat walk
takes one pass over the t cyclic flats per flat, not one closure per
cover.

The cyclic flats with ranks also determine the matroid up to relabelling,
so isomorphism has no search of its own: is_isomorphic compares the
canonical certificates of the element/cyclic-flat incidence posets, from
the search that decides configuration equality (zlattice._canonical).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ._bits import as_mask, bit_members
from .errors import AxiomViolation, GroundSetTooLarge, NotABasisSystem, ValidationError
from .zlattice import _canonical, _covers, _inverse_perm, _order_masks, validate_axioms

__all__ = [
    "Matroid",
    "from_cyclic_flats",
    "from_bases",
    "matroid_from_rank_oracle",
    "is_isomorphic",
    "as_mask",
    "bit_members",
]

# The ceiling on the element count for construction from bases and
# rank-oracle extraction.  Walking the flat lattice (flats_by_rank) has no
# element bound: its cost follows the number of flats, not n.
FLAT_ENUMERATION_BOUND = 16


def _compress_mask(mask: int, kept: Sequence[int]) -> int:
    """Re-index a mask onto positions 0..len(kept)-1 following `kept` order."""
    out = 0
    for new, old in enumerate(kept):
        if mask >> old & 1:
            out |= 1 << new
    return out


class Matroid:
    """Immutable matroid given by cyclic flats with ranks.

    Every instance is checked: the constructor raises AxiomViolation, with
    the report of :func:`validate_axioms`, when the (mask, rank) pairs `zf`
    are not the cyclic-flat family of a matroid.  Equality compares
    ground-set size and the cyclic-flat family; display names are
    presentation only.
    """

    __slots__ = ("n", "names", "zf", "_full", "_zneg")

    def __init__(self, n: int, zf: Iterable[tuple[int, int]], names=None):
        zf = list(zf)
        report = validate_axioms(zf)
        if not report.ok:
            raise AxiomViolation(report.axiom, report.witness, report.message)
        self.n = n
        self.zf = tuple(sorted(set(zf), key=lambda zr: (zr[0].bit_count(), zr[0])))
        if names is None:
            names = tuple(str(e) for e in range(n))
        else:
            names = tuple(names)
        if len(names) != n:
            raise ValueError("need n element names")
        if len(set(names)) != n:
            dup = next(x for i, x in enumerate(names) if x in names[:i])
            raise ValidationError(f"element name {dup!r} appears twice")
        self.names = names
        self._full = (1 << n) - 1
        self._zneg = tuple((self._full & ~z, r) for z, r in self.zf)

    # -- basic views -------------------------------------------------------

    @property
    def full_mask(self) -> int:
        return self._full

    @property
    def loops_mask(self) -> int:
        """The minimum cyclic flat is exactly the set of loops."""
        return self.zf[0][0]

    def is_loopless(self) -> bool:
        return self.loops_mask == 0

    @property
    def rank_int(self) -> int:
        return self.rank_mask(self._full)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matroid)
            and self.n == other.n
            and self.zf == other.zf
        )

    def __hash__(self) -> int:
        return hash((self.n, self.zf))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.rank_int}, cyclic_flats={len(self.zf)})"

    # -- rank / closure ----------------------------------------------------

    def rank_mask(self, x: int) -> int:
        best = self.n + 1
        for zneg, rz in self._zneg:
            r = rz + (x & zneg).bit_count()
            if r < best:
                best = r
        return best

    def _minimizers(self, x: int) -> tuple[int, int, int]:
        """r(X), the elements outside every cyclic flat attaining the
        minimum for X, and the elements outside at least one of them."""
        best = self.n + 1
        out_all = out_some = 0
        for zneg, rz in self._zneg:
            r = rz + (x & zneg).bit_count()
            if r < best:
                best, out_all, out_some = r, zneg, zneg
            elif r == best:
                out_all &= zneg
                out_some |= zneg
        return best, out_all, out_some

    def closure_mask(self, x: int) -> int:
        return x | (self._full & ~self._minimizers(x)[1])

    # -- the flat lattice ----------------------------------------------------

    def covers_mask(self, f: int) -> tuple[int, ...]:
        """Flats covering the flat `f`, ordered by their lowest new element.

        With k = r(F) and v_Z = r_Z + |F - Z|, every cyclic flat attaining
        the minimum for F + e (e outside F) has v_Z = k and lies in F, or
        has v_Z = k + 1 and contains e.  So cl(F + e) is F + e plus every
        Z - F with Z in S = {Z : v_Z = k + 1} that contains e: the covers
        are F plus each connected component of the nonempty sets Z - F,
        Z in S, and F + e for each e in none of them.

        Each component is itself one of these sets.  A cover G with two or
        more new elements has them all in its cyclic core Z_G (an element
        of G - F outside Z_G is a coloop of M|G, so G minus it has rank k
        and is F), hence v = k + 1 for Z_G, and Z_G contains every Z in S
        that meets G - F.  The family is sorted by size, so Z_G comes after
        every such Z and after the cyclic core of F, which attains k.  One
        pass therefore finds k, drops what it kept before the minimum
        fell, and keys each Z - F by its lowest element, the last one
        written being the component: O(t) mask operations per flat for t
        cyclic flats, whatever its number of covers.
        """
        rem = self._full & ~f
        best = self.n + 1
        by_low: dict[int, int] = {}
        for zneg, rz in self._zneg:
            v = rz + (f & zneg).bit_count()
            if v < best:
                best = v
                by_low.clear()
            elif v == best + 1:
                part = rem & ~zneg
                if part:
                    by_low[part & -part] = part
        covers = []
        while rem:
            b = rem & -rem
            g = by_low.get(b, b)
            covers.append(f | g)
            rem &= ~g
        return tuple(covers)

    def flats_by_rank(self) -> list[list[int]]:
        """All flats as masks, grouped by rank (index = rank)."""
        levels = [[self.closure_mask(0)]]
        while True:
            nxt = set()
            for f in levels[-1]:
                nxt.update(self.covers_mask(f))
            if not nxt:
                break
            levels.append(sorted(nxt))
        return levels

    # -- minors ----------------------------------------------------------------

    def delete(self, x: Iterable[int] | int) -> "Matroid":
        """Delete the elements of `x`.

        The cyclic flats of the deletion are exactly the sets F - x, for F
        cyclic flats of this matroid, that have no coloops in their
        restriction; ranks of surviving subsets are unchanged.  Each F - x
        is a flat of the deletion already: its closure lies inside F.
        """
        dmask = as_mask(x) & self._full
        keep = self._full & ~dmask
        kept = bit_members(keep)
        names = tuple(self.names[e] for e in kept)
        entries = []
        for c in {z & keep for z, _ in self.zf}:
            rc, _, out_some = self._minimizers(c)
            if not c & out_some:
                entries.append((_compress_mask(c, kept), rc))
        return from_cyclic_flats(entries, len(kept), names=names)

    def restrict(self, x: Iterable[int] | int) -> "Matroid":
        xmask = as_mask(x) & self._full
        return self.delete(self._full & ~xmask)

    def relabel(self, perm: Sequence[int]) -> "Matroid":
        """Relabel element ids, `perm[old] = new`; names follow their elements."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        zf = []
        for z, r in self.zf:
            m = 0
            for e in bit_members(z):
                m |= 1 << perm[e]
            zf.append((m, r))
        names = [""] * self.n
        for old, new in enumerate(perm):
            names[new] = self.names[old]
        return Matroid(self.n, zf, names=names)


def from_cyclic_flats(sets_with_ranks, n: int, names=None) -> Matroid:
    """Build a matroid from (set, rank) pairs given as sets or masks.

    `sets_with_ranks` may be a dict {set-or-mask: rank} or an iterable of
    (set-or-mask, rank) pairs.  The Matroid constructor raises
    AxiomViolation when they are not the cyclic-flat family of any matroid;
    a set listed twice with two ranks violates Z0, and an exact repeat is
    one member.
    """
    if isinstance(sets_with_ranks, dict):
        items = sets_with_ranks.items()
    else:
        items = list(sets_with_ranks)
    entries = []
    for s, r in items:
        m = as_mask(s)
        if m < 0 or m >= (1 << n):
            raise ValueError(f"set {s!r} is not a subset of the {n}-element ground set")
        if not isinstance(r, int) or isinstance(r, bool) or r < 0:
            raise ValueError(f"rank of {s!r} must be a nonnegative integer, got {r!r}")
        entries.append((m, r))
    return Matroid(n, entries, names=names)


def matroid_from_rank_oracle(n: int, rank_fn: Callable[[int], int], names=None) -> Matroid:
    """Extract cyclic flats from a rank oracle on bitmasks and build a matroid.

    The oracle must be the rank function of a matroid on {0,...,n-1}; the
    construction walks the flat lattice, keeps the flats without coloops,
    and validates the result, which catches non-matroidal oracles at desk
    scale.
    """
    if n > FLAT_ENUMERATION_BOUND:
        raise GroundSetTooLarge(
            f"rank-oracle extraction supported up to n={FLAT_ENUMERATION_BOUND}, got n={n}"
        )
    full = (1 << n) - 1

    def cl(x: int) -> int:
        rx = rank_fn(x)
        out = x
        rem = full & ~x
        while rem:
            b = rem & -rem
            rem ^= b
            if rank_fn(x | b) == rx:
                out |= b
        return out

    entries = []
    frontier = [cl(0)]
    seen = set(frontier)
    while frontier:
        nxt = set()
        for f in frontier:
            rf = rank_fn(f)
            cyclic = True
            rem = f
            while rem:
                b = rem & -rem
                rem ^= b
                if rank_fn(f ^ b) < rf:
                    cyclic = False
                    break
            if cyclic:
                entries.append((f, rf))
            rem = full & ~f
            while rem:
                b = rem & -rem
                g = cl(f | b)
                rem &= ~g
                if g not in seen:
                    seen.add(g)
                    nxt.add(g)
        frontier = sorted(nxt)
    return from_cyclic_flats(entries, n, names=names)


def from_bases(bases, n: int, names=None) -> Matroid:
    """Build a matroid from its collection of bases.

    Checks the exchange property on every ordered pair and raises
    NotABasisSystem with a witnessing pair when it fails; ground sets above
    FLAT_ENUMERATION_BOUND raise GroundSetTooLarge before that check.  The rank
    function used for extraction is r(X) = max over bases B of |X ∩ B|.
    """
    base_masks = sorted({as_mask(b) for b in bases})
    if not base_masks:
        raise NotABasisSystem("at least one basis is required")
    for b in base_masks:
        if b < 0 or b >= (1 << n):
            raise NotABasisSystem(f"basis {b:#x} is not a subset of the ground set")
    # the exchange check is quadratic in the number of bases: refuse first
    if n > FLAT_ENUMERATION_BOUND:
        raise GroundSetTooLarge(
            f"construction from bases supported up to n={FLAT_ENUMERATION_BOUND}, got n={n}"
        )
    base_set = set(base_masks)
    for b1 in base_masks:
        for b2 in base_masks:
            rem = b1 & ~b2
            while rem:
                e = rem & -rem
                rem ^= e
                opts = b2 & ~b1
                found = False
                while opts:
                    f = opts & -opts
                    opts ^= f
                    if (b1 ^ e) | f in base_set:
                        found = True
                        break
                if not found:
                    raise NotABasisSystem(
                        "exchange fails for bases "
                        f"{set(bit_members(b1))} and {set(bit_members(b2))} "
                        f"at element {e.bit_length() - 1}"
                    )

    def rank_fn(x: int) -> int:
        return max((x & b).bit_count() for b in base_masks)

    return matroid_from_rank_oracle(n, rank_fn, names=names)


def is_isomorphic(M: Matroid, N: Matroid):
    """A ground-set bijection carrying Z(M) with ranks onto Z(N), or None.

    A matroid is determined by its cyclic flats with their ranks (Bonin and
    de Mier), so M and N are isomorphic exactly when their incidence posets
    are: the elements as minimal nodes with a label no flat has, the
    cyclic flats labelled (size, rank), and e < Z when e is in Z.  Two
    O(n·t) checks reject most pairs first: the multisets of flat labels,
    and of per-element signatures (the sorted labels of the flats that
    contain the element).  Otherwise the canonical certificates of the two
    posets decide, and the canonical orders compose into the bijection,
    returned as a tuple (image of 0, image of 1, ...).
    """
    if M.n != N.n:
        return None
    if sorted((z.bit_count(), r) for z, r in M.zf) != sorted(
        (z.bit_count(), r) for z, r in N.zf
    ):
        return None

    def elem_sigs(mat: Matroid):
        return sorted(
            tuple(sorted((z.bit_count(), r) for z, r in mat.zf if z >> e & 1))
            for e in range(mat.n)
        )

    if elem_sigs(M) != elem_sigs(N):
        return None
    cert_m, colors_m = _incidence_canonical(M)
    cert_n, colors_n = _incidence_canonical(N)
    if cert_m != cert_n:
        return None
    # elements carry the least label, so they fill positions 0..n-1
    order_n = _inverse_perm(colors_n)
    return tuple(order_n[colors_m[e]] for e in range(M.n))


def _incidence_canonical(M: Matroid) -> tuple[tuple, list[int]]:
    """`_canonical` of the element/cyclic-flat incidence poset of M: node
    e < n is element e, node n + i is the cyclic flat M.zf[i]."""
    n = M.n
    # element e as the set {e}, a flat as Z plus a bit no element has: then
    # containment is the incidence order, and (size, mask) order keeps e at
    # index e and M.zf[i] at n + i
    up, down = _order_masks([1 << e for e in range(n)] + [z | 1 << n for z, _ in M.zf])
    labels = [(-1, -1)] * n + [(z.bit_count(), r) for z, r in M.zf]
    return _canonical(labels, up, down, _covers(up, down))
