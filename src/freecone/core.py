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
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional, Sequence

from ._bits import as_mask, bit_members
from .errors import AxiomViolation, GroundSetTooLarge, NotABasisSystem
from .zlattice import validate_axioms

__all__ = [
    "Matroid",
    "from_cyclic_flats",
    "from_bases",
    "matroid_from_rank_oracle",
    "is_isomorphic",
    "as_mask",
    "bit_members",
]

# Enumerating every flat is exponential; this is the documented ceiling for
# operations that walk the whole flat lattice through this module.
FLAT_ENUMERATION_BOUND = 16
ISOMORPHISM_BOUND = 10


def _compress_mask(mask: int, kept: Sequence[int]) -> int:
    """Re-index a mask onto positions 0..len(kept)-1 following `kept` order."""
    out = 0
    for new, old in enumerate(kept):
        if mask >> old & 1:
            out |= 1 << new
    return out


class Matroid:
    """Immutable matroid given by cyclic flats with ranks.

    Instances should be built through :func:`from_cyclic_flats`,
    :func:`from_bases` or :func:`matroid_from_rank_oracle`, which validate
    their input.  Equality compares ground-set size and the cyclic-flat
    family; display names are presentation only.
    """

    __slots__ = ("n", "names", "zf", "_full", "_zneg", "_covers", "_flats")

    def __init__(self, n: int, zf: Sequence[tuple[int, int]], names=None):
        self.n = n
        self.zf = tuple(sorted(zf, key=lambda zr: (zr[0].bit_count(), zr[0])))
        if names is None:
            names = tuple(str(e) for e in range(n))
        else:
            names = tuple(names)
        if len(names) != n or len(set(names)) != n:
            raise ValueError("need n distinct element names")
        self.names = names
        self._full = (1 << n) - 1
        self._zneg = tuple((self._full & ~z, r) for z, r in self.zf)
        self._covers: dict[int, tuple[int, ...]] = {}
        self._flats: Optional[list[list[int]]] = None

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

    def id_of(self, name: str) -> int:
        return self.names.index(name)

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

    def rank(self, x: Iterable[int] | int) -> int:
        return self.rank_mask(as_mask(x) & self._full)

    def independent_mask(self, x: int) -> bool:
        """X is independent iff |X ∩ Z| ≤ r(Z) for every cyclic flat Z."""
        for z, rz in self.zf:
            if (x & z).bit_count() > rz:
                return False
        return True

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

    def closure(self, x: Iterable[int] | int) -> set[int]:
        return set(bit_members(self.closure_mask(as_mask(x) & self._full)))

    def is_flat_mask(self, x: int) -> bool:
        return self.closure_mask(x) == x

    def coloops_of_restriction_mask(self, x: int) -> int:
        return x & self._minimizers(x)[2]

    def coloops_of_restriction(self, x: Iterable[int] | int) -> set[int]:
        return set(bit_members(self.coloops_of_restriction_mask(as_mask(x) & self._full)))

    def is_cyclic_mask(self, x: int) -> bool:
        return self.coloops_of_restriction_mask(x) == 0

    # -- the flat lattice ----------------------------------------------------

    def covers_mask(self, f: int) -> tuple[int, ...]:
        """Flats covering the flat `f`.

        The distinct covers of f partition the complement of f, so walking
        the least unseen element and taking one closure per cover visits
        each cover exactly once.
        """
        hit = self._covers.get(f)
        if hit is not None:
            return hit
        covers = []
        rem = self._full & ~f
        while rem:
            b = rem & -rem
            g = self.closure_mask(f | b)
            covers.append(g)
            rem &= ~g
        out = tuple(covers)
        self._covers[f] = out
        return out

    def flats_by_rank(self) -> list[list[int]]:
        """All flats as masks, grouped by rank (index = rank)."""
        if self._flats is not None:
            return self._flats
        if self.n > FLAT_ENUMERATION_BOUND:
            raise GroundSetTooLarge(
                f"flat enumeration supported up to n={FLAT_ENUMERATION_BOUND}, got n={self.n}"
            )
        levels = [[self.closure_mask(0)]]
        while True:
            nxt = set()
            for f in levels[-1]:
                nxt.update(self.covers_mask(f))
            if not nxt:
                break
            levels.append(sorted(nxt))
        self._flats = levels
        return levels

    def flats_of_rank(self, i: int) -> list[set[int]]:
        levels = self.flats_by_rank()
        if not 0 <= i < len(levels):
            raise ValueError(f"rank {i} out of range 0..{len(levels) - 1}")
        return [set(bit_members(f)) for f in levels[i]]

    def all_flats(self) -> list[tuple[set[int], int]]:
        out = []
        for r, level in enumerate(self.flats_by_rank()):
            for f in level:
                out.append((set(bit_members(f)), r))
        return out

    # -- bases ---------------------------------------------------------------

    def bases_masks(self) -> list[int]:
        if self.n > FLAT_ENUMERATION_BOUND:
            raise GroundSetTooLarge(
                f"basis enumeration supported up to n={FLAT_ENUMERATION_BOUND}, got n={self.n}"
            )
        r = self.rank_int
        nonloops = bit_members(self._full & ~self.loops_mask)
        out = []
        for combo in itertools.combinations(nonloops, r):
            m = 0
            for e in combo:
                m |= 1 << e
            if self.independent_mask(m):
                out.append(m)
        return out

    def bases(self) -> list[frozenset[int]]:
        return [frozenset(bit_members(b)) for b in self.bases_masks()]

    # -- minors ----------------------------------------------------------------

    def delete(self, x: Iterable[int] | int, validate: bool = True) -> "Matroid":
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
        return from_cyclic_flats(entries, len(kept), names=names, validate=validate)

    def restrict(self, x: Iterable[int] | int, validate: bool = True) -> "Matroid":
        xmask = as_mask(x) & self._full
        return self.delete(self._full & ~xmask, validate=validate)

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


def from_cyclic_flats(
    sets_with_ranks,
    n: int,
    names=None,
    validate: bool = True,
) -> Matroid:
    """Build a matroid from (set, rank) pairs, checking the lattice axioms.

    `sets_with_ranks` may be a dict {set-or-mask: rank} or an iterable of
    (set-or-mask, rank) pairs.  Raises AxiomViolation when the family with
    its ranks is not the cyclic-flat family of any matroid.
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
    if validate:
        report = validate_axioms(entries)
        if not report.ok:
            raise AxiomViolation(report.axiom, report.witness, report.message)
    elif len({m for m, _ in entries}) != len(entries):
        # unvalidated path still needs a well-defined representation
        raise ValueError("duplicate sets in cyclic-flat family")
    return Matroid(n, sorted(set(entries)), names=names)


def matroid_from_rank_oracle(
    n: int,
    rank_fn: Callable[[int], int],
    names=None,
    validate: bool = True,
) -> Matroid:
    """Extract cyclic flats from a rank oracle on bitmasks and build a matroid.

    The oracle must be the rank function of a matroid on {0,...,n-1}; the
    construction walks the flat lattice, keeps the flats without coloops,
    and (by default) validates the result, which catches non-matroidal
    oracles at desk scale.
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
    return from_cyclic_flats(entries, n, names=names, validate=validate)


def from_bases(bases, n: int, names=None) -> Matroid:
    """Build a matroid from its collection of bases.

    Checks the exchange property on every ordered pair and raises
    NotABasisSystem with a witnessing pair when it fails.  The rank
    function used for extraction is r(X) = max over bases B of |X ∩ B|.
    """
    base_masks = sorted({as_mask(b) for b in bases})
    if not base_masks:
        raise NotABasisSystem("at least one basis is required")
    for b in base_masks:
        if b < 0 or b >= (1 << n):
            raise NotABasisSystem(f"basis {b:#x} is not a subset of the ground set")
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


def is_isomorphic(M: Matroid, N: Matroid, max_n: int = ISOMORPHISM_BOUND):
    """A ground-set bijection carrying Z(M) with ranks onto Z(N), or None.

    Backtracking over element images, pruned by per-element and per-pair
    incidence signatures over the cyclic-flat families.  Returns the
    bijection as a tuple (image of 0, image of 1, ...).
    """
    if M.n != N.n:
        return None
    n = M.n
    if n > max_n:
        raise GroundSetTooLarge(f"isomorphism search supported up to n={max_n}, got n={n}")
    if sorted((z.bit_count(), r) for z, r in M.zf) != sorted(
        (z.bit_count(), r) for z, r in N.zf
    ):
        return None

    def elem_sigs(mat: Matroid):
        return [
            tuple(sorted((z.bit_count(), r) for z, r in mat.zf if z >> e & 1))
            for e in range(n)
        ]

    sm, sn = elem_sigs(M), elem_sigs(N)
    if sorted(sm) != sorted(sn):
        return None

    def pair_sig(mat: Matroid, i: int, j: int):
        both = (1 << i) | (1 << j)
        return tuple(sorted((z.bit_count(), r) for z, r in mat.zf if z & both == both))

    pm = {}
    pn = {}
    for i in range(n):
        for j in range(i + 1, n):
            pm[i, j] = pair_sig(M, i, j)
            pn[i, j] = pair_sig(N, i, j)

    # rare signatures first shrinks the branching factor
    freq: dict = {}
    for s in sm:
        freq[s] = freq.get(s, 0) + 1
    order = sorted(range(n), key=lambda e: (freq[sm[e]], e))
    target = sorted(N.zf)
    perm = [-1] * n
    used = [False] * n

    def leaf_ok() -> bool:
        mapped = []
        for z, r in M.zf:
            m = 0
            for e in bit_members(z):
                m |= 1 << perm[e]
            mapped.append((m, r))
        return sorted(mapped) == target

    def bt(idx: int) -> bool:
        if idx == n:
            return leaf_ok()
        e = order[idx]
        for f in range(n):
            if used[f] or sn[f] != sm[e]:
                continue
            ok = True
            for prev in range(idx):
                e2 = order[prev]
                f2 = perm[e2]
                a = pm[min(e, e2), max(e, e2)]
                b = pn[min(f, f2), max(f, f2)]
                if a != b:
                    ok = False
                    break
            if not ok:
                continue
            perm[e] = f
            used[f] = True
            if bt(idx + 1):
                return True
            perm[e] = -1
            used[f] = False
        return False

    if bt(0):
        return tuple(perm)
    return None
