"""Cyclic-flat families: lattice axioms, recomputation, configurations.

A family of sets with ranks is the cyclic-flat family of a matroid exactly
when it satisfies the axioms checked by :func:`validate_axioms`:

  Z0  the family is a lattice under inclusion (pairwise joins and meets
      exist inside the family);
  Z1  the least member has rank 0;
  Z2  0 < r(Y) - r(X) < |Y - X| for members X ⊊ Y;
  Z3  r(X∨Y) + r(X∧Y) + |(X∩Y) - (X∧Y)| ≤ r(X) + r(Y).

Nothing in this module imports the Matroid class; functions that accept a
matroid use only its rank oracle or its stored cyclic flats, so the axiom
checker can sit below the constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ._bits import as_mask, bit_members
from .errors import ValidationError

__all__ = [
    "ValidationReport",
    "validate_axioms",
    "cyclic_flats",
    "Configuration",
    "configuration",
    "configurations_equal",
]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an axiom check: ok, or the first violation found.

    Violations are reported axiom-major (all of Z0 before Z1, and so on)
    and, within an axiom, on the first offending pair in (size, mask)
    order, so reports are deterministic.
    """

    ok: bool
    axiom: Optional[str] = None
    witness: tuple = ()
    message: str = ""


def _join_index(ms: list[int], x: int, y: int) -> Optional[int]:
    u = x | y
    cands = [k for k, m in enumerate(ms) if m & u == u]
    if not cands:
        return None
    best = min(cands, key=lambda k: (ms[k].bit_count(), ms[k]))
    for k in cands:
        if ms[best] & ms[k] != ms[best]:
            return None
    return best


def _meet_index(ms: list[int], x: int, y: int) -> Optional[int]:
    u = x & y
    cands = [k for k, m in enumerate(ms) if m & u == m]
    if not cands:
        return None
    best = max(cands, key=lambda k: (ms[k].bit_count(), -ms[k]))
    for k in cands:
        if ms[k] & ms[best] != ms[k]:
            return None
    return best


def validate_axioms(family, incomparable_only: bool = False) -> ValidationReport:
    """Check whether (set, rank) pairs satisfy the cyclic-flat axioms.

    `family` is a dict {set-or-mask: rank} or an iterable of (set-or-mask,
    rank) pairs.  With `incomparable_only`, (Z3) is checked only on
    incomparable pairs; comparable pairs satisfy it identically, so both
    modes accept the same families.
    """
    if isinstance(family, dict):
        items = family.items()
    else:
        items = list(family)
    ranks: dict[int, int] = {}
    for s, r in items:
        m = as_mask(s)
        if not isinstance(r, int) or isinstance(r, bool):
            raise TypeError(f"rank of {s!r} must be an integer")
        if m in ranks and ranks[m] != r:
            return ValidationReport(
                False, "Z0", _witness(m),
                f"set {_fmt(m)} appears with two ranks ({ranks[m]} and {r})",
            )
        ranks[m] = r
    ms = sorted(ranks, key=lambda m: (m.bit_count(), m))
    t = len(ms)
    if t == 0:
        return ValidationReport(False, "Z0", (), "the family is empty, so it is not a lattice")

    # Z0: pairwise joins and meets must exist inside the family
    joins: dict[tuple[int, int], int] = {}
    meets: dict[tuple[int, int], int] = {}
    for i in range(t):
        for j in range(i + 1, t):
            ji = _join_index(ms, ms[i], ms[j])
            if ji is None:
                return ValidationReport(
                    False, "Z0", _witness(ms[i], ms[j]),
                    f"{_fmt(ms[i])} and {_fmt(ms[j])} have no join in the family",
                )
            mi = _meet_index(ms, ms[i], ms[j])
            if mi is None:
                return ValidationReport(
                    False, "Z0", _witness(ms[i], ms[j]),
                    f"{_fmt(ms[i])} and {_fmt(ms[j])} have no meet in the family",
                )
            joins[i, j] = ji
            meets[i, j] = mi

    # Z1: the least member has rank 0 (with Z0 it is the smallest mask)
    bottom = ms[0]
    if ranks[bottom] != 0:
        return ValidationReport(
            False, "Z1", _witness(bottom),
            f"least member {_fmt(bottom)} has rank {ranks[bottom]}, expected 0",
        )

    # Z2: strict rank increase, strictly slower than cardinality
    for i in range(t):
        for j in range(t):
            x, y = ms[i], ms[j]
            if x == y or x & y != x:
                continue
            dr = ranks[y] - ranks[x]
            dc = (y & ~x).bit_count()
            if not 0 < dr < dc:
                return ValidationReport(
                    False, "Z2", _witness(x, y),
                    f"r({_fmt(y)}) - r({_fmt(x)}) = {dr} not strictly between 0 and {dc}",
                )

    # Z3: submodularity with the meet-defect term
    for i in range(t):
        for j in range(i + 1, t):
            x, y = ms[i], ms[j]
            if incomparable_only and (x & y == x or x & y == y):
                continue
            jv = ms[joins[i, j]]
            mv = ms[meets[i, j]]
            defect = ((x & y) & ~mv).bit_count()
            lhs = ranks[jv] + ranks[mv] + defect
            rhs = ranks[x] + ranks[y]
            if lhs > rhs:
                return ValidationReport(
                    False, "Z3", _witness(x, y),
                    f"r(join) + r(meet) + defect = {lhs} exceeds r(X) + r(Y) = {rhs} "
                    f"for X={_fmt(x)}, Y={_fmt(y)}",
                )

    return ValidationReport(True)


def _witness(*masks: int) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(bit_members(m)) for m in masks)


def _fmt(mask: int) -> str:
    return "{" + ",".join(str(e) for e in bit_members(mask)) + "}"


def cyclic_flats(M) -> list[tuple[frozenset[int], int]]:
    """Recompute the cyclic flats of `M` by walking its flat lattice.

    Scans the whole flat lattice and keeps the flats whose restriction has
    no coloops.  Closure and coloops are read from `M`'s stored family, so
    this is a consistency check of that family (it must find exactly its
    members), not an independent oracle; those live in the test suite's
    brute-force oracles.  Use it at desk scale only.
    """
    out = []
    for r, level in enumerate(M.flats_by_rank()):
        for f in level:
            if M.is_cyclic_mask(f):
                out.append((frozenset(bit_members(f)), r))
    out.sort(key=lambda fr: (len(fr[0]), sorted(fr[0])))
    return out


class Configuration:
    """The labeled lattice shape of a cyclic-flat family.

    Nodes carry (size, rank) labels; `covers` lists (lower, upper) index
    pairs.  Two configurations are equal when a poset isomorphism matches
    both labels; equality is decided through a canonical certificate
    (color refinement plus individualization, exact at desk scale).

    `coloop_count` rides along for reporting because the lattice alone
    cannot see coloops; it is deliberately not part of equality.
    """

    __slots__ = (
        "labels",
        "covers",
        "coloop_count",
        "_leq",
        "_down",
        "_up",
        "_cert",
        "_canon_colors",
        "_ordsets",
    )

    def __init__(
        self,
        labels: Iterable[tuple[int, int]],
        covers: Iterable[tuple[int, int]],
        coloop_count: int = 0,
    ):
        labels = tuple((int(s), int(r)) for s, r in labels)
        t = len(labels)
        if t == 0:
            raise ValidationError("a configuration needs at least one node")
        for s, r in labels:
            if s < 0 or r < 0:
                raise ValidationError("node sizes and ranks must be nonnegative")
        adj = [set() for _ in range(t)]
        for lo, hi in covers:
            lo, hi = int(lo), int(hi)
            if not (0 <= lo < t and 0 <= hi < t) or lo == hi:
                raise ValidationError(f"bad cover pair ({lo}, {hi})")
            adj[lo].add(hi)
        # transitive closure, with cycle detection
        leq = [1 << i for i in range(t)]
        changed = True
        while changed:
            changed = False
            for i in range(t):
                acc = leq[i]
                for j in adj[i]:
                    acc |= leq[j]
                if acc != leq[i]:
                    leq[i] = acc
                    changed = True
        for i in range(t):
            for j in adj[i]:
                if leq[j] >> i & 1:
                    raise ValidationError("cover relation contains a cycle")
        # Hasse diagram = transitive reduction of the given relation
        down = [[] for _ in range(t)]
        up = [[] for _ in range(t)]
        cov = []
        for i in range(t):
            for j in range(t):
                if i == j or not (leq[i] >> j & 1):
                    continue
                direct = True
                for k in range(t):
                    if k != i and k != j and (leq[i] >> k & 1) and (leq[k] >> j & 1):
                        direct = False
                        break
                if direct:
                    cov.append((i, j))
                    up[i].append(j)
                    down[j].append(i)
        bottoms = [i for i in range(t) if not down[i]]
        tops = [i for i in range(t) if not up[i]]
        if len(bottoms) != 1 or len(tops) != 1:
            raise ValidationError("a configuration has a unique least and a unique greatest node")
        for i, j in cov:
            if not (labels[i][0] < labels[j][0] and labels[i][1] < labels[j][1]):
                raise ValidationError(
                    f"sizes and ranks must strictly increase along covers; "
                    f"{labels[i]} is covered by {labels[j]}"
                )
        if labels[bottoms[0]][1] != 0:
            raise ValidationError("the least node must have rank 0")
        self.labels = labels
        self.covers = tuple(sorted(cov))
        self.coloop_count = int(coloop_count)
        self._leq = leq
        self._down = [tuple(d) for d in down]
        self._up = [tuple(u) for u in up]
        self._cert = None
        self._canon_colors = None
        self._ordsets = None

    # -- poset views ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    def size(self, i: int) -> int:
        return self.labels[i][0]

    def rho(self, i: int) -> int:
        return self.labels[i][1]

    def leq(self, i: int, j: int) -> bool:
        return bool(self._leq[i] >> j & 1)

    @property
    def bottom(self) -> int:
        return next(i for i in range(len(self.labels)) if not self._down[i])

    @property
    def top(self) -> int:
        return next(i for i in range(len(self.labels)) if not self._up[i])

    def nodes_of_rho(self, r: int) -> list[int]:
        return [i for i, (_, rr) in enumerate(self.labels) if rr == r]

    def join(self, i: int, j: int) -> Optional[int]:
        """The unique minimal common upper bound, or None if there is none."""
        t = len(self.labels)
        ups = [k for k in range(t) if self.leq(i, k) and self.leq(j, k)]
        mins = [k for k in ups if not any(u != k and self.leq(u, k) for u in ups)]
        if len(mins) == 1:
            return mins[0]
        return None

    def strictly_between(self, lo: int, hi: int) -> list[int]:
        return [
            k
            for k in range(len(self.labels))
            if k != lo and k != hi and self.leq(lo, k) and self.leq(k, hi)
        ]

    # -- canonical form --------------------------------------------------------
    #
    # Individualization plus refinement over the full order relation, with
    # orbit pruning: whenever two search leaves print the same canonical
    # string, their colorings compose to an automorphism, and a branch
    # candidate is skipped when a discovered automorphism fixing the current
    # path pointwise maps an already-explored sibling onto it.  Skipped
    # subtrees are images of explored ones, so the minimum over the
    # remaining leaves, hence the certificate, is unchanged.

    def _order_sets(self):
        if self._ordsets is None:
            t = len(self.labels)
            down = [[] for _ in range(t)]
            up = [[] for _ in range(t)]
            for i in range(t):
                row = self._leq[i]
                for j in range(t):
                    if j != i and row >> j & 1:
                        up[i].append(j)
                        down[j].append(i)
            self._ordsets = (down, up)
        return self._ordsets

    def _refine(self, colors: list) -> list[int]:
        down, up = self._order_sets()
        t = len(self.labels)
        while True:
            keys = [
                (
                    colors[i],
                    tuple(sorted(colors[j] for j in down[i])),
                    tuple(sorted(colors[j] for j in up[i])),
                )
                for i in range(t)
            ]
            palette = {k: c for c, k in enumerate(sorted(set(keys)))}
            new = [palette[k] for k in keys]
            if new == colors:
                return new
            colors = new

    def _search(self) -> None:
        t = len(self.labels)
        init = {lab: c for c, lab in enumerate(sorted(set(self.labels)))}
        gens: list[tuple[int, ...]] = []
        first: list = [None]
        best: list = [None]

        def leaf_cert(colors):
            pos_to_node = _inverse_perm(colors)
            labels = tuple(self.labels[i] for i in pos_to_node)
            covers = tuple(sorted((colors[i], colors[j]) for i, j in self.covers))
            return (labels, covers)

        def note_automorphism(c1, c2):
            if len(gens) >= 64:
                return
            inv1, inv2 = _inverse_perm(c1), _inverse_perm(c2)
            gamma = [0] * t
            for pos in range(t):
                gamma[inv1[pos]] = inv2[pos]
            if any(gamma[i] != i for i in range(t)):
                gens.append(tuple(gamma))

        def in_explored_orbit(x, explored, path):
            usable = [g for g in gens if all(g[v] == v for v in path)]
            if not usable:
                return False
            for e in explored:
                seen = {e}
                frontier = [e]
                while frontier:
                    v = frontier.pop()
                    if v == x:
                        return True
                    for g in usable:
                        w = g[v]
                        if w not in seen:
                            seen.add(w)
                            frontier.append(w)
                if x in seen:
                    return True
            return False

        def rec(colors, path):
            colors = self._refine(colors)
            groups: dict[int, list[int]] = {}
            for i, c in enumerate(colors):
                groups.setdefault(c, []).append(i)
            target = None
            for c in sorted(groups):
                if len(groups[c]) > 1:
                    target = groups[c]
                    break
            if target is None:
                cert = leaf_cert(colors)
                if first[0] is None:
                    first[0] = (cert, colors)
                elif cert == first[0][0] and colors != first[0][1]:
                    note_automorphism(first[0][1], colors)
                if best[0] is None or cert < best[0][0]:
                    best[0] = (cert, colors)
                elif cert == best[0][0] and colors != best[0][1]:
                    note_automorphism(best[0][1], colors)
                return
            down, up = self._order_sets()
            d0 = set(down[target[0]])
            u0 = set(up[target[0]])
            if all(set(down[v]) == d0 and set(up[v]) == u0 for v in target[1:]):
                # Twins: equal labels and the same relation to every node
                # outside the class (equal down sets force pairwise
                # incomparability, since a node is never in its own down
                # set).  Every transposition inside the class is then an
                # automorphism, so all |class|! orderings give the same
                # leaf certificates; split in one deterministic step.
                nxt = [(c, 0) for c in colors]
                for off, v in enumerate(target):
                    nxt[v] = (colors[v], off + 1)
                rec(nxt, path)
                return
            explored: list[int] = []
            for x in target:
                if in_explored_orbit(x, explored, path):
                    continue
                explored.append(x)
                nxt = [(c, 1) if j == x else (c, 0) for j, c in enumerate(colors)]
                rec(nxt, path + [x])

        rec([init[lab] for lab in self.labels], [])
        self._cert, self._canon_colors = best[0]

    @property
    def certificate(self) -> tuple:
        if self._cert is None:
            self._search()
        return self._cert

    def canonical_order(self) -> list[int]:
        """Node indices listed in certificate position order."""
        if self._cert is None:
            self._search()
        return _inverse_perm(self._canon_colors)

    def __eq__(self, other) -> bool:
        return isinstance(other, Configuration) and self.certificate == other.certificate

    def __hash__(self) -> int:
        return hash(self.certificate)

    def __repr__(self) -> str:
        return f"Configuration(nodes={len(self.labels)}, top={self.labels[self.top]})"


def _inverse_perm(colors: list[int]) -> list[int]:
    out = [0] * len(colors)
    for i, c in enumerate(colors):
        out[c] = i
    return out


def configuration(M) -> Configuration:
    """The configuration of a matroid: its cyclic-flat lattice with each
    node reduced to (size, rank).

    Coloops are invisible to the lattice, so their count is attached as a
    side channel on the result and excluded from equality.
    """
    zf = list(M.zf)
    labels = [(z.bit_count(), r) for z, r in zf]
    covers = []
    t = len(zf)
    for i in range(t):
        for j in range(t):
            zi, zj = zf[i][0], zf[j][0]
            if i == j or zi & zj != zi:
                continue
            covers.append((i, j))
    top = max(range(t), key=lambda i: zf[i][0].bit_count())
    coloops = M.n - zf[top][0].bit_count()
    return Configuration(labels, covers, coloop_count=coloops)


def configurations_equal(c1: Configuration, c2: Configuration) -> bool:
    """True when a lattice isomorphism matches both size and rank labels."""
    return c1 == c2
