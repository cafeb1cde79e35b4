"""Cyclic-flat families: lattice axioms and configurations.

A family of sets with ranks is the cyclic-flat family of a matroid exactly
when it satisfies the axioms checked by :func:`validate_axioms`:

  Z0  the family is a lattice under inclusion (pairwise joins and meets
      exist inside the family);
  Z1  the least member has rank 0;
  Z2  0 < r(Y) - r(X) < |Y - X| for members X ⊊ Y;
  Z3  r(X∨Y) + r(X∧Y) + |(X∩Y) - (X∧Y)| ≤ r(X) + r(Y).

Two labelled posets, configurations or the element/cyclic-flat incidence
posets of `core.is_isomorphic`, are compared by `_matching_leaves` in two
steps that share one stable coloring, computed once per poset (`_Poset`).
First `_refinement_separates` compares node counts, label multisets and
the quotient of the stable coloring, an invariant of isomorphism.  Only
when these agree does the search of `_Poset._canonical`, which starts
from the same coloring, decide: it walks one poset's tree until a leaf
prints the certificate of a leaf of the other, so no canonical form is
needed unless a poset already holds one.

Nothing in this module imports the Matroid class; functions that accept a
matroid use only its rank oracle or its stored cyclic flats, so the axiom
checker can sit below the constructor.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from ._bits import as_mask, bit_members
from .errors import ValidationError

__all__ = [
    "ValidationReport",
    "validate_axioms",
    "Configuration",
    "configuration",
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


def _order_masks(ms: list[int]) -> tuple[list[int], list[int]]:
    """Up-sets and down-sets of distinct masks sorted by (size, mask).

    Bit j of up[i] is set when ms[j] contains ms[i], and bit j of down[i]
    when ms[j] lies inside ms[i]; both hold i itself.  A proper superset has
    more elements, so it sorts later and only the pairs i < j are tested.
    """
    t = len(ms)
    up = [1 << i for i in range(t)]
    down = up[:]
    for i, x in enumerate(ms):
        bit = 1 << i
        row = bit
        for j in range(i + 1, t):
            if ms[j] & x == x:
                row |= 1 << j
                down[j] |= bit
        up[i] = row
    return up, down


def validate_axioms(family) -> ValidationReport:
    """Check whether (set, rank) pairs satisfy the cyclic-flat axioms.

    `family` is a dict {set-or-mask: rank} or an iterable of (set-or-mask,
    rank) pairs.

    After `_order_masks`, one walk over the pairs i < j in (size, mask)
    order checks every axiom on pairs.  A comparable pair X ⊆ Y is checked
    for (Z2) only: its join is Y, its meet is X and the defect is 0, so (Z0)
    holds and (Z3) holds with equality.  An incomparable pair has its join
    and meet found once, for (Z0) and then for (Z3).  A (Z0) failure
    returns at once; the first (Z2) and the first (Z3) failure are kept and
    returned after (Z1), so reports stay axiom-major.  Each order query is
    one AND and one comparison, so the check takes O(t^2) operations on
    t-bit masks for t members.
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
    up, down = _order_masks(ms)

    # x = ms[i] and y = ms[j] for i < j, so only x ⊆ y can make them
    # comparable.  For an incomparable pair the common upper bounds are
    # c = up[i] & up[j]; their first member ji has the least (size, mask),
    # and the join exists iff every bound contains it, that is up[ji] == c.
    # Meets mirror this on down-sets with the last member.
    rk = [ranks[m] for m in ms]
    z2 = z3 = None
    for i in range(t):
        x, ui, di, rx = ms[i], up[i], down[i], rk[i]
        for y, uj, dj, ry in zip(ms[i + 1:], up[i + 1:], down[i + 1:], rk[i + 1:]):
            if y & x == x:
                # Z2: strict rank increase, strictly slower than cardinality
                if z2 is None:
                    dr, dc = ry - rx, (y & ~x).bit_count()
                    if not 0 < dr < dc:
                        z2 = ValidationReport(
                            False, "Z2", _witness(x, y),
                            f"r({_fmt(y)}) - r({_fmt(x)}) = {dr} "
                            f"not strictly between 0 and {dc}",
                        )
                continue
            c = ui & uj
            ji = (c & -c).bit_length() - 1
            if not c or up[ji] != c:
                return ValidationReport(
                    False, "Z0", _witness(x, y),
                    f"{_fmt(x)} and {_fmt(y)} have no join in the family",
                )
            c = di & dj
            mi = c.bit_length() - 1
            if not c or down[mi] != c:
                return ValidationReport(
                    False, "Z0", _witness(x, y),
                    f"{_fmt(x)} and {_fmt(y)} have no meet in the family",
                )
            if z3 is None:
                # Z3: submodularity with the meet-defect term
                lhs = rk[ji] + rk[mi] + (x & y & ~ms[mi]).bit_count()
                if lhs > rx + ry:
                    z3 = ValidationReport(
                        False, "Z3", _witness(x, y),
                        f"r(join) + r(meet) + defect = {lhs} exceeds "
                        f"r(X) + r(Y) = {rx + ry} for X={_fmt(x)}, Y={_fmt(y)}",
                    )

    # Z1: the least member has rank 0 (with Z0 it is the smallest mask)
    if rk[0] != 0:
        return ValidationReport(
            False, "Z1", _witness(ms[0]),
            f"least member {_fmt(ms[0])} has rank {rk[0]}, expected 0",
        )
    return z2 or z3 or ValidationReport(True)


def _witness(*masks: int) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(bit_members(m)) for m in masks)


def _fmt(mask: int) -> str:
    return "{" + ",".join(str(e) for e in bit_members(mask)) + "}"


# -- labelled posets and their canonical form ----------------------------------
#
# Individualization plus refinement over the full order relation.  A
# refinement pass keys a node that is alone in its color by that color,
# and every other node by its color plus the sorted colors of its strict
# down-set and up-set; the color leads every key, so the palette order
# and the partition are those of keying every node in full.  The pass
# stops once no cell splits.  The stable coloring of the labels is the
# root of the search; it is computed once per poset and also gives the
# quotient that `_refinement_separates` compares.
#
# Two prunings keep the minimum over the leaves, hence the certificate,
# and the first leaf reaching it, hence the canonical order:
#  - back-jump: when a leaf prints the certificate of the first or of
#    the best leaf, the map between the two leaves is an automorphism
#    that fixes their common path prefix and carries the sibling the
#    stored leaf descends from onto the current one, so the rest of the
#    current subtree at that depth repeats an explored one.  `rec`
#    returns the prefix length; deeper frames return at once and the
#    frame at that depth goes on with its next sibling.
#  - orbit pruning: the automorphisms found so far that fix the current
#    path pointwise skip a branch candidate that they map from an
#    already-explored sibling.
# A search with a goal prunes the same way and stops at the first leaf
# that meets the goal: `rec` then returns -1, which every frame passes up.


def _refine(colors: list, down: list[list[int]], up: list[list[int]]) -> list[int]:
    while True:
        cells = Counter(colors)
        get = colors.__getitem__
        keys = [
            (
                c,
                tuple(sorted(map(get, down[i]))),
                tuple(sorted(map(get, up[i]))),
            )
            if cells[c] > 1
            else (c,)
            for i, c in enumerate(colors)
        ]
        palette = {k: c for c, k in enumerate(sorted(set(keys)))}
        new = [palette[k] for k in keys]
        if len(palette) == len(cells):
            return new
        colors = new


# the goal of a search that stops at its first leaf
_ANY_LEAF = object()


class _Poset:
    """A labelled poset and the stable coloring its canonical search
    starts from.

    `up[i]` and `down[i]` are the bitmasks of the nodes above and below
    node i, i itself included; `covers` is any list of (lower, upper)
    pairs that determines the order, such as its Hasse diagram.  The
    stable coloring is computed on first use and kept for the life of
    the poset, so the reject and the search share it.
    """

    __slots__ = ("labels", "covers", "_up", "_down", "_root")

    def __init__(self, labels: tuple, covers: tuple, up: list[int], down: list[int]):
        self.labels = labels
        self.covers = covers
        self._up = up
        self._down = down
        self._root = None

    def _stable(self) -> tuple[list[list[int]], list[list[int]], list[int]]:
        """(strict down-sets, strict up-sets, stable coloring of the labels)."""
        if self._root is None:
            strict_down, strict_up = (
                [bit_members(row ^ 1 << i) for i, row in enumerate(rows)]
                for rows in (self._down, self._up)
            )
            init = {lab: c for c, lab in enumerate(sorted(set(self.labels)))}
            colors = _refine([init[lab] for lab in self.labels], strict_down, strict_up)
            self._root = (strict_down, strict_up, colors)
        return self._root

    def _quotient(self) -> tuple:
        """For each stable color in order: (label, cell size, sorted colors
        of one member's strict down-set, sorted colors of its strict
        up-set)."""
        strict_down, strict_up, colors = self._stable()
        sizes = Counter(colors)
        member: dict[int, int] = {}
        for i, c in enumerate(colors):
            member.setdefault(c, i)
        get = colors.__getitem__
        return tuple(
            (
                self.labels[i],
                sizes[c],
                tuple(sorted(map(get, strict_down[i]))),
                tuple(sorted(map(get, strict_up[i]))),
            )
            for c, i in sorted(member.items())
        )

    def _held(self) -> Optional[tuple[tuple, list[int]]]:
        """(certificate, canonical colors) if a full search has stored
        them, else None; a bare poset stores none."""
        return None

    def _canonical(self, goal=None) -> Optional[tuple[tuple, list[int]]]:
        """(certificate, colors) of one leaf of the search tree.

        A leaf's certificate is the labels in the position order of its
        discrete coloring with the covers renumbered by position; its
        colors give each node's position.  Without a goal the search runs
        to the end and returns the least certificate and the first leaf
        that prints it: the canonical form, equal for two labelled posets
        exactly when they are isomorphic.  With the goal `_ANY_LEAF` it
        returns its first leaf, one descent.  With a certificate as the
        goal it returns the first explored leaf that prints it, or None
        once the pruned tree is exhausted; see `_matching_leaves` for why
        that decides isomorphism.
        """
        labels, up, down, covers = self.labels, self._up, self._down, self.covers
        strict_down, strict_up, root = self._stable()
        t = len(labels)
        gens: list[tuple[int, ...]] = []
        first: list = [None]
        best: list = [None]
        hit: list = [None]

        def leaf_cert(colors):
            pos_to_node = _inverse_perm(colors)
            return (
                tuple(labels[i] for i in pos_to_node),
                tuple(sorted((colors[i], colors[j]) for i, j in covers)),
            )

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
            # `colors` is stable: callers refine before they recurse
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
                if goal is _ANY_LEAF or goal == cert:
                    hit[0] = (cert, colors)
                    return -1
                jump = len(path)
                if first[0] is None:
                    first[0] = (cert, colors, path)
                elif cert == first[0][0]:
                    note_automorphism(first[0][1], colors)
                    jump = _common_prefix(first[0][2], path)
                if best[0] is None or cert < best[0][0]:
                    best[0] = (cert, colors, path)
                elif cert == best[0][0]:
                    note_automorphism(best[0][1], colors)
                    jump = min(jump, _common_prefix(best[0][2], path))
                return jump
            v0 = target[0]
            d0 = down[v0] ^ 1 << v0
            u0 = up[v0] ^ 1 << v0
            if all(down[v] ^ 1 << v == d0 and up[v] ^ 1 << v == u0 for v in target[1:]):
                # Twins: equal labels and the same relation to every node
                # outside the class (equal down sets force pairwise
                # incomparability, since a node is never in its own down
                # set).  Every transposition inside the class is then an
                # automorphism, so all |class|! orderings give the same
                # leaf certificates; split in one deterministic step.
                nxt = [(c, 0) for c in colors]
                for off, v in enumerate(target):
                    nxt[v] = (colors[v], off + 1)
                return rec(_refine(nxt, strict_down, strict_up), path)
            explored: list[int] = []
            for x in target:
                if in_explored_orbit(x, explored, path):
                    continue
                explored.append(x)
                nxt = [(c, 1) if j == x else (c, 0) for j, c in enumerate(colors)]
                jump = rec(_refine(nxt, strict_down, strict_up), path + [x])
                if jump < len(path):
                    return jump
            return len(path)

        rec(root, [])
        # rec's closure holds rec itself; emptying the cell breaks that
        # cycle, so the search state is freed by reference counting and
        # not kept until the cyclic collector next runs
        del rec
        if goal is not None:
            return hit[0]
        cert, colors, _ = best[0]
        return cert, colors


def _refinement_separates(p: _Poset, q: _Poset) -> bool:
    """Whether a check cheaper than the canonical search proves that two
    labelled posets are not isomorphic: their node counts, their label
    multisets, or the quotients of their stable colorings differ.

    The quotient is invariant under isomorphism.  The initial colors
    number the sorted set of labels, and each refinement pass numbers the
    sorted set of keys, which are built from colors only.  So an
    isomorphism p -> q carries each color of p onto the same color of q,
    pass by pass, and carries the strict down-set and up-set of a node
    onto those of its image.  In a stable coloring the members of a cell
    share their keys, so the quotient does not depend on the member
    chosen, and isomorphic posets have equal quotients.  Unequal
    quotients therefore prove that p and q are not isomorphic.
    """
    return (
        len(p.labels) != len(q.labels)
        or sorted(p.labels) != sorted(q.labels)
        or p._quotient() != q._quotient()
    )


def _matching_leaves(p: _Poset, q: _Poset) -> Optional[tuple[list[int], list[int]]]:
    """The colors of a leaf of p's search tree and of a leaf of q's that
    print one certificate, or None when p and q are not isomorphic.

    After `_refinement_separates`, certificates held by both posets are
    compared; a certificate held by one is the goal of the other's
    search; when neither holds one, p descends to its first leaf and q's
    search looks for that leaf's certificate.  A pair that does not
    match thus costs at most one descent and one full search, and the
    early-stopping search stores no certificate.  The answer is exact:

    - A match is an isomorphism.  Equal leaf certificates list equal
      labels position by position and the same covers between positions,
      so the map that sends the node of p at each position to the node of
      q at that position carries labels and covers across.
    - The explored leaves print every certificate of the full tree.  A
      skip by orbit pruning passes over the image of an explored sibling
      subtree under an automorphism that fixes the path; a back-jump
      passes over the image of an explored subtree under the automorphism
      between two leaves with one certificate, which fixes their common
      prefix; the twins step takes one of |class|! orderings that
      transpositions, automorphisms too, carry onto each other.  Images
      of a subtree print the same certificates, so by induction on the
      order of the search every certificate has an explored leaf.
    - If p and q are isomorphic, q's tree holds p's leaf certificates.
      Refinement, the choice of the target cell (the least color with two
      or more nodes) and the twins test are all equivariant, so an
      isomorphism p -> q carries p's tree onto q's, leaf onto leaf with
      the same certificate; by the point above, q's search explores one.
    """
    if _refinement_separates(p, q):
        return None
    held_p, held_q = p._held(), q._held()
    if held_p is not None and held_q is not None:
        return (held_p[1], held_q[1]) if held_p[0] == held_q[0] else None
    if held_q is not None:
        leaf_p = p._canonical(held_q[0])
        return None if leaf_p is None else (leaf_p[1], held_q[1])
    leaf_p = held_p or p._canonical(_ANY_LEAF)
    leaf_q = q._canonical(leaf_p[0])
    return None if leaf_q is None else (leaf_p[1], leaf_q[1])


class Configuration(_Poset):
    """The labeled lattice shape of a cyclic-flat family.

    Nodes carry (size, rank) labels; `covers` lists (lower, upper) index
    pairs.  Two configurations are equal when a poset isomorphism matches
    both labels.  Equality is decided by `_matching_leaves`, which also
    decides matroid isomorphism: it first tries to separate the two by
    `_refinement_separates` (node counts, label multisets, then the
    quotient of the stable coloring); only when that fails does the
    individualization-refinement search of `_Poset._canonical` look, in
    one configuration's tree, for a leaf that prints the certificate of
    the other's first leaf, or of its canonical form once `certificate`
    has been read.  Both steps start from the same stable coloring, which
    is computed once per configuration.  Equality stores no certificate:
    only `certificate`, `canonical_order` and hashing run the full search.

    `coloop_count` rides along for reporting because the lattice alone
    cannot see coloops; it is deliberately not part of equality.
    """

    __slots__ = (
        "coloop_count",
        "_bottom",
        "_top",
        "_cert",
        "_canon_colors",
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
        succ: list[list[int]] = [[] for _ in range(t)]
        for lo, hi in covers:
            lo, hi = int(lo), int(hi)
            if not (0 <= lo < t and 0 <= hi < t) or lo == hi:
                raise ValidationError(f"bad cover pair ({lo}, {hi})")
            succ[lo].append(hi)
        up = _up_sets(succ)
        down = [1 << i for i in range(t)]
        for i, row in enumerate(up):
            for j in bit_members(row ^ 1 << i):
                down[j] |= 1 << i
        cov = _covers(up, down)
        bottoms = [i for i in range(t) if down[i] == 1 << i]
        tops = [i for i in range(t) if up[i] == 1 << i]
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
        super().__init__(labels, tuple(cov), up, down)
        self.coloop_count = int(coloop_count)
        self._bottom = bottoms[0]
        self._top = tops[0]
        self._cert = None
        self._canon_colors = None

    # -- poset views ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    def size(self, i: int) -> int:
        return self.labels[i][0]

    def rho(self, i: int) -> int:
        return self.labels[i][1]

    def leq(self, i: int, j: int) -> bool:
        return bool(self._up[i] >> j & 1)

    @property
    def bottom(self) -> int:
        return self._bottom

    @property
    def top(self) -> int:
        return self._top

    def nodes_of_rho(self, r: int) -> list[int]:
        return [i for i, (_, rr) in enumerate(self.labels) if rr == r]

    def join(self, *nodes: int) -> Optional[int]:
        """The least common upper bound of `nodes`, or None if there is none."""
        common = (1 << len(self.labels)) - 1
        for i in nodes:
            common &= self._up[i]
        for k in bit_members(common):
            if self._up[k] == common:
                return k
        return None

    def strictly_between(self, lo: int, hi: int) -> list[int]:
        return bit_members(self._up[lo] & self._down[hi] & ~(1 << lo | 1 << hi))

    # -- canonical form --------------------------------------------------------

    def _search(self) -> None:
        self._cert, self._canon_colors = self._canonical()

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

    def _held(self) -> Optional[tuple[tuple, list[int]]]:
        return None if self._cert is None else (self._cert, self._canon_colors)

    def __eq__(self, other) -> bool:
        return isinstance(other, Configuration) and _matching_leaves(self, other) is not None

    def __hash__(self) -> int:
        return hash(self.certificate)

    def __repr__(self) -> str:
        return f"Configuration(nodes={len(self.labels)}, top={self.labels[self.top]})"


def _common_prefix(a: list[int], b: list[int]) -> int:
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


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
    zf = M.zf  # sorted by (size, mask)
    covers = _covers(*_order_masks([z for z, _ in zf]))
    labels = [(z.bit_count(), r) for z, r in zf]
    return Configuration(labels, covers, coloop_count=M.n - zf[-1][0].bit_count())


def _covers(up: list[int], down: list[int]) -> list[tuple[int, int]]:
    """The Hasse diagram in (lower, upper) order: i < j is a cover when
    the interval [i, j], up[i] & down[j], holds only its two ends."""
    return [
        (i, j)
        for i, row in enumerate(up)
        for j in bit_members(row ^ 1 << i)
        if row & down[j] == 1 << i | 1 << j
    ]


def _up_sets(succ: list[list[int]]) -> list[int]:
    """Up-sets of the order generated by the edges i -> succ[i], one
    depth-first pass with memoised rows; raises on a cycle."""
    t = len(succ)
    up = [0] * t
    state = [0] * t  # 0 unseen, 1 on the current path, 2 done
    for root in range(t):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            i, rest = stack[-1]
            for j in rest:
                if state[j] == 1:
                    raise ValidationError("cover relation contains a cycle")
                if not state[j]:
                    state[j] = 1
                    stack.append((j, iter(succ[j])))
                    break
            else:
                stack.pop()
                row = 1 << i
                for j in succ[i]:
                    row |= up[j]
                up[i] = row
                state[i] = 2
    return up
