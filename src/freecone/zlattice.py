"""Cyclic-flat families: lattice axioms and configurations.

A family of sets with ranks is the cyclic-flat family of a matroid exactly
when it satisfies the axioms checked by :func:`validate_axioms`:

  Z0  the family is a lattice under inclusion (pairwise joins and meets
      exist inside the family);
  Z1  the least member has rank 0;
  Z2  0 < r(Y) - r(X) < |Y - X| for members X ⊊ Y;
  Z3  r(X∨Y) + r(X∧Y) + |(X∩Y) - (X∧Y)| ≤ r(X) + r(Y).

The canonical form of a labelled poset, `_canonical`, decides both the
equality of configurations and, on element/cyclic-flat incidence posets,
the isomorphism of matroids (`core.is_isomorphic`).

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


class Configuration:
    """The labeled lattice shape of a cyclic-flat family.

    Nodes carry (size, rank) labels; `covers` lists (lower, upper) index
    pairs.  Two configurations are equal when a poset isomorphism matches
    both labels; equality compares the canonical certificates of
    `_canonical`, the exact individualization-refinement search that also
    decides matroid isomorphism.

    `coloop_count` rides along for reporting because the lattice alone
    cannot see coloops; it is deliberately not part of equality.
    """

    __slots__ = (
        "labels",
        "covers",
        "coloop_count",
        "_up",
        "_down",
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
        self.labels = labels
        self.covers = tuple(cov)
        self.coloop_count = int(coloop_count)
        self._up = up
        self._down = down
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
        self._cert, self._canon_colors = _canonical(self.labels, self._up, self._down, self.covers)

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


# -- canonical form ------------------------------------------------------------
#
# Individualization plus refinement over the full order relation.  A
# refinement pass keys a node that is alone in its color by that color,
# and every other node by its color plus the sorted colors of its strict
# down-set and up-set; the color leads every key, so the palette order
# and the partition are those of keying every node in full.  The pass
# stops once no cell splits.
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


def _canonical(labels, up, down, covers) -> tuple[tuple, list[int]]:
    """(certificate, canonical colors) of a labelled poset.

    `up[i]` and `down[i]` are the bitmasks of the nodes above and below
    node i, i itself included; `covers` is any list of (lower, upper)
    pairs that determines the order, such as its Hasse diagram.  The
    certificate is the labels in canonical position order with the
    covers renumbered by position, so two labelled posets are isomorphic
    exactly when their certificates are equal; the colors give each
    node's position, and composing one poset's colors with the inverse
    of the other's is an isomorphism.
    """
    t = len(labels)
    strict_down, strict_up = (
        [bit_members(row ^ 1 << i) for i, row in enumerate(rows)] for rows in (down, up)
    )
    init = {lab: c for c, lab in enumerate(sorted(set(labels)))}
    gens: list[tuple[int, ...]] = []
    first: list = [None]
    best: list = [None]

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
        colors = _refine(colors, strict_down, strict_up)
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
            return rec(nxt, path)
        explored: list[int] = []
        for x in target:
            if in_explored_orbit(x, explored, path):
                continue
            explored.append(x)
            nxt = [(c, 1) if j == x else (c, 0) for j, c in enumerate(colors)]
            jump = rec(nxt, path + [x])
            if jump < len(path):
                return jump
        return len(path)

    rec([init[lab] for lab in labels], [])
    # rec's closure holds rec itself; emptying the cell breaks that cycle,
    # so the poset is freed by reference counting and not kept until the
    # cyclic collector next runs
    del rec
    cert, colors, _ = best[0]
    return cert, colors


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
