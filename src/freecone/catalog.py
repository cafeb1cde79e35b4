"""Named example matroids and the fixture set used across the test suite.

Everything here is loopless and desk-scale.  Two distinguished pairs are
exposed: example_pair() gives the six-element pair with equal G-invariant
and equal configuration-level data but different cone configurations, and
separating_pair() gives the seven-element pair with equal Tutte
polynomials whose G-invariants (and free-cone Tutte polynomials) differ.
search_separating_pair() re-finds such a pair from scratch.
"""

from __future__ import annotations

import itertools

from .cone import free_m_cone
from .core import Matroid, from_cyclic_flats
from .invariants import g_invariant, src_data, tutte

__all__ = [
    "uniform",
    "rank_two",
    "points_and_lines",
    "example_pair",
    "separating_pair",
    "verify_separating_claims",
    "search_separating_pair",
    "fixture_matroids",
]


def uniform(k: int, n: int) -> Matroid:
    """U_{k,n}; requires k >= 1 or n == 0 so the result is loopless."""
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    if k == 0 and n > 0:
        raise ValueError("U_{0,n} with n > 0 has loops")
    entries = [(0, 0)]
    if 0 < k < n:
        entries.append(((1 << n) - 1, k))
    return from_cyclic_flats(entries, n)


def rank_two(class_sizes) -> Matroid:
    """The rank-2 matroid whose parallel classes have the given sizes."""
    sizes = list(class_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("need at least two nonempty classes")
    n = sum(sizes)
    entries = [(0, 0)]
    lo = 0
    for s in sizes:
        if s >= 2:
            entries.append((((1 << s) - 1) << lo, 1))
        lo += s
    if len(sizes) > 2 or min(sizes) >= 2:
        entries.append(((1 << n) - 1, 2))
    return from_cyclic_flats(entries, n)


def points_and_lines(class_sizes, long_lines) -> Matroid:
    """A rank-3 multi-point geometry: parallel classes of the given sizes,
    with the listed class-index sets collinear (long lines must share at
    most one class pairwise and must not contain every class).

    The cyclic flats, by rank: the empty set; each class of two or more
    points; each rank-2 flat (a long line, or two classes on no common
    line) unless it is two classes, one a single point; and E, unless a
    single point lies off a rank-2 flat holding every other class.  In
    both exceptions that point is a coloop.
    """
    sizes = list(class_sizes)
    t = len(sizes)
    lines = [frozenset(l) for l in long_lines]
    if t < 3:
        raise ValueError("rank 3 needs at least three classes")
    if any(s < 1 for s in sizes):
        raise ValueError("class sizes must be positive")
    for l in lines:
        if not (3 <= len(l) < t) or not l <= set(range(t)):
            raise ValueError(f"bad line {sorted(l)}")
    for a, b in itertools.combinations(lines, 2):
        if len(a & b) > 1:
            raise ValueError("long lines may share at most one class")
    masks, n = [], 0
    for s in sizes:
        masks.append(((1 << s) - 1) << n)
        n += s
    rank2 = lines + [
        frozenset(p) for p in itertools.combinations(range(t), 2)
        if not any(l.issuperset(p) for l in lines)
    ]
    entries = [(0, 0)] + [(c, 1) for c, s in zip(masks, sizes) if s >= 2]
    for f in rank2:
        if len(f) > 2 or min(sizes[i] for i in f) >= 2:
            entries.append((sum(masks[i] for i in f), 2))
    if all(sizes[i] > 1 or frozenset(range(t)) - {i} not in rank2 for i in range(t)):
        entries.append(((1 << n) - 1, 3))
    return from_cyclic_flats(entries, n)


def example_pair() -> tuple[Matroid, Matroid]:
    """Two rank-3 matroids on six elements, each a pair of 3-point lines:
    disjoint lines in the first, lines sharing a point in the second.
    They are not isomorphic but have the same configuration, hence the
    same G-invariant and catenary data; their free m-cones have equal
    G-invariants and different configurations."""
    full = (1 << 6) - 1
    a = from_cyclic_flats(
        [(0, 0), (0b000111, 2), (0b111000, 2), (full, 3)], 6,
        names="123456",
    )
    b = from_cyclic_flats(
        [(0, 0), (0b000111, 2), (0b011100, 2), (full, 3)], 6,
        names="123456",
    )
    return a, b


def separating_pair() -> tuple[Matroid, Matroid]:
    """Two rank-3 matroids on seven elements with equal Tutte polynomials
    but different G-invariants; their size-rank-coloop counts differ at
    (4, 3, 1), 20 against 18, and their free 1-cones have different Tutte
    polynomials.  Both have the parallel pair {6, 7}."""
    a = points_and_lines(
        [1, 1, 1, 1, 1, 2], [(0, 2, 4), (0, 1, 5), (2, 3, 5), (1, 3, 4)]
    )
    b = points_and_lines([1, 1, 1, 1, 1, 2], [(0, 2, 3, 4), (0, 1, 5)])
    names = tuple("1234567")
    return (
        Matroid(a.n, a.zf, names=names),
        Matroid(b.n, b.zf, names=names),
    )


def verify_separating_claims(a: Matroid, b: Matroid) -> bool:
    """The four checkable claims for a separating pair."""
    if tutte(a) != tutte(b):
        return False
    sa, sb = src_data(a), src_data(b)
    if (sa.counts.get((4, 3, 1)), sb.counts.get((4, 3, 1))) != (20, 18):
        return False
    if g_invariant(a) == g_invariant(b):
        return False
    return tutte(free_m_cone(a, 1)) != tutte(free_m_cone(b, 1))


def _partitions(total: int, parts: int, cap: int | None = None):
    if parts == 1:
        if total >= 1 and (cap is None or total <= cap):
            yield (total,)
        return
    hi = total - parts + 1 if cap is None else min(cap, total - parts + 1)
    for first in range(hi, 0, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _geometries(class_counts):
    """(class sizes, long lines) of each candidate of search_separating_pair."""
    for t in class_counts:
        if not 3 <= t <= 6:
            raise ValueError("class counts must lie in 3..6")
        line_pool = [
            frozenset(c)
            for size in range(3, t)
            for c in itertools.combinations(range(t), size)
        ]

        def families(idx: int, chosen: list):
            yield list(chosen)
            for j in range(idx, len(line_pool)):
                cand = line_pool[j]
                if all(len(cand & c) <= 1 for c in chosen):
                    chosen.append(cand)
                    yield from families(j + 1, chosen)
                    chosen.pop()

        for sizes in _partitions(7, t):
            for fam in families(0, []):
                yield sizes, fam


def search_separating_pair(class_counts=(3, 4, 5, 6)) -> tuple[Matroid, Matroid]:
    """Exhaustively search rank-3 matroids on seven elements for a pair
    satisfying verify_separating_claims, deterministically.

    Candidates are parallel-class size partitions of 7 together with
    families of long lines over the classes.  Seven singleton classes
    (the simple case) cannot work and are excluded: for a simple rank-3
    matroid the Tutte polynomial determines the multiset of line sizes,
    which in turn determines the whole flag count per composition, so
    equal Tutte polynomials would force equal G-invariants there.
    """
    buckets: dict[tuple, list[Matroid]] = {}
    for sizes, fam in _geometries(class_counts):
        M = points_and_lines(sizes, fam)
        buckets.setdefault(tuple(sorted(tutte(M).coeffs.items())), []).append(M)
    for key in sorted(buckets, key=repr):
        group = buckets[key]
        for a, b in itertools.combinations(group, 2):
            for x, y in ((a, b), (b, a)):
                if verify_separating_claims(x, y):
                    return x, y
    raise LookupError("no separating pair in the searched families")


def fixture_matroids() -> list[tuple[str, Matroid]]:
    """The standing loopless fixture set (ground sets up to six)."""
    m1, m2 = example_pair()
    fixtures = [
        ("empty", uniform(0, 0)),
        ("u11", uniform(1, 1)),
        ("u12", uniform(1, 2)),
        ("u22", uniform(2, 2)),
        ("u13", uniform(1, 3)),
        ("u23", uniform(2, 3)),
        ("u33", uniform(3, 3)),
        ("u14", uniform(1, 4)),
        ("u24", uniform(2, 4)),
        ("u34", uniform(3, 4)),
        ("u15", uniform(1, 5)),
        ("u25", uniform(2, 5)),
        ("u35", uniform(3, 5)),
        ("u45", uniform(4, 5)),
        ("u16", uniform(1, 6)),
        ("u26", uniform(2, 6)),
        ("u36", uniform(3, 6)),
        ("pair-of-pairs", rank_two([2, 2])),
        ("pair-plus-two", rank_two([2, 1, 1])),
        ("triple-pair", rank_two([3, 2])),
        ("three-pairs", rank_two([2, 2, 2])),
        ("disjoint-lines", m1),
        ("crossing-lines", m2),
        ("mk4", points_and_lines([1] * 6, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)])),
        ("three-lines", points_and_lines([1] * 6, [(0, 1, 2), (2, 3, 4), (0, 4, 5)])),
        ("open-book", points_and_lines([1] * 5, [(0, 1, 2), (0, 3, 4)])),
        ("line-plus-point", from_cyclic_flats([(0, 0), (0b0111, 2)], 4)),
        ("fat-line-plus-point", from_cyclic_flats([(0, 0), (0b00011, 1), (0b01111, 2)], 5)),
        ("pair-on-line", points_and_lines([2, 1, 1, 1], [(0, 1, 2)])),
        ("circuit-hyperplane-4", from_cyclic_flats([(0, 0), (0b001111, 3), ((1 << 6) - 1, 4)], 6)),
    ]
    return fixtures
