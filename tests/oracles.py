"""Brute-force reference implementations, used only by the tests.

Almost everything here works from a rank function given as a plain
callable on bitmasks, usually built with rank_from_bases.  The algorithms
are the naive definitions (max basis overlap, corank-nullity sum,
permutation walks), deliberately different from the package's formulas.
src_scan is the one exception: a numpy scan of every subset through the
cyclic-flat rank formula, fast enough for the cones of up to 22 elements
that the bases oracles cannot reach.  validate_axioms and hasse_covers are
the scanning forms of the package's order queries on cyclic-flat families:
each join and meet found by a pass over all t members, the order closed by
a fixpoint loop and reduced by an O(t^3) search.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from freecone import ValidationError, ValidationReport


def rank_from_bases(bases_masks):
    bases = list(bases_masks)

    def rank(x: int) -> int:
        return max(bin(b & x).count("1") for b in bases)

    return rank


def closure_of(n: int, rank, x: int) -> int:
    rx = rank(x)
    out = x
    for e in range(n):
        if not x >> e & 1 and rank(x | 1 << e) == rx:
            out |= 1 << e
    return out


def coloops_of(n: int, rank, x: int) -> int:
    """Elements of x whose removal lowers the rank: the coloops of M|x."""
    rx = rank(x)
    out = 0
    for e in range(n):
        if x >> e & 1 and rank(x ^ 1 << e) < rx:
            out |= 1 << e
    return out


def flats_by_rank(n: int, rank):
    """All flats grouped by rank, found by closing every subset."""
    full = (1 << n) - 1
    seen = {}
    for x in range(1 << n):
        f = closure_of(n, rank, x)
        seen[f] = rank(f)
    out: dict[int, list[int]] = {}
    for f, r in seen.items():
        out.setdefault(r, []).append(f)
    assert full in seen
    return out


def count_flags(n: int, rank) -> int:
    by_rank = flats_by_rank(n, rank)
    k = max(by_rank)
    ways = {f: 1 for f in by_rank[0]}
    for r in range(1, k + 1):
        nxt = {}
        for g in by_rank[r]:
            nxt[g] = sum(c for f, c in ways.items() if f & ~g == 0)
        ways = nxt
    return sum(ways.values())


def catenary_counts(n: int, rank) -> dict:
    """Flag counts per size composition (|X_0|, |X_1 - X_0|, ...)."""
    by_rank = flats_by_rank(n, rank)
    k = max(by_rank)
    ways = {f: {(bin(f).count("1"),): 1} for f in by_rank[0]}
    for r in range(1, k + 1):
        nxt: dict[int, dict] = {}
        for g in by_rank[r]:
            acc: dict = {}
            for f, combos in ways.items():
                if f & ~g:
                    continue
                step = bin(g).count("1") - bin(f).count("1")
                for key, c in combos.items():
                    full_key = key + (step,)
                    acc[full_key] = acc.get(full_key, 0) + c
            nxt[g] = acc
        ways = nxt
    total: dict = {}
    for combos in ways.values():
        for key, c in combos.items():
            total[key] = total.get(key, 0) + c
    return total


def g_counts(n: int, rank) -> dict:
    counts: dict = {}
    for perm in itertools.permutations(range(n)):
        mask = 0
        prev = 0
        seq = []
        for e in perm:
            mask |= 1 << e
            r = rank(mask)
            seq.append("1" if r > prev else "0")
            prev = r
        key = "".join(seq)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), ca in a.items():
        for (k, l), cb in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _poly_pow(base: dict, e: int) -> dict:
    out = {(0, 0): 1}
    for _ in range(e):
        out = _poly_mul(out, base)
    return out


def tutte_coeffs(n: int, rank) -> dict:
    """Corank-nullity expansion, exact integer coefficients of x^i y^j."""
    xm1 = {(1, 0): 1, (0, 0): -1}
    ym1 = {(0, 1): 1, (0, 0): -1}
    k = rank((1 << n) - 1)
    total: dict = {}
    for s in range(1 << n):
        r = rank(s)
        term = _poly_mul(_poly_pow(xm1, k - r), _poly_pow(ym1, bin(s).count("1") - r))
        for key, c in term.items():
            total[key] = total.get(key, 0) + c
    return {k2: v for k2, v in total.items() if v}


def src_counts(n: int, rank) -> dict:
    counts: dict = {}
    for s in range(1 << n):
        r = rank(s)
        coloops = 0
        for e in range(n):
            if s >> e & 1 and rank(s ^ 1 << e) < r:
                coloops += 1
        key = (bin(s).count("1"), r, coloops)
        counts[key] = counts.get(key, 0) + 1
    return counts


def characteristic_coeffs(n: int, rank) -> list:
    """Whitney's subset expansion, sum over X of (-1)^|X| x^(r(E) - r(X)),
    as coefficients in ascending degree."""
    k = rank((1 << n) - 1)
    out = [0] * (k + 1)
    for s in range(1 << n):
        out[k - rank(s)] += (-1) ** bin(s).count("1")
    return out


_PC16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.int64)


def _popcount(a):
    return _PC16[a & 0xFFFF] + _PC16[(a >> 16) & 0xFFFF]


def src_scan(M) -> dict:
    """{(|S|, r(S), #coloops of M|S): count} over all 2^n subsets of M.

    Ranks come from r(X) = min over cyclic flats (Z, r_Z) of r_Z + |X - Z|,
    one numpy pass per cyclic flat; e is a coloop of M|S when r(S - e) < r(S).
    The two 16-bit popcount lookups cover masks below 2^32.
    """
    n = M.n
    assert n <= 25, "the rank table takes 2^n bytes"
    masks = np.arange(1 << n, dtype=np.int64)
    ranks = np.full(1 << n, n + 1, dtype=np.int64)
    full = (1 << n) - 1
    for z, rz in M.zf:
        np.minimum(ranks, rz + _popcount(masks & (full & ~z)), out=ranks)
    coloops = np.zeros(1 << n, dtype=np.int64)
    for e in range(n):
        has = (masks >> e & 1).astype(bool)
        coloops += has & (ranks[masks ^ (1 << e)] < ranks)
    width = n + 1
    combined = (_popcount(masks) * width + ranks) * width + coloops
    acc = np.bincount(combined, minlength=width**3)
    return {
        (s, r, c): int(acc[(s * width + r) * width + c])
        for s in range(width)
        for r in range(width)
        for c in range(width)
        if acc[(s * width + r) * width + c]
    }


def uniform_bases(k: int, n: int):
    if k == 0:
        return [0]
    return [
        sum(1 << e for e in combo) for combo in itertools.combinations(range(n), k)
    ]


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


def _members(mask: int) -> list[int]:
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def _witness(*masks: int) -> tuple:
    return tuple(frozenset(_members(m)) for m in masks)


def _fmt(mask: int) -> str:
    return "{" + ",".join(str(e) for e in _members(mask)) + "}"


def validate_axioms(family, incomparable_only: bool = False) -> ValidationReport:
    """The lattice axioms Z0-Z3 checked by scanning: every join and meet is
    found by a pass over all t members, so the check is O(t^3).  Reports
    the first violation axiom-major, pairs in (size, mask) order."""
    items = family.items() if isinstance(family, dict) else list(family)
    ranks: dict[int, int] = {}
    for m, r in items:
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

    bottom = ms[0]
    if ranks[bottom] != 0:
        return ValidationReport(
            False, "Z1", _witness(bottom),
            f"least member {_fmt(bottom)} has rank {ranks[bottom]}, expected 0",
        )

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


def hasse_covers(labels, covers) -> tuple[list[int], list[tuple[int, int]]]:
    """The order generated by a cover list, and its Hasse diagram, with the
    checks of a configuration.

    Returns (leq, covers): bit j of leq[i] is set when i <= j, and covers
    is the transitive reduction in (lower, upper) order.  The closure is a
    fixpoint loop and the reduction tests every intermediate node of every
    comparable pair.  Raises ValidationError as Configuration does.
    """
    t = len(labels)
    adj = [set() for _ in range(t)]
    for lo, hi in covers:
        if not (0 <= lo < t and 0 <= hi < t) or lo == hi:
            raise ValidationError(f"bad cover pair ({lo}, {hi})")
        adj[lo].add(hi)
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
    has_down = [False] * t
    has_up = [False] * t
    cov = []
    for i in range(t):
        for j in range(t):
            if i == j or not (leq[i] >> j & 1):
                continue
            if not any(
                k != i and k != j and (leq[i] >> k & 1) and (leq[k] >> j & 1)
                for k in range(t)
            ):
                cov.append((i, j))
                has_up[i] = has_down[j] = True
    bottoms = [i for i in range(t) if not has_down[i]]
    tops = [i for i in range(t) if not has_up[i]]
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
    return leq, cov
