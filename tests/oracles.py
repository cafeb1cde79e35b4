"""Brute-force reference implementations, used only by the tests.

Everything here works from a rank function given as a plain callable on
bitmasks, usually built with rank_from_bases.  The algorithms are the
naive definitions (max basis overlap, corank-nullity sum, permutation
walks), deliberately different from the package's formulas.
"""

from __future__ import annotations

import itertools


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


def uniform_bases(k: int, n: int):
    if k == 0:
        return [0]
    return [
        sum(1 << e for e in combo) for combo in itertools.combinations(range(n), k)
    ]
