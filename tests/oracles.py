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
a fixpoint loop and reduced by an O(t^3) search.  certificate_search is
the canonical form of a configuration without the package's back-jumps
and singleton keys: every subtree that orbit pruning keeps is walked, and
every refinement pass keys every node by its whole down-set and up-set.
isomorphism_backtrack, the reference of is_isomorphic, tries element
images one by one, pruned by incidence signatures, with no canonical form.

points_and_lines_rank is the class-and-line rank function of
catalog.points_and_lines: through matroid_from_rank_oracle it is the
reference of that builder's closed-form cyclic flats.

The Matroid surface that only the tests read (id_of, is_cyclic_mask,
is_flat_mask, independent_mask, bases_masks, and fiber_mask of a cone)
lives here as functions of the matroid, as does covers_by_closure, the flat walk that takes one
closure per cover: the reference of the one-pass Matroid.covers_mask.

The last section is the paper's explicit bijection from the decorated
flags of a loopless M to the flags of its cone Q_m(M), the oracle of the
catenary transfer formulas: `flags` streams the flags of a matroid one
chain at a time, `flag_tuples` the decorated flags of the source, and
`flag_bijection` and its inverse map between them.  The cone layout is
read through q_mask, p_mask and the fiber helpers, and is_flat_in_cone
tests flats of the cone by its structural description, with no closure.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from freecone import Configuration, ValidationError, ValidationReport, from_cyclic_flats
from freecone.core import as_mask


def rank_from_bases(bases_masks):
    bases = list(bases_masks)

    def rank(x: int) -> int:
        return max(bin(b & x).count("1") for b in bases)

    return rank


def id_of(M, name: str) -> int:
    """The element id of `name` in M."""
    return M.names.index(name)


def coloops_of_restriction_mask(M, x: int) -> int:
    """The coloops of M|x: the elements of x outside some cyclic flat that
    attains the minimum for x, the rule `Matroid.delete` reads."""
    return x & M._minimizers(x)[2]


def is_cyclic_mask(M, x: int) -> bool:
    """Whether M|x has no coloops."""
    return coloops_of_restriction_mask(M, x) == 0


def is_flat_mask(M, x: int) -> bool:
    return M.closure_mask(x) == x


def independent_mask(M, x: int) -> bool:
    """X is independent iff |X ∩ Z| ≤ r(Z) for every cyclic flat Z."""
    return all((x & z).bit_count() <= rz for z, rz in M.zf)


def bases_masks(M) -> list[int]:
    """The bases of M, by testing every r-subset of the non-loops."""
    nonloops = [e for e in range(M.n) if not M.loops_mask >> e & 1]
    out = []
    for combo in itertools.combinations(nonloops, M.rank_int):
        m = sum(1 << e for e in combo)
        if independent_mask(M, m):
            out.append(m)
    return out


def with_loops_and_coloops(M, loops, coloops):
    """M with `loops` loops and `coloops` coloops added after its elements:
    the loops join every cyclic flat, the coloops none."""
    lmask = ((1 << loops) - 1) << M.n
    return from_cyclic_flats([(z | lmask, r) for z, r in M.zf], M.n + loops + coloops)


def sparse_paving(n, r, blocks, seed):
    """A sparse paving matroid: `blocks` r-sets, meeting pairwise in at most
    r - 2 elements, as its circuit-hyperplanes."""
    combos = [sum(1 << e for e in c) for c in itertools.combinations(range(n), r)]
    random.Random(seed).shuffle(combos)
    chosen = []
    for b in combos:
        if len(chosen) < blocks and all((b & c).bit_count() <= r - 2 for c in chosen):
            chosen.append(b)
    assert len(chosen) == blocks
    full = (1 << n) - 1
    return from_cyclic_flats([(0, 0)] + [(b, r - 1) for b in chosen] + [(full, r)], n)


def points_and_lines_rank(class_sizes, long_lines):
    """The rank function of catalog.points_and_lines: a set touching one
    class has rank 1, two classes or classes on one long line rank 2, and
    anything else rank 3."""
    owner = [i for i, s in enumerate(class_sizes) for _ in range(s)]
    lines = [frozenset(l) for l in long_lines]

    def rank(x: int) -> int:
        touched = frozenset(owner[e] for e in range(len(owner)) if x >> e & 1)
        if len(touched) <= 1:
            return len(touched)
        if len(touched) == 2 or any(touched <= l for l in lines):
            return 2
        return 3

    return rank


def covers_by_closure(M, f: int) -> tuple[int, ...]:
    """Covers of the flat `f`, one closure per cover: they partition the
    complement of f, so closing f plus the least unseen element visits each
    cover once, in order of its lowest new element."""
    covers = []
    rem = M.full_mask & ~f
    while rem:
        g = M.closure_mask(f | rem & -rem)
        covers.append(g)
        rem &= ~g
    return tuple(covers)


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


def reversed_nodes(cfg):
    """The same configuration with its node indices in reverse order."""
    t = len(cfg)
    return Configuration(cfg.labels[::-1], [(t - 1 - i, t - 1 - j) for i, j in cfg.covers])


def certificate_search(labels, covers) -> tuple[tuple, list[int]]:
    """(certificate, canonical order) of a configuration by the search
    without back-jumps: every subtree is walked in full unless a stored
    automorphism fixing the path maps an explored sibling onto its root,
    and every refinement pass keys every node by the sorted colours of
    its whole strict down-set and up-set.

    `covers` is the Hasse diagram, as in Configuration.covers; sizes grow
    along covers, so closing the up-sets from the largest node down gives
    the order."""
    labels = [tuple(lab) for lab in labels]
    t = len(labels)
    succ: list[list[int]] = [[] for _ in range(t)]
    for lo, hi in covers:
        succ[lo].append(hi)
    up_m = [0] * t
    for i in sorted(range(t), key=lambda i: -labels[i][0]):
        for hi in succ[i]:
            up_m[i] |= up_m[hi] | 1 << hi
    down_m = [sum(1 << j for j in range(t) if up_m[j] >> i & 1) for i in range(t)]
    down = [_members(row) for row in down_m]
    up = [_members(row) for row in up_m]

    def refine(colors):
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

    def inverse(colors):
        out = [0] * t
        for i, c in enumerate(colors):
            out[c] = i
        return out

    init = {lab: c for c, lab in enumerate(sorted(set(labels)))}
    gens: list[tuple[int, ...]] = []
    first: list = [None]
    best: list = [None]

    def leaf_cert(colors):
        return (
            tuple(labels[i] for i in inverse(colors)),
            tuple(sorted((colors[i], colors[j]) for i, j in covers)),
        )

    def note_automorphism(c1, c2):
        if len(gens) >= 64:
            return
        inv1, inv2 = inverse(c1), inverse(c2)
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
        colors = refine(colors)
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
        v0 = target[0]
        if all(down_m[v] == down_m[v0] and up_m[v] == up_m[v0] for v in target[1:]):
            # twins: every ordering of the class gives the same leaves
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

    rec([init[lab] for lab in labels], [])
    del rec
    cert, colors = best[0]
    return cert, inverse(colors)


def isomorphism_backtrack(M, N):
    """A ground-set bijection carrying Z(M) with ranks onto Z(N), or None,
    by backtracking over element images: the reference of is_isomorphic,
    with no search in common.

    Candidates are pruned by per-element and per-pair incidence signatures
    over the cyclic-flat families, and elements with rare signatures are
    placed first.  Returns the bijection as a tuple (image of 0, ...)."""
    if M.n != N.n:
        return None
    n = M.n
    if sorted((z.bit_count(), r) for z, r in M.zf) != sorted(
        (z.bit_count(), r) for z, r in N.zf
    ):
        return None

    def elem_sigs(mat):
        return [
            tuple(sorted((z.bit_count(), r) for z, r in mat.zf if z >> e & 1))
            for e in range(n)
        ]

    sm, sn = elem_sigs(M), elem_sigs(N)
    if sorted(sm) != sorted(sn):
        return None

    def pair_sig(mat, i: int, j: int):
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
            for e in _members(z):
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


# ---------------------------------------------------------------------------
# flags of a matroid and the flag bijection onto the flags of its cone


class InvalidTuple(Exception):
    """A flag tuple does not describe a flag of the cone in question."""


def flags(M):
    """Stream the flags of M as tuples of flat bitmasks (X_0, ..., X_k).

    X_0 is the rank-0 flat (the loops); each step moves to a cover, so
    enumeration is depth-first over the flat lattice with O(k) memory per
    chain plus a memo of the covers of each flat visited.
    """
    k = M.rank_int
    bottom = M.closure_mask(0)
    chain = [bottom]
    covers: dict[int, tuple[int, ...]] = {}

    def rec(f: int, depth: int):
        if depth == k:
            yield tuple(chain)
            return
        if f not in covers:
            covers[f] = M.covers_mask(f)
        for g in covers[f]:
            chain.append(g)
            yield from rec(g, depth + 1)
            chain.pop()

    yield from rec(bottom, 0)


def fiber_ids(Q, e: int) -> list[int]:
    """The cone ids of the m fibers over source element e."""
    n = Q.source.n
    return [n + e * Q.m + j for j in range(Q.m)]


def fiber_mask(Q) -> int:
    """Every fiber of the cone: all but the base and the tip."""
    return Q.full_mask & ~(Q.base_mask | 1 << Q.tip_id)


def fibers_of(Q, e: int) -> int:
    return ((1 << Q.m) - 1) << (Q.source.n + e * Q.m)


def q_mask(Q, s: int) -> int:
    """q(S): S, the fibers over each element of S, and the tip."""
    out = s | 1 << Q.tip_id
    for e in _members(s):
        out |= fibers_of(Q, e)
    return out


def p_mask(Q, s: int) -> int:
    """Base elements stay, fibers map to the element under them, and the
    tip has no image."""
    out = s & Q.base_mask
    fibers = (s & fiber_mask(Q)) >> Q.source.n
    for f in _members(fibers):
        out |= 1 << f // Q.m
    return out


def q(Q, s) -> set[int]:
    """The cone of a source subset: s itself, its fibers, and the tip."""
    return set(_members(q_mask(Q, as_mask(s))))


def p(Q, s) -> set[int]:
    """Project a cone subset to the source."""
    return set(_members(p_mask(Q, as_mask(s))))


def is_flat_in_cone(Q, F) -> bool:
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
        return is_flat_mask(M, base) and fmask == q_mask(Q, base)
    fibers = fmask & fiber_mask(Q)
    cnt = fibers.bit_count()
    for e in range(M.n):
        col = (fmask >> e & 1) + (fibers & fibers_of(Q, e)).bit_count()
        if col > 1:
            return False
    if not is_flat_mask(M, base):
        return False
    proj = p_mask(Q, fibers)
    return M.rank_mask(base | proj) == M.rank_mask(base) + cnt


@dataclass(frozen=True)
class FlagTuple:
    """A flag of the source matroid decorated with fiber insertions.

    flag_m: the flats X_0 subset ... subset X_k of M, as bitmasks.
    h: how many steps of the cone flag stay tip-free, 0 <= h <= k.
    C: the positions in 1..h at which a single fiber element is added;
       at the remaining positions the flag advances by a flat of M.
    fibers: the fiber elements (cone ids), one per position in C taken
       in increasing position order; the j-th must project into
       X_{h-|C|+j} - X_{h-|C|+j-1}.
    """

    flag_m: tuple
    h: int
    C: frozenset
    fibers: tuple


def _check_flag_of(M, fl) -> None:
    k = M.rank_int
    if len(fl) != k + 1:
        raise InvalidTuple(f"flag must have {k + 1} flats, got {len(fl)}")
    prev = None
    for i, x in enumerate(fl):
        if not isinstance(x, int):
            raise InvalidTuple("flag entries must be bitmasks")
        if x & ~M.full_mask:
            raise InvalidTuple("flag entry outside the ground set")
        if not is_flat_mask(M, x) or M.rank_mask(x) != i:
            raise InvalidTuple(f"entry {i} is not a rank-{i} flat")
        if prev is not None and (prev & ~x or prev == x):
            raise InvalidTuple("flag entries must strictly increase")
        prev = x


def flag_tuples(Q):
    """Stream every decorated flag of Q's source matroid."""
    M = Q.source
    k = M.rank_int
    for fl in flags(M):
        for h in range(k + 1):
            for cbits in range(1 << h):
                C = frozenset(i + 1 for i in range(h) if cbits >> i & 1)
                c = len(C)
                layers = []
                for j in range(1, c + 1):
                    diff = fl[h - c + j] & ~fl[h - c + j - 1]
                    layers.append([fid for e in _members(diff) for fid in fiber_ids(Q, e)])
                for combo in itertools.product(*layers):
                    yield FlagTuple(tuple(fl), h, C, tuple(combo))


def flag_bijection(t: FlagTuple, Q) -> tuple:
    """Forward map: a decorated flag of M to a flag of Q, as bitmasks."""
    M = Q.source
    k = M.rank_int
    _check_flag_of(M, t.flag_m)
    if t.flag_m[0] != 0:
        raise InvalidTuple("source matroid must be loopless")
    if not 0 <= t.h <= k:
        raise InvalidTuple(f"h must lie in 0..{k}")
    if not t.C <= set(range(1, t.h + 1)):
        raise InvalidTuple("C must be a subset of 1..h")
    c = len(t.C)
    if len(t.fibers) != c:
        raise InvalidTuple("need exactly one fiber element per position in C")
    for j, y in enumerate(t.fibers, start=1):
        if not isinstance(y, int) or not (fiber_mask(Q) >> y) & 1:
            raise InvalidTuple(f"{y!r} is not a fiber element")
        pe = p_mask(Q, 1 << y)
        if not pe & t.flag_m[t.h - c + j] & ~t.flag_m[t.h - c + j - 1]:
            raise InvalidTuple(f"fiber {j} must project into layer {t.h - c + j} of the flag")
    ys = [0]
    csorted = sorted(t.C)
    dj = 0
    for i in range(1, t.h + 1):
        if i in t.C:
            y = t.fibers[csorted.index(i)]
            ys.append(ys[-1] | (1 << y))
        else:
            dj += 1
            ys.append(ys[-1] | t.flag_m[dj])
    for i in range(t.h + 1, k + 2):
        ys.append(q_mask(Q, t.flag_m[i - 1]))
    return tuple(ys)


def flag_bijection_inverse(flag_q, Q) -> FlagTuple:
    """Inverse map: a flag of Q back to the decorated flag of M."""
    M = Q.source
    k = M.rank_int
    fl = tuple(flag_q)
    if len(fl) != k + 2:
        raise InvalidTuple(f"a cone flag has {k + 2} flats, got {len(fl)}")
    prev = None
    for i, x in enumerate(fl):
        if not isinstance(x, int) or x & ~Q.full_mask:
            raise InvalidTuple("flag entries must be bitmasks in the cone")
        if not is_flat_mask(Q, x) or Q.rank_mask(x) != i:
            raise InvalidTuple(f"entry {i} is not a rank-{i} flat of the cone")
        if prev is not None and (prev & ~x or prev == x):
            raise InvalidTuple("flag entries must strictly increase")
        prev = x
    tipbit = 1 << Q.tip_id
    h = max(i for i in range(k + 2) if not fl[i] & tipbit)
    if h == k + 1:
        raise InvalidTuple("the top flat of the cone always contains the tip")
    xs: list = [None] * (k + 1)
    for i in range(h + 1, k + 2):
        xs[i - 1] = fl[i] & Q.base_mask
        if fl[i] != q_mask(Q, xs[i - 1]):
            raise InvalidTuple(f"entry {i} is not the cone of its base part")
    cpos: list[int] = []
    fibers: list[int] = []
    dflats: list[int] = []
    for i in range(1, h + 1):
        delta = fl[i] & ~fl[i - 1]
        if delta and not delta & ~fiber_mask(Q) and delta.bit_count() == 1:
            cpos.append(i)
            fibers.append(delta.bit_length() - 1)
        elif delta and not delta & ~Q.base_mask:
            dflats.append(fl[i] & Q.base_mask)
        else:
            raise InvalidTuple(f"step {i} mixes base and fiber elements")
    c = len(cpos)
    d = h - c
    xs[0] = 0
    for j, x in enumerate(dflats, start=1):
        xs[j] = x
    for j in range(1, c + 1):
        pe = p_mask(Q, 1 << fibers[j - 1])
        if pe & xs[d + j - 1]:
            raise InvalidTuple(f"fiber at step {cpos[j - 1]} projects into the flag too early")
        xs[d + j] = M.closure_mask(xs[d + j - 1] | pe)
    for i in range(k):
        if xs[i] & ~xs[i + 1] or xs[i] == xs[i + 1]:
            raise InvalidTuple("recovered source flats are not a flag")
    _check_flag_of(M, xs)
    return FlagTuple(tuple(xs), h, frozenset(cpos), tuple(fibers))
