"""Maps between source-matroid data and cone data, and back.

Four pipelines live here: the explicit bijection between decorated flags
of M and flags of the cone (and the catenary transfer formulas derived
from it), reconstruction of the Tutte polynomial of a cone or variant
from size-rank-coloop data of the source, recovery of size-rank-coloop
data from the G-invariant, and reconstruction of the source matroid from
the configuration of a cone or variant.  Each pipeline is held equal to
the direct computation in the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

from .catalog import rank_two
from .cone import ConeMatroid, VariantKind, free_m_cone, variant
from .core import Matroid, bit_members, from_cyclic_flats, is_isomorphic, matroid_from_rank_oracle
from .errors import (
    GroundSetTooLarge,
    InconsistentSystem,
    InvalidTuple,
    MalformedCatenary,
    MalformedSrc,
    MatroidError,
    NotAConeConfiguration,
    ValidationError,
)
from .invariants import (
    CatenaryData,
    GInvariant,
    SrcData,
    TuttePolynomial,
    catenary_data,
    flags,
    g_invariant,
    tutte_from_size_rank,
)
from .zlattice import Configuration, configuration

__all__ = [
    "FlagTuple",
    "VariantKind",
    "flag_tuples",
    "flag_bijection",
    "flag_bijection_inverse",
    "catenary_of_cone",
    "tutte_of_cone_from_src",
    "src_from_g",
    "reconstruct_from_cone_config",
    "certify_pair",
    "CertificateReport",
]

# per kind: fiber-and-base multiplier, tip contribution, smallest h,
# whether the decoration set C ranges freely over subsets of [h]
_KIND_PARAMS = {
    VariantKind.FULL: (lambda m: m + 1, 1, 0, True),
    VariantKind.TIPLESS: (lambda m: m + 1, 0, 1, True),
    VariantKind.BASELESS: (lambda m: m, 1, 0, False),
    VariantKind.TIPLESS_BASELESS: (lambda m: m, 0, 1, False),
}


# ---------------------------------------------------------------------------
# flag bijection


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


def _check_flag_of(M: Matroid, fl) -> None:
    k = M.rank_int
    if len(fl) != k + 1:
        raise InvalidTuple(f"flag must have {k + 1} flats, got {len(fl)}")
    prev = None
    for i, x in enumerate(fl):
        if not isinstance(x, int):
            raise InvalidTuple("flag entries must be bitmasks")
        if x & ~M.full_mask:
            raise InvalidTuple("flag entry outside the ground set")
        if not M.is_flat_mask(x) or M.rank_mask(x) != i:
            raise InvalidTuple(f"entry {i} is not a rank-{i} flat")
        if prev is not None and (prev & ~x or prev == x):
            raise InvalidTuple("flag entries must strictly increase")
        prev = x


def flag_tuples(Q: ConeMatroid):
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
                    layers.append(
                        [fid for e in bit_members(diff) for fid in Q.fiber_ids(e)]
                    )
                for combo in itertools.product(*layers):
                    yield FlagTuple(tuple(fl), h, C, tuple(combo))


def flag_bijection(t: FlagTuple, Q: ConeMatroid) -> tuple:
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
        if not isinstance(y, int) or not (Q.fiber_mask >> y) & 1:
            raise InvalidTuple(f"{y!r} is not a fiber element")
        pe = Q.p_mask(1 << y)
        if not pe & t.flag_m[t.h - c + j] & ~t.flag_m[t.h - c + j - 1]:
            raise InvalidTuple(
                f"fiber {j} must project into layer {t.h - c + j} of the flag"
            )
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
        ys.append(Q.q_mask(t.flag_m[i - 1]))
    return tuple(ys)


def flag_bijection_inverse(flag_q, Q: ConeMatroid) -> FlagTuple:
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
        if not Q.is_flat_mask(x) or Q.rank_mask(x) != i:
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
        if fl[i] != Q.q_mask(xs[i - 1]):
            raise InvalidTuple(f"entry {i} is not the cone of its base part")
    cpos: list[int] = []
    fibers: list[int] = []
    dflats: list[int] = []
    for i in range(1, h + 1):
        delta = fl[i] & ~fl[i - 1]
        if delta and not delta & ~Q.fiber_mask and delta.bit_count() == 1:
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
        pe = Q.p_mask(1 << fibers[j - 1])
        if pe & xs[d + j - 1]:
            raise InvalidTuple(f"fiber at step {cpos[j - 1]} projects into the flag too early")
        xs[d + j] = M.closure_mask(xs[d + j - 1] | pe)
    for i in range(k):
        if xs[i] & ~xs[i + 1] or xs[i] == xs[i + 1]:
            raise InvalidTuple("recovered source flats are not a flag")
    _check_flag_of(M, xs)
    return FlagTuple(tuple(xs), h, frozenset(cpos), tuple(fibers))


# ---------------------------------------------------------------------------
# catenary transfer


def catenary_of_cone(catM: CatenaryData, m: int, kind) -> CatenaryData:
    """Catenary data of the m-cone (or a variant) from that of the source.

    Every output composition (b_i) arises from a source composition
    (a_i), a tip-free step count h, and a fiber-position set C: positions
    in C contribute a part 1, the remaining positions consume the parts
    a_1..a_{h-|C|} in order, part h+1 absorbs the tip (when present) and
    all elements not yet counted below q(X_h), and higher parts scale by
    the per-element multiplier.  The weight of a decorated composition is
    the number of fiber choices, m * a_{h-|C|+j} for each position.
    """
    kind = VariantKind.coerce(kind)
    if not isinstance(m, int) or m < 1:
        raise ValidationError("m must be a positive integer")
    multf, tip, hmin, free_c = _KIND_PARAMS[kind]
    mult = multf(m)
    k = catM.k
    out: dict = {}
    for a, cnt in catM.counts.items():
        if not cnt:
            continue
        if a[0] != 0:
            raise MalformedCatenary(
                "first part must be 0: the source must be loopless"
            )
        for h in range(hmin, k + 1):
            if free_c:
                csets = [
                    tuple(i + 1 for i in range(h) if bits >> i & 1)
                    for bits in range(1 << h)
                ]
            else:
                csets = [tuple(range(1, h + 1))]
            for C in csets:
                c = len(C)
                w = cnt
                for j in range(1, c + 1):
                    w *= m * a[h - c + j]
                b = [0] * (k + 2)
                cset = set(C)
                dj = 0
                for i in range(1, h + 1):
                    if i in cset:
                        b[i] = 1
                    else:
                        dj += 1
                        b[i] = a[dj]
                b[h + 1] = tip + sum(mult * a[j] - b[j] for j in range(1, h + 1))
                if b[h + 1] < 1:
                    continue
                for i in range(h + 2, k + 2):
                    b[i] = mult * a[i - 1]
                key = tuple(b)
                out[key] = out.get(key, 0) + w
    if not out:
        # deleting the tip from the cone of a free matroid (and the empty
        # case) collapses every flag; there the variant is the source
        return CatenaryData(catM.n, catM.k, dict(catM.counts))
    return CatenaryData(mult * catM.n + tip, k + 1, out)


# ---------------------------------------------------------------------------
# Tutte from size-rank-coloop data


@lru_cache(maxsize=None)
def _column_power(mult: int, s: int) -> tuple:
    """Coefficients of ((1+x)^mult - 1)^s by exponent."""
    base = [0] + [math.comb(mult, i) for i in range(1, mult + 1)]
    poly = [1]
    for _ in range(s):
        nxt = [0] * (len(poly) + mult)
        for i, pi in enumerate(poly):
            if not pi:
                continue
            for j, bj in enumerate(base):
                if bj:
                    nxt[i + j] += pi * bj
        poly = nxt
    return tuple(poly)


def tutte_of_cone_from_src(src: SrcData, m: int, kind) -> TuttePolynomial:
    """Tutte polynomial of the m-cone (or a variant) from source src data.

    For a source subset S of size s, rank t, with c coloops in M|S,
    the tip-free cone subsets projecting onto S pick a nonempty part of
    each column; all have rank t+1 except those that pick exactly one
    item per column and touch fibers only over coloops, which keep rank
    t.  Adjoining the tip always gives rank t+1.  Baseless kinds restrict
    the columns to fibers; tipless kinds drop the tip part.
    """
    kind = VariantKind.coerce(kind)
    if not isinstance(m, int) or m < 1:
        raise ValidationError("m must be a positive integer")
    n = src.n
    if sum(src.counts.values()) != 1 << n:
        raise MalformedSrc(f"counts must cover all 2^{n} subsets")
    if any(s == 1 and t == 0 for (s, t, c), v in src.counts.items() if v):
        raise MalformedSrc("source has a loop")
    with_tip = kind in (VariantKind.FULL, VariantKind.BASELESS)
    with_base = kind in (VariantKind.FULL, VariantKind.TIPLESS)
    mult = m + 1 if with_base else m
    mu: dict = {}

    def add(size, rank, v):
        if v:
            key = (size, rank)
            mu[key] = mu.get(key, 0) + v

    for (s, t, c), v in src.counts.items():
        if not v:
            continue
        poly = _column_power(mult, s)
        for size, ways in enumerate(poly):
            if not ways:
                continue
            add(size, t + 1, v * ways)
            if with_tip:
                add(size + 1, t + 1, v * ways)
        keep = (m + 1) ** c if with_base else (m**s if c == s else 0)
        if keep:
            add(s, t + 1, -v * keep)
            add(s, t, v * keep)
    mu = {key: v for key, v in mu.items() if v}
    if any(v < 0 for v in mu.values()):
        raise MalformedSrc("coloop counts are inconsistent with sizes")
    n_out = mult * n + (1 if with_tip else 0)
    if sum(mu.values()) != 1 << n_out:
        raise MalformedSrc("subset totals do not match the cone ground set")
    K = max((r for (_, r) in mu), default=0)
    return tutte_from_size_rank(mu, K)


# ---------------------------------------------------------------------------
# src data from the G-invariant


def src_from_g(g: GInvariant) -> SrcData:
    """Invert the permutation count: for each prefix size s and rank t,
    the number of permutations whose length-s prefix has rank t and ends
    in at least c rank rises is c!(s-c)!(n-s)! times a triangular sum of
    subset counts by exact coloop number; solve top-down in c."""
    n = g.n
    gcount: dict = {}
    for key, w in g.counts.items():
        if not w:
            continue
        ones = 0
        run = 0
        for s in range(n + 1):
            if s:
                if key[s - 1] == "1":
                    ones += 1
                    run += 1
                else:
                    run = 0
            for c in range(run + 1):
                k = (s, ones, c)
                gcount[k] = gcount.get(k, 0) + w
    counts: dict = {}
    total = 0
    pairs = sorted({(s, t) for (s, t, _) in gcount})
    for s, t in pairs:
        solved: dict[int, int] = {}
        for c in range(s, -1, -1):
            lhs = gcount.get((s, t, c), 0)
            denom = math.factorial(c) * math.factorial(s - c) * math.factorial(n - s)
            if lhs % denom:
                raise InconsistentSystem(
                    f"count for prefix ({s},{t},{c}) is not divisible by {denom}"
                )
            val = lhs // denom - sum(
                solved[c2] * math.comb(c2, c) for c2 in range(c + 1, s + 1)
            )
            if val < 0:
                raise InconsistentSystem(
                    f"negative subset count at ({s},{t},{c})"
                )
            solved[c] = val
            if val:
                counts[s, t, c] = val
                total += val
    if total != 1 << n:
        raise InconsistentSystem("solved subset counts do not sum to 2^n")
    return SrcData(n, counts)


# ---------------------------------------------------------------------------
# reconstruction from cone configurations

_KIND_MIN_M = {
    VariantKind.FULL: 1,
    VariantKind.TIPLESS: 2,
    VariantKind.BASELESS: 2,
    VariantKind.TIPLESS_BASELESS: 3,
}


def _family_join(cfg: Configuration, fam) -> int | None:
    ups = [
        u
        for u in range(len(cfg))
        if all(cfg.leq(l, u) for l in fam)
    ]
    mins = [u for u in ups if not any(v != u and cfg.leq(v, u) for v in ups)]
    if len(mins) == 1:
        return mins[0]
    return None


def _find_line_family(cfg: Configuration) -> list[int]:
    """The unique maximum family of rank-2 nodes with at most one node
    below each member, pairwise joins of rank 3, and overall join the top."""
    bot = cfg.bottom
    cand = [
        i
        for i in cfg.nodes_of_rho(2)
        if len(cfg.strictly_between(bot, i)) <= 1
    ]
    compat = {
        (i, j): (lambda jj: jj is not None and cfg.rho(jj) == 3)(cfg.join(i, j))
        for i, j in itertools.combinations(cand, 2)
    }
    best: list[list[int]] = []

    def extend(clique: list[int], rest: list[int]):
        nonlocal best
        if not rest:
            if clique and _family_join(cfg, clique) == cfg.top:
                if not best or len(clique) > len(best[0]):
                    best = [clique[:]]
                elif len(clique) == len(best[0]):
                    best.append(clique[:])
            return
        if best and len(clique) + len(rest) < len(best[0]):
            return
        v = rest[0]
        extend(
            clique + [v],
            [u for u in rest[1:] if compat[(min(v, u), max(v, u))]],
        )
        extend(clique, rest[1:])

    extend([], cand)
    if not best:
        raise NotAConeConfiguration(
            "no family of rank-2 nodes has rank-3 pairwise joins meeting the top"
        )
    if len(best) > 1:
        raise NotAConeConfiguration(
            "the maximum family of point-like rank-2 nodes is not unique"
        )
    return best[0]


def _restored_sizes(cfg: Configuration, kind: VariantKind, m: int, lines) -> list[int]:
    sizes = [cfg.size(i) for i in range(len(cfg))]
    if kind in (VariantKind.TIPLESS_BASELESS,):
        sizes = [
            s + (1 if cfg.rho(i) > 0 else 0) for i, s in enumerate(sizes)
        ]
    if kind is VariantKind.TIPLESS:
        for i in range(len(cfg)):
            if any(cfg.leq(l, i) for l in lines):
                sizes[i] += 1
    if kind in (VariantKind.BASELESS, VariantKind.TIPLESS_BASELESS):
        add = [0] * len(cfg)
        for l in lines:
            fibers = sizes[l] - 1
            if fibers <= 0 or fibers % m:
                raise NotAConeConfiguration(
                    f"node size {cfg.size(l)} is not 1 plus a multiple of m={m}"
                )
            for i in range(len(cfg)):
                if cfg.leq(l, i):
                    add[i] += fibers // m
        sizes = [s + a for s, a in zip(sizes, add)]
    return sizes


def _candidates_main(cfg: Configuration, kind: VariantKind, m: int):
    lines = _find_line_family(cfg)
    sizes = _restored_sizes(cfg, kind, m, lines)
    bot = cfg.bottom
    classes: dict[int, int] = {}
    for l in lines:
        stot = sizes[l] - 1
        if stot <= 0 or stot % (m + 1):
            raise NotAConeConfiguration(
                f"restored node size {sizes[l]} is not 1 plus a multiple of m+1"
            )
        pl = stot // (m + 1)
        if kind in (VariantKind.FULL, VariantKind.TIPLESS):
            between = cfg.strictly_between(bot, l)
            if between:
                y = between[0]
                if cfg.rho(y) != 1 or cfg.size(y) != pl:
                    raise NotAConeConfiguration(
                        "the node under a point-like node must be its parallel class"
                    )
            elif pl != 1:
                raise NotAConeConfiguration(
                    "a multi-point class must appear as a node under its cone"
                )
        classes[l] = pl
    offsets: dict[int, int] = {}
    n = 0
    for l in sorted(lines):
        offsets[l] = n
        n += classes[l]
    flat_of: dict[int, tuple[int, int]] = {}
    for i in range(len(cfg)):
        dom = [l for l in lines if cfg.leq(l, i)]
        if not dom:
            continue
        u = 0
        for l in dom:
            u |= ((1 << classes[l]) - 1) << offsets[l]
        flat_of[i] = (u, cfg.rho(i) - 1)
    # the empty flat has no dominating node; the source is loopless
    ranked = [(0, 0)] + sorted(flat_of.values(), key=lambda fr: fr[1])

    def rank_fn(x: int) -> int:
        for u, r in ranked:
            if not x & ~u:
                return r
        raise NotAConeConfiguration("no node spans the whole ground set")

    yield matroid_from_rank_oracle(n, rank_fn)


def _candidates_rank2(cfg: Configuration, kind: VariantKind, m: int):
    nodes2 = cfg.nodes_of_rho(2)
    if kind in (VariantKind.FULL, VariantKind.TIPLESS):
        delta = 1 if kind is VariantKind.FULL else 0
        for enode in [None, *nodes2]:
            qnodes = [i for i in nodes2 if i != enode]
            ps = []
            ok = True
            for l in qnodes:
                s = cfg.size(l) - delta
                if s <= 0 or s % (m + 1):
                    ok = False
                    break
                ps.append(s // (m + 1))
            if ok and len(ps) >= 2:
                yield rank_two(ps)
    else:
        delta = 1 if kind is VariantKind.BASELESS else 0
        ps = []
        for l in nodes2:
            s = cfg.size(l) - delta
            if s <= 0 or s % m:
                return
            ps.append(s // m)
        if len(ps) >= 2:
            yield rank_two(ps)


def _candidates_rank1(cfg: Configuration, kind: VariantKind, m: int):
    s = cfg.size(cfg.top)
    delta = 1 if kind in (VariantKind.FULL, VariantKind.BASELESS) else 0
    mult = m + 1 if kind in (VariantKind.FULL, VariantKind.TIPLESS) else m
    s -= delta
    if s <= 0 or s % mult:
        return
    n = s // mult
    if n == 1:
        yield from_cyclic_flats([(0, 0)], 1)
    else:
        yield from_cyclic_flats([(0, 0), ((1 << n) - 1, 1)], n)


def reconstruct_from_cone_config(cfg: Configuration, kind, m: int) -> Matroid:
    """Recover the source matroid from the configuration of its cone
    (or of a variant).  The result is unique up to isomorphism; every
    candidate is verified by rebuilding the cone and comparing
    configurations, so a non-cone input always raises."""
    kind = VariantKind.coerce(kind)
    if not isinstance(m, int) or m < _KIND_MIN_M[kind]:
        raise ValidationError(
            f"kind {kind.value} needs m >= {_KIND_MIN_M[kind]}"
        )
    if not isinstance(cfg, Configuration):
        raise ValidationError("cfg must be a Configuration")
    candidates: list[Matroid] = []
    if cfg.size(cfg.bottom) == 0:
        if len(cfg) == 1:
            candidates.append(from_cyclic_flats([(0, 0)], 0))
        else:
            r_source = cfg.rho(cfg.top) - 1
            try:
                if r_source >= 3:
                    gen = _candidates_main(cfg, kind, m)
                elif r_source == 2:
                    gen = _candidates_rank2(cfg, kind, m)
                elif r_source == 1:
                    gen = _candidates_rank1(cfg, kind, m)
                else:
                    gen = iter(())
                candidates.extend(gen)
            except (NotAConeConfiguration, GroundSetTooLarge):
                raise
            except MatroidError:
                candidates = []
    for cand in candidates:
        rebuilt = configuration(variant(free_m_cone(cand, m), kind))
        if rebuilt == cfg:
            return cand
    raise NotAConeConfiguration(
        f"no source matroid has this as its {kind.value} cone configuration for m={m}"
    )


# ---------------------------------------------------------------------------
# pair certification


@dataclass
class CertificateReport:
    """Four-leg certificate that a pair (M, N) separates configurations
    of cones while matching on the G-invariant."""

    m: int
    legs: list = field(default_factory=list)
    oracle_ok: bool = True

    @property
    def all_passed(self) -> bool:
        return all(leg["passed"] for leg in self.legs)


def _first_difference(da: dict, db: dict):
    keys = sorted(set(da) | set(db), key=repr)
    for key in keys:
        if da.get(key, 0) != db.get(key, 0):
            return key, da.get(key, 0), db.get(key, 0)
    return None


def certify_pair(M: Matroid, N: Matroid, m: int) -> CertificateReport:
    report = CertificateReport(m=m)

    perm = is_isomorphic(M, N)
    report.legs.append(
        {
            "claim": "the two matroids are not isomorphic",
            "method": "cyclic-flat backtracking isomorphism search",
            "passed": perm is None,
            "witness": None if perm is None else {"isomorphism": list(perm)},
        }
    )

    gm, gn = g_invariant(M), g_invariant(N)
    cm, cn = catenary_data(M), catenary_data(N)
    gdiff = None if gm == gn else _first_difference(gm.counts, gn.counts)
    cdiff = None if cm == cn else _first_difference(cm.counts, cn.counts)
    report.legs.append(
        {
            "claim": "equal G-invariants and equal catenary data",
            "method": "permutation enumeration and flag counting",
            "passed": gdiff is None and cdiff is None,
            "witness": None
            if gdiff is None and cdiff is None
            else {
                "g_difference": _diff_json(gdiff),
                "catenary_difference": _diff_json(cdiff),
            },
        }
    )

    QM, QN = free_m_cone(M, m), free_m_cone(N, m)
    direct_m, direct_n = catenary_data(QM), catenary_data(QN)
    trans_m = catenary_of_cone(cm, m, VariantKind.FULL)
    trans_n = catenary_of_cone(cn, m, VariantKind.FULL)
    if trans_m != direct_m or trans_n != direct_n:
        report.oracle_ok = False
    direct_eq = direct_m == direct_n
    trans_eq = trans_m == trans_n
    report.legs.append(
        {
            "claim": f"equal catenary data of the {m}-cones",
            "method": "direct flag counting on both cones, cross-checked "
            "against the transfer formula",
            "passed": direct_eq and trans_eq,
            "witness": None
            if direct_eq
            else {"difference": _diff_json(_first_difference(direct_m.counts, direct_n.counts))},
        }
    )

    cfg_m, cfg_n = configuration(QM), configuration(QN)
    report.legs.append(
        {
            "claim": f"different configurations of the {m}-cones",
            "method": "canonical certificates of the labeled lattices",
            "passed": cfg_m != cfg_n,
            "witness": None,
        }
    )
    return report


def _diff_json(diff):
    if diff is None:
        return None
    key, va, vb = diff
    return {"key": repr(key), "left": va, "right": vb}
