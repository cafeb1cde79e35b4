"""Invariant computations: G-invariant, catenary data, Tutte polynomial,
characteristic polynomial, and size-rank-coloop data.

Each invariant is derived from data known to determine it, the lattice of
cyclic flats with its ranks (Bonin and de Mier 2008), and no flat or
subset of the ground set is walked.  One recursion over the intervals of
that lattice (`_interval_tables`) counts, for every pair U <= W of cyclic
flats, the independent sets of M|W/U and the cyclic spanning sets by
size.  The size-rank-coloop data is summed from those tables, and the
Tutte and characteristic polynomials come from its (size, rank)
marginal.  Catenary data counts the flags of flats: a flat is its cyclic
core plus free elements, so the flags follow from the hyperplanes of each
M|W counted by core, which the same tables give.  The G-invariant is
derived from those flag counts (Bonin and Kung 2018) with no permutation
enumerated.  `src_from_g` inverts the permutation counts of G into
size-rank-coloop data; the test suite and `certify_pair` hold it equal to
`src_data`, which reads the same tables.  The check with no code shared is
the transfer module's: the cones' catenary data against the transfer
formula on the source's.  The test suite also holds every invariant to
brute-force oracles; the flat-walk DP that this recursion replaced is the
oracle `tests/oracles.py::walk_flag_counts`, and the flag stream that
catenary data tallies is `tests/oracles.py::flags`.  Counts are exact ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._bits import bit_members
from .core import Matroid
from .errors import InconsistentSystem, ValidationError
from .zlattice import _order_masks

__all__ = [
    "GInvariant",
    "CatenaryData",
    "TuttePolynomial",
    "SrcData",
    "g_invariant",
    "catenary_data",
    "tutte",
    "characteristic",
    "src_data",
    "src_from_g",
]


# ---------------------------------------------------------------------------
# invariant containers


@dataclass(frozen=True)
class GInvariant:
    """Multiset of rank sequences over all n! permutations.

    Keys are 0/1 strings of length n with exactly k ones; values are exact
    counts summing to n!.
    """

    n: int
    k: int
    counts: dict

    def __post_init__(self):
        for key, c in self.counts.items():
            if (
                not isinstance(key, str)
                or len(key) != self.n
                or set(key) - {"0", "1"}
                or key.count("1") != self.k
            ):
                raise ValidationError(f"bad rank-sequence key {key!r} for n={self.n}, k={self.k}")
            if not isinstance(c, int) or c < 0:
                raise ValidationError(f"count for {key!r} must be a nonnegative integer")

    def __eq__(self, other):
        return (
            isinstance(other, GInvariant)
            and (self.n, self.k) == (other.n, other.k)
            and _nonzero(self.counts) == _nonzero(other.counts)
        )


@dataclass(frozen=True)
class CatenaryData:
    """Flag counts per composition (a_0, a_1, ..., a_k); a_0 counts loops."""

    n: int
    k: int
    counts: dict

    def __post_init__(self):
        for key, c in self.counts.items():
            if (
                not isinstance(key, tuple)
                or len(key) != self.k + 1
                or any(not isinstance(a, int) for a in key)
                or key[0] < 0
                or any(a < 1 for a in key[1:])
                or sum(key) != self.n
            ):
                raise ValidationError(
                    f"key {key!r} is not an (n,k)-composition for n={self.n}, k={self.k}"
                )
            if not isinstance(c, int) or c < 0:
                raise ValidationError(f"count for {key!r} must be a nonnegative integer")

    def __eq__(self, other):
        return (
            isinstance(other, CatenaryData)
            and (self.n, self.k) == (other.n, other.k)
            and _nonzero(self.counts) == _nonzero(other.counts)
        )

    @property
    def flag_count(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class TuttePolynomial:
    """Sparse coefficient table {(i, j): c} for sum c * x^i y^j."""

    coeffs: dict

    def __post_init__(self):
        for key, c in self.coeffs.items():
            if (
                not isinstance(key, tuple)
                or len(key) != 2
                or any(not isinstance(d, int) or d < 0 for d in key)
            ):
                raise ValidationError(f"bad exponent pair {key!r}")
            if not isinstance(c, int):
                raise ValidationError(f"coefficient for {key!r} must be an integer")

    def evaluate(self, x: int, y: int) -> int:
        return sum(c * x**i * y**j for (i, j), c in self.coeffs.items())

    def as_table(self) -> list[list[int]]:
        """Dense rectangular table t[i][j], exact ints."""
        nz = _nonzero(self.coeffs)
        if not nz:
            return [[0]]
        mi = max(i for i, _ in nz)
        mj = max(j for _, j in nz)
        out = [[0] * (mj + 1) for _ in range(mi + 1)]
        for (i, j), c in nz.items():
            out[i][j] = c
        return out

    def __eq__(self, other):
        return isinstance(other, TuttePolynomial) and _nonzero(self.coeffs) == _nonzero(
            other.coeffs
        )


@dataclass(frozen=True)
class SrcData:
    """Counts of subsets by (size, rank, number of coloops of the restriction)."""

    n: int
    counts: dict

    def __post_init__(self):
        for key, c in self.counts.items():
            if (
                not isinstance(key, tuple)
                or len(key) != 3
                or any(not isinstance(v, int) for v in key)
                or not (key[0] >= key[1] >= key[2] >= 0)
                or key[0] > self.n
            ):
                raise ValidationError(f"bad size-rank-coloop triple {key!r} for n={self.n}")
            if not isinstance(c, int) or c < 0:
                raise ValidationError(f"count for {key!r} must be a nonnegative integer")

    def __eq__(self, other):
        return (
            isinstance(other, SrcData)
            and self.n == other.n
            and _nonzero(self.counts) == _nonzero(other.counts)
        )


def _nonzero(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


# ---------------------------------------------------------------------------
# catenary data


def _shuffled(counts: dict, c: int) -> dict:
    """The compositions of `counts` with c parts 1 inserted after the first
    part in every way, each interleaving counted once.

    A DP over positions: a state is the composition built so far, the
    parts of the source still to place and the ones still to insert, so
    interleavings that meet again are merged.
    """
    if not c:
        return counts
    states: dict = {(key[:1], key[1:], c): x for key, x in counts.items()}
    for _ in range(len(next(iter(counts))) - 1 + c):
        nxt: dict = {}
        for (head, tail, j), x in states.items():
            if tail:
                s = (head + tail[:1], tail[1:], j)
                nxt[s] = nxt.get(s, 0) + x
            if j:
                s = (head + (1,), tail, j - 1)
                nxt[s] = nxt.get(s, 0) + x
        states = nxt
    return {head: x for (head, _, _), x in states.items()}


def _flag_counts(M: Matroid) -> dict:
    """{composition (a_0, ..., a_k): number of flags}, by a recursion over
    the lattice of cyclic flats, with E as its top; no flat is walked.

    A flat with cyclic core U and c free elements is U + C, and
    M|(U + C) = M|U ⊕ free(C).  So a flag of M|W, for W a cyclic flat or
    E, ends in a hyperplane H = U + C of M|W with r(U) + c = r(W) - 1, and
    its flags below H are the shuffles of the flags of M|U with c
    one-element steps, each counted c! times; the last step adds
    |W| - |U| - c elements.

    The number h_W(U) of such hyperplanes comes from the interval tables
    of src_data.  An independent set of M|W/U with c elements is one
    triple: a cyclic flat V in [U, W], a basis of M|V/U, and a flat of
    M|W with core V and c - (r(V) - r(U)) free elements (the flat is the
    closure of U and the set, and the coloops of its restriction are the
    free part).  Taking the coefficient of x^(r(W) - 1 - r(U)) of g(U,W),

        h_W(U) = [x^(r(W) - 1 - r(U))] g(U,W) - sum over U < V < W of
                 beta(U,V) h_W(V),

    where beta(U,V), the number of bases of M|V/U, is the top coefficient
    of g(U,V).  One product per chain U < V < W, over the W whose flags
    are needed: E, and the cores of the hyperplanes of each one needed.
    """
    zf, _, g = _interval_tables(M)
    width = M.n + 1
    slot = (1 << width) - 1
    ranks = [r for _, r in zf]
    sizes = [z.bit_count() for z, _ in zf]
    beta = [  # beta[v][u] = beta(U,V), for U <= V
        {u: p >> width * (ranks[v] - ranks[u]) for u, p in gv.items()} for v, gv in enumerate(g)
    ]
    top = len(zf) - 1
    cores: dict[int, dict[int, int]] = {}  # cores[w][u] = h_W(U), nonzero only
    needed = {top}
    for w in range(top, 0, -1):
        if w not in needed:
            continue
        h: dict[int, int] = {}
        for u in sorted(g[w], reverse=True)[1:]:
            x = g[w][u] >> width * (ranks[w] - 1 - ranks[u]) & slot
            for v, hv in h.items():
                if u in beta[v]:
                    x -= beta[v][u] * hv
            if x:
                h[u] = x
        cores[w] = h
        needed.update(h)
    flags: dict[int, dict] = {0: {(sizes[0],): 1}}
    shuffles: dict[tuple[int, int], dict] = {}
    for w in sorted(cores):
        out: dict = {}
        for u, hu in cores[w].items():
            c = ranks[w] - 1 - ranks[u]
            if (u, c) not in shuffles:
                shuffles[u, c] = _shuffled(flags[u], c)
            last = (sizes[w] - sizes[u] - c,)
            weight = hu * math.factorial(c)
            for key, x in shuffles[u, c].items():
                key += last
                out[key] = out.get(key, 0) + weight * x
        flags[w] = out
    return flags[top]


def catenary_data(M: Matroid) -> CatenaryData:
    """Flag counts per composition (see _flag_counts)."""
    return CatenaryData(M.n, M.rank_int, _flag_counts(M))


# ---------------------------------------------------------------------------
# G-invariant


def g_invariant(M: Matroid) -> GInvariant:
    """The multiset of rank sequences of all ground-set permutations,
    derived from the flag counts (Bonin and Kung 2018); no permutation is
    enumerated.

    A permutation follows one flag: X_j is the closure of its prefixes of
    rank j.  For a flag of composition a, with P_j = a_0 + ... + a_j, the
    permutations that follow it with rank sequence s number the product
    over positions t = 1..n of a_j at the j-th rise and of P_j - (t - 1)
    at a non-rise while the rank is j.  The walk goes depth-first over
    prefixes of s and carries, per state (P_j, a_{j+1}, ..., a_k) that the
    remaining factors depend on, the flag count times partial product.  A
    state whose factor reaches 0 is dropped, so no zero count is emitted.
    """
    n, k = M.n, M.rank_int
    counts: dict = {}

    def walk(prefix: str, j: int, states: dict):
        t = len(prefix)
        if j == k:  # the n - t remaining non-rises give (n - t)!
            counts[prefix + "0" * (n - t)] = sum(states.values()) * math.factorial(n - t)
            return
        rise: dict = {}
        stay: dict = {}
        for state, w in states.items():
            p, a = state[0], state[1]
            nxt = (p + a,) + state[2:]
            rise[nxt] = rise.get(nxt, 0) + w * a
            if p > t:
                stay[state] = w * (p - t)
        walk(prefix + "1", j + 1, rise)
        if stay:
            walk(prefix + "0", j, stay)

    walk("", 0, _flag_counts(M))
    return GInvariant(n, k, counts)


# ---------------------------------------------------------------------------
# Tutte, characteristic, size-rank-coloop


def tutte_from_size_rank(mu: dict, K: int) -> TuttePolynomial:
    """Expand sum over subsets of (x-1)^(K-r) (y-1)^(s-r) given the
    size-rank counts; exact integer binomial expansion."""
    coeffs: dict = {}
    for (s, r), m in mu.items():
        for i in range(K - r + 1):
            ci = math.comb(K - r, i) * (-1) ** (K - r - i)
            for j in range(s - r + 1):
                cj = math.comb(s - r, j) * (-1) ** (s - r - j)
                key = (i, j)
                coeffs[key] = coeffs.get(key, 0) + m * ci * cj
    return TuttePolynomial(_nonzero(coeffs))




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


def _unpack(x: int, width: int) -> list[int]:
    """The slots of a polynomial packed `width` bits per coefficient."""
    slot = (1 << width) - 1
    out = []
    while x:
        out.append(x & slot)
        x >>= width
    return out


def _interval_tables(M: Matroid) -> tuple:
    """(zf, f, g) for the lattice of cyclic flats of M with E as its top:
    zf is M.zf, with (E, r(M)) appended when E is not cyclic, and
    f[v][u] = f(V,U) counts the cyclic spanning sets of M|U/V and
    g[w][u] = g(U,W) the independent sets of M|W/U, by size, for every
    pair V <= U and U <= W; the keys of g[w] are the cyclic flats in W.

    Polynomials are packed n + 1 bits per coefficient into one int, so a
    convolution is one multiplication: every coefficient formed counts
    subsets of at most n elements and stays below 2^n, so no slot carries
    into the next.  The recursion is the one derived in src_data: for
    V < W, (1 + x)^|W - V| is the sum over U in [V, W] of f(V,U) g(U,W),
    split at r(W) - r(V) into g(V,W) below and f(V,W) above.  The W are
    taken in (size, mask) order and, for each, the lower ends V from the
    top down, so every f(V,U) and g(U,W) the sum needs is known.  When M
    has coloops, E joins as an artificial top: no cyclic flat equals it,
    so the sum for W = E has no U = E term and leaves f(V,E) = 0.  The
    cost is one product per chain V < U < W of cyclic flats, whatever n
    is.
    """
    zf = list(M.zf)
    if zf[-1][0] != M.full_mask:
        zf.append((M.full_mask, M.rank_int))
    ms = [z for z, _ in zf]
    up, down = _order_masks(ms)
    width = M.n + 1
    binom = [1]  # binom[d] = (1 + x)^d
    for _ in range(M.n):
        binom.append(binom[-1] + (binom[-1] << width))
    f: list[dict[int, int]] = [{v: 1} for v in range(len(ms))]
    g: list[dict[int, int]] = []
    for w, (wmask, rw) in enumerate(zf):
        gw = {w: 1}
        for v in reversed(bit_members(down[w] & ~(1 << w))):
            fv = f[v]
            rest = binom[(wmask & ~ms[v]).bit_count()]
            for u in bit_members(up[v] & down[w] & ~(1 << v | 1 << w)):
                rest -= fv[u] * gw[u]
            gw[v] = rest & ((1 << width * (rw - zf[v][1] + 1)) - 1)
            fv[w] = rest - gw[v]
        g.append(gw)
    return zf, f, g


def src_data(M: Matroid) -> SrcData:
    """Counts of (|S|, r(S), #coloops of M|S) over all 2^n subsets, by a
    recursion over the intervals of the lattice of cyclic flats: the subset
    form of the Kook-Reiner-Stanton convolution, through Bonin and de Mier.

    Every subset X splits uniquely as A + B with A = X ∩ U, U = cl(A) a
    cyclic flat, A cyclic and spanning in M|U, and B = X - U independent
    in M/U.  Take A the union of the circuits in X, so B is the set of
    coloops of M|X and r(X) = r(A) + |B|; U = cl(A) is a cyclic flat, and
    an element of X ∩ U outside A would be a coloop of M|X in the closure
    of the rest, so A = X ∩ U; then r_{M/U}(B) >= r(X) - r(U) = |B|.
    Conversely, for such U, A and B, r(X - b) = r(U + B - b) < r(U + B) =
    r(X) for b in B, and every element of A lies on a circuit inside A, so
    B is exactly the set of coloops of M|X.  So X has size |A| + |B|, rank
    r(U) + |B| and |B| coloops.

    For cyclic flats V < W the cyclic flats of M|W/V are the U - V with U
    in [V, W], so the same split of the subsets of W - V gives

        C(|W - V|, s) = sum over U in [V, W] of (f(V,U) * g(U,W))(s),

    where f(V,U) counts the cyclic spanning sets of M|U/V and g(U,W) the
    independent sets of M|W/U by size, and f(V,V) = g(V,V) = [1].  The
    U = V term is g(V,W), which vanishes above rho = r(W) - r(V); the U = W
    term is f(V,W), which vanishes up to rho, since a nonempty cyclic set
    of rank rho has more than rho elements, so `_interval_tables` gets
    both with one subtraction per interval.  Then, with E as the top and L
    the bottom cyclic flat (the loops), each loop free to join A,

        src(a + l + c, r(U) + c, c) += f(L,U)(a) C(|L|, l) g(U,E)(c).
    """
    zf, f, g = _interval_tables(M)
    n = M.n
    width = n + 1
    loops = (1 + (1 << width)) ** zf[0][0].bit_count()
    counts: dict = {}
    for u, (_, ru) in enumerate(zf):
        spanning = _unpack(f[0][u] * loops, width)
        independent = _unpack(g[-1][u], width)
        for a, x in enumerate(spanning):
            if not x:
                continue
            for c, y in enumerate(independent):
                if y:
                    key = (a + c, ru + c, c)
                    counts[key] = counts.get(key, 0) + x * y
    return SrcData(n, counts)


def tutte(M: Matroid) -> TuttePolynomial:
    """Tutte polynomial from the (size, rank) marginal of src_data."""
    mu: dict = {}
    for (s, r, _), c in src_data(M).counts.items():
        mu[s, r] = mu.get((s, r), 0) + c
    return tutte_from_size_rank(mu, M.rank_int)


def characteristic(M: Matroid) -> list[int]:
    """Coefficients of the characteristic polynomial, ascending degree:
    (-1)^rank * T(1-x, 0)."""
    T = tutte(M)
    K = M.rank_int
    acc = [0] * (K + 1)
    for (i, j), c in T.coeffs.items():
        if j != 0:
            continue
        for d in range(i + 1):
            acc[d] += c * math.comb(i, d) * (-1) ** d
    sign = (-1) ** K
    return [sign * v for v in acc]
