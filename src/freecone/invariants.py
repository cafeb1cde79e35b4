"""Invariant computations: G-invariant, catenary data, Tutte polynomial,
characteristic polynomial, size-rank-coloop data, and flag streams.

Everything here computes by direct definition (permutations, chains in the
flat lattice, subset expansion); the transfer module reproduces several of
these from source-matroid data alone, and the test suite holds the two
sides equal.  Counts are exact ints throughout; numpy is used only as a
fast exact integer engine (int64 with bounded values, never floats).
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .core import Matroid, as_mask
from .errors import AllCollapse, GroundSetTooLarge, ValidationError

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
    "flags",
    "flags_of_deletion",
    "DEFAULT_MAX_SUBSETS",
    "DEFAULT_MAX_PERMS",
]

DEFAULT_MAX_SUBSETS = 1 << 25
DEFAULT_MAX_PERMS = math.factorial(10)

_PC16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.int64)


def _popcount64(a: np.ndarray) -> np.ndarray:
    # masks stay below 2^32 here; two table lookups cover them
    return _PC16[a & 0xFFFF] + _PC16[(a >> 16) & 0xFFFF]


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
# rank tables (numpy, exact)


def _check_subset_bound(n: int, max_subsets: int, what: str):
    if n > 32 or (1 << n) > max_subsets:
        raise GroundSetTooLarge(
            f"{what} needs 2^{n} subsets, above the allowed {max_subsets}"
        )


def _rank_table(M: Matroid, max_subsets: int) -> np.ndarray:
    """ranks of every subset as a uint8 array indexed by bitmask."""
    _check_subset_bound(M.n, max_subsets, "rank table")
    N = 1 << M.n
    table = np.empty(N, dtype=np.uint8)
    chunk = 1 << 22
    zneg = [(np.int64(zn), rz) for zn, rz in M._zneg]
    for lo in range(0, N, chunk):
        hi = min(lo + chunk, N)
        masks = np.arange(lo, hi, dtype=np.int64)
        best = np.full(hi - lo, M.n + 1, dtype=np.int64)
        for zn, rz in zneg:
            np.minimum(best, rz + _popcount64(masks & zn), out=best)
        table[lo:hi] = best.astype(np.uint8)
    return table


# ---------------------------------------------------------------------------
# G-invariant


def _g_partial(n: int, table, firsts, counts: dict):
    for first in firsts:
        base_mask = 1 << first
        base_r = table[base_mask]
        rest = [e for e in range(n) if e != first]
        for tail in itertools.permutations(rest):
            mask = base_mask
            prev = base_r
            seq = ["1" if base_r else "0"]
            for e in tail:
                mask |= 1 << e
                r = table[mask]
                seq.append("1" if r > prev else "0")
                prev = r
            key = "".join(seq)
            counts[key] = counts.get(key, 0) + 1


def _g_worker(args):
    n, table, firsts = args
    counts: dict = {}
    _g_partial(n, table, firsts, counts)
    return counts


def g_invariant(
    M: Matroid, max_perms: int = DEFAULT_MAX_PERMS, threads: int = 1
) -> GInvariant:
    """The multiset of rank sequences of all ground-set permutations."""
    n = M.n
    if math.factorial(n) > max_perms:
        raise GroundSetTooLarge(
            f"{n}! permutations exceed the allowed {max_perms}"
        )
    if n == 0:
        return GInvariant(0, 0, {"": 1})
    table = [0] * (1 << n)
    for mask in range(1 << n):
        table[mask] = M.rank_mask(mask)
    counts: dict = {}
    if threads <= 1 or n < 2:
        _g_partial(n, table, range(n), counts)
    else:
        jobs = [(n, table, [first]) for first in range(n)]
        with multiprocessing.Pool(processes=threads) as pool:
            for part in pool.map(_g_worker, jobs):
                for key, c in part.items():
                    counts[key] = counts.get(key, 0) + c
    return GInvariant(n, M.rank_int, counts)


# ---------------------------------------------------------------------------
# flags and catenary data


def flags(M: Matroid):
    """Stream the flags of M as tuples of flat bitmasks (X_0, ..., X_k).

    X_0 is the rank-0 flat (the loops); each step moves to a cover, so
    enumeration is depth-first over the flat lattice with O(k) memory per
    chain plus the cover cache.
    """
    k = M.rank_int
    bottom = M.closure_mask(0)
    chain = [bottom]

    def rec(f: int, depth: int):
        if depth == k:
            yield tuple(chain)
            return
        for g in M.covers_mask(f):
            chain.append(g)
            yield from rec(g, depth + 1)
            chain.pop()

    yield from rec(bottom, 0)


def flags_of_deletion(M: Matroid, S):
    """Flags of M minus S, obtained from the non-collapsing flags of M.

    A flag collapses when removing S makes two consecutive flats equal.
    When rank drops under the deletion every flag collapses; that case is
    signalled with AllCollapse rather than an empty stream.
    """
    smask = as_mask(S) & M.full_mask
    keep = M.full_mask & ~smask
    if M.rank_mask(keep) < M.rank_int:
        raise AllCollapse(
            "the deletion lowers the rank, so every flag collapses"
        )
    for fl in flags(M):
        imgs = tuple(f & keep for f in fl)
        if any(imgs[i] == imgs[i + 1] for i in range(len(imgs) - 1)):
            continue
        yield imgs


def catenary_data(M: Matroid) -> CatenaryData:
    """Flag counts per composition, by dynamic programming over the flat
    lattice (level by level, carrying composition prefixes per flat).

    Agrees with tallying the flags() stream; the DP form just avoids
    materializing every chain, which matters for cones.
    """
    k = M.rank_int
    bottom = M.closure_mask(0)
    profiles: dict[int, dict[tuple, int]] = {bottom: {(bottom.bit_count(),): 1}}
    for _ in range(k):
        nxt: dict[int, dict[tuple, int]] = {}
        for f in sorted(profiles):
            prof = profiles[f]
            for g in M.covers_mask(f):
                delta = (g & ~f).bit_count()
                tgt = nxt.setdefault(g, {})
                for pref, c in prof.items():
                    key = pref + (delta,)
                    tgt[key] = tgt.get(key, 0) + c
        profiles = nxt
    if k == 0:
        counts = profiles[bottom]
    else:
        (top_mask, counts), = profiles.items()
        assert top_mask == M.full_mask or M.rank_mask(top_mask) == k
    return CatenaryData(M.n, k, dict(counts))


# ---------------------------------------------------------------------------
# Tutte, characteristic, size-rank-coloop


def _size_rank_counts(M: Matroid, max_subsets: int) -> dict:
    """{(size, rank): count} over all subsets, via the numpy rank table."""
    table = _rank_table(M, max_subsets)
    n, k = M.n, M.rank_int
    N = 1 << n
    width = k + 1
    acc = np.zeros((n + 1) * width, dtype=np.int64)
    chunk = 1 << 22
    for lo in range(0, N, chunk):
        hi = min(lo + chunk, N)
        masks = np.arange(lo, hi, dtype=np.int64)
        sizes = _popcount64(masks)
        combined = sizes * width + table[lo:hi].astype(np.int64)
        acc += np.bincount(combined, minlength=(n + 1) * width)
    out = {}
    for s in range(n + 1):
        for r in range(width):
            v = int(acc[s * width + r])
            if v:
                out[s, r] = v
    return out


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


def tutte(M: Matroid, max_subsets: int = DEFAULT_MAX_SUBSETS) -> TuttePolynomial:
    """Tutte polynomial by subset expansion."""
    mu = _size_rank_counts(M, max_subsets)
    return tutte_from_size_rank(mu, M.rank_int)


def characteristic(M: Matroid, max_subsets: int = DEFAULT_MAX_SUBSETS) -> list[int]:
    """Coefficients of the characteristic polynomial, ascending degree:
    (-1)^rank * T(1-x, 0)."""
    T = tutte(M, max_subsets)
    K = M.rank_int
    acc = [0] * (K + 1)
    for (i, j), c in T.coeffs.items():
        if j != 0:
            continue
        for d in range(i + 1):
            acc[d] += c * math.comb(i, d) * (-1) ** d
    sign = (-1) ** K
    return [sign * v for v in acc]


def src_data(M: Matroid, max_subsets: int = DEFAULT_MAX_SUBSETS) -> SrcData:
    """Counts of (|S|, r(S), #coloops of M|S) over all 2^n subsets."""
    table = _rank_table(M, max_subsets)
    n, k = M.n, M.rank_int
    N = 1 << n
    tdim = k + 1
    cdim = n + 1
    acc = np.zeros((n + 1) * tdim * cdim, dtype=np.int64)
    chunk = 1 << 22
    for lo in range(0, N, chunk):
        hi = min(lo + chunk, N)
        masks = np.arange(lo, hi, dtype=np.int64)
        ranks = table[lo:hi].astype(np.int64)
        sizes = _popcount64(masks)
        coloops = np.zeros(hi - lo, dtype=np.int64)
        for e in range(n):
            bit = np.int64(1 << e)
            has = (masks & bit) != 0
            if not has.any():
                continue
            dropped = table[(masks ^ bit)].astype(np.int64)
            coloops += (has & (dropped + 1 == ranks)).astype(np.int64)
        combined = (sizes * tdim + ranks) * cdim + coloops
        acc += np.bincount(combined, minlength=(n + 1) * tdim * cdim)
    counts = {}
    for s in range(n + 1):
        for t in range(tdim):
            for c in range(cdim):
                v = int(acc[(s * tdim + t) * cdim + c])
                if v:
                    counts[s, t, c] = v
    return SrcData(n, counts)
