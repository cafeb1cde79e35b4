"""G-invariant, catenary data, Tutte polynomial, and src counts, frozen
values plus cross-checks against the brute-force oracles."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecone import (
    CatenaryData,
    GroundSetTooLarge,
    Matroid,
    SrcData,
    TuttePolynomial,
    VariantKind,
    catenary_data,
    certify_pair,
    characteristic,
    free_m_cone,
    from_bases,
    from_cyclic_flats,
    g_invariant,
    src_data,
    src_from_g,
    tutte,
    tutte_from_size_rank,
    validate_axioms,
    variant,
)
from freecone.catalog import example_pair, fixture_matroids, separating_pair, uniform

from oracles import (
    bases_masks,
    catenary_counts,
    characteristic_coeffs,
    coloops_of,
    flags,
    flats_by_rank,
    g_counts,
    independent_mask,
    is_flat_mask,
    rank_from_bases,
    src_counts,
    sparse_paving,
    src_scan,
    tutte_coeffs,
    walk_flag_counts,
    with_loops_and_coloops,
)
from test_order_kernel import perturbed_families

FIXTURES = fixture_matroids()
SMALL = [(name, M) for name, M in FIXTURES if 0 < M.n <= 5]


# every fixture (n <= 6), both pairs, and loop and coloop extensions up to
# 8 elements, the all-loop matroids among them
ORACLE_POOL = (
    FIXTURES
    + list(zip(("m1", "m2", "n1", "n2"), example_pair() + separating_pair()))
    + [
        (f"{name}+{a}L+{b}C", with_loops_and_coloops(M, a, b))
        for name, M in FIXTURES
        for a, b in ((1, 0), (2, 0), (0, 1), (1, 2), (3, 0))
        if M.n + a + b <= 8
    ]
)


def _size_rank(src_counts_: dict) -> dict:
    mu: dict = {}
    for (s, r, _), c in src_counts_.items():
        mu[s, r] = mu.get((s, r), 0) + c
    return mu


def test_g_invariant_of_the_example_pair():
    m1, m2 = example_pair()
    g1, g2 = g_invariant(m1), g_invariant(m2)
    assert g1.counts == {"111000": 648, "110100": 72}
    assert g1 == g2


def test_g_invariant_matches_permutation_oracle():
    m1, m2 = example_pair()
    n1, n2 = separating_pair()
    pool = [(name, M) for name, M in FIXTURES if M.n <= 8]
    pool += [("m1", m1), ("m2", m2), ("n1", n1), ("n2", n2), ("U(3,8)", uniform(3, 8))]
    for name, M in pool:
        oracle = g_counts(M.n, rank_from_bases(bases_masks(M)))
        assert g_invariant(M).counts == oracle, name


@pytest.mark.parametrize(
    "source, m, kind",
    [("m1", 1, "full"), ("n1", 1, "full"), ("n2", 1, "tipless"), ("m1", 2, "full"),
     ("m2", 2, "tipless")],
)
def test_g_invariant_of_cones_matches_subset_scan(source, m, kind):
    # 13 to 19 elements: out of the permutation and bases oracles' reach,
    # so src data and Tutte, both derived from G, are held to the numpy scan
    sources = dict(zip(("m1", "m2", "n1", "n2"), example_pair() + separating_pair()))
    Q = variant(free_m_cone(sources[source], m), kind)
    assert sum(g_invariant(Q).counts.values()) == math.factorial(Q.n)
    scan = src_scan(Q)
    assert src_data(Q).counts == scan
    assert tutte(Q) == tutte_from_size_rank(_size_rank(scan), Q.rank_int)


def test_g_invariant_total_is_factorial():
    for name, M in FIXTURES:
        if M.n == 0:
            continue
        assert sum(g_invariant(M).counts.values()) == math.factorial(M.n), name


def test_catenary_of_the_example_pair():
    m1, m2 = example_pair()
    c1, c2 = catenary_data(m1), catenary_data(m2)
    assert c1.counts == {(0, 1, 2, 3): 6, (0, 1, 1, 4): 18}
    assert c1 == c2
    assert c1.flag_count == 24


def test_catenary_matches_chain_oracle():
    for name, M in SMALL:
        oracle = catenary_counts(M.n, rank_from_bases(bases_masks(M)))
        assert catenary_data(M).counts == oracle, name


def test_flag_enumeration_agrees_with_catenary_totals():
    for name, M in FIXTURES:
        count = sum(1 for _ in flags(M))
        assert count == catenary_data(M).flag_count, name


def _composition_tally(M) -> dict:
    """The flags of M streamed one by one, tallied by composition."""
    tally: dict = {}
    for chain in flags(M):
        key = (chain[0].bit_count(),) + tuple(
            (g & ~f).bit_count() for f, g in zip(chain, chain[1:])
        )
        tally[key] = tally.get(key, 0) + 1
    return tally


def _fold_corpus():
    """The oracle pool (ranks 0 to 4, loops and coloops), the 1- and
    2-cones of both pairs in every kind, and sparse paving sources with
    their 1-cones."""
    yield from ORACLE_POOL
    sources = dict(zip(("m1", "m2", "n1", "n2"), example_pair() + separating_pair()))
    for name, M in sources.items():
        for m in (1, 2):
            for kind in VariantKind:
                yield f"{name} {m}-cone {kind.value}", variant(free_m_cone(M, m), kind)
    for n, r, blocks in ((7, 3, 3), (8, 4, 5), (10, 4, 6)):
        M = sparse_paving(n, r, blocks, seed=n)
        yield f"sparse paving {n, r, blocks}", M
        yield f"sparse paving {n, r, blocks} 1-cone", free_m_cone(M, 1)


def test_catenary_matches_flag_tally_and_chain_oracle():
    # hold every composition, not only the total, to the flags streamed one
    # by one, and to the closure of every subset
    ranks = set()
    for name, M in _fold_corpus():
        counts = catenary_data(M).counts
        assert counts == _composition_tally(M), name
        if M.n <= 12:
            assert counts == catenary_counts(M.n, M.rank_mask), name
        ranks.add(M.rank_int)
    assert {0, 1, 2, 3, 4} <= ranks


def _walk_corpus():
    """The fold corpus, loop and coloop extensions of its cones, and the
    29-element 1-cone of a sparse paving matroid with 1,437 cyclic flats."""
    for name, M in _fold_corpus():
        yield name, M
        if "cone" in name:
            for a, b in ((1, 0), (0, 1), (2, 2)):
                yield f"{name}+{a}L+{b}C", with_loops_and_coloops(M, a, b)
    yield "sparse paving (14, 5, 12) 1-cone", free_m_cone(sparse_paving(14, 5, 12, seed=1), 1)


def test_catenary_matches_the_flat_walk_oracle():
    # the recursion over the cyclic flats against the DP over the covers of
    # every flat below the colines
    checked = 0
    for name, M in _walk_corpus():
        assert catenary_data(M).counts == walk_flag_counts(M), name
        checked += 1
    assert checked > 150, checked


@pytest.mark.parametrize("k, n", [(1, 1), (3, 7), (8, 20), (10, 24)])
def test_catenary_and_g_of_uniform_matroids_in_closed_form(k, n):
    # every flat of rank below k is independent, so each flag adds one
    # element at a time up to rank k - 1 and the rest at once: one
    # composition, n! / (n - k + 1)! flags; every permutation rises k times
    # first, so G is n! on one rank sequence
    U = uniform(k, n)
    start = time.perf_counter()
    assert catenary_data(U).counts == {
        (0,) + (1,) * (k - 1) + (n - k + 1,): math.factorial(n) // math.factorial(n - k + 1)
    }
    assert g_invariant(U).counts == {"1" * k + "0" * (n - k): math.factorial(n)}
    assert time.perf_counter() - start < 1.0


def _counting(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(Matroid, name)

        def counted(self, *args, _name=name, _real=real):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(Matroid, name, counted)
    return calls


def test_catenary_data_walks_no_flat(monkeypatch):
    # the flags are counted over the cyclic flats: no closure is taken and
    # no cover is asked for
    Q = free_m_cone(uniform(3, 11), 2)
    calls = _counting(monkeypatch, ("covers_mask", "closure_mask"))
    cat = catenary_data(Q)
    G = g_invariant(Q)
    monkeypatch.undo()
    assert calls == {"covers_mask": 0, "closure_mask": 0}
    assert cat.counts == walk_flag_counts(Q)
    assert sum(G.counts.values()) == math.factorial(Q.n)


def test_catenary_data_walks_no_hyperplane(monkeypatch):
    # the flat-walk oracle takes covers once per flat of rank at most r - 2;
    # the hyperplanes' only cover, E, is never asked for
    Q = free_m_cone(uniform(3, 11), 2)
    calls = _counting(monkeypatch, ("covers_mask",))
    walk_flag_counts(Q)
    monkeypatch.undo()
    levels = Q.flats_by_rank()
    assert calls["covers_mask"] == sum(len(level) for level in levels[: Q.rank_int - 1]) == 541


def test_flags_are_strict_chains_of_flats():
    M = dict(FIXTURES)["mk4"]
    for chain in flags(M):
        assert len(chain) == M.rank_int + 1
        for i, f in enumerate(chain):
            assert is_flat_mask(M, f) and M.rank_mask(f) == i
            if i:
                assert chain[i - 1] & ~f == 0 and chain[i - 1] != f


def test_tutte_of_u23_and_example():
    assert tutte(uniform(2, 3)).coeffs == {(0, 1): 1, (1, 0): 1, (2, 0): 1}
    m1 = example_pair()[0]
    t = tutte(m1)
    assert t.evaluate(1, 1) == len(bases_masks(m1))
    assert t.evaluate(2, 1) == sum(
        independent_mask(m1, x) for x in range(1 << m1.n)
    )


def test_cyclic_flats_match_the_bases_oracle():
    # the stored family is exactly the flats without coloops in their
    # restriction, each found by closing every subset under the bases' rank
    for name, M in ORACLE_POOL:
        rank = rank_from_bases(bases_masks(M))
        want = {
            (f, r)
            for r, level in flats_by_rank(M.n, rank).items()
            for f in level
            if not coloops_of(M.n, rank, f)
        }
        assert len(M.zf) == len(want) and set(M.zf) == want, name


def test_tutte_matches_corank_nullity_oracle():
    for name, M in ORACLE_POOL:
        oracle = tutte_coeffs(M.n, rank_from_bases(bases_masks(M)))
        assert tutte(M).coeffs == oracle, name


def test_characteristic_matches_whitney_oracle():
    for name, M in ORACLE_POOL:
        oracle = characteristic_coeffs(M.n, rank_from_bases(bases_masks(M)))
        assert characteristic(M) == oracle, name


def test_tutte_evaluations_count_spanning_and_all_subsets():
    for name, M in FIXTURES:
        t = tutte(M)
        assert t.evaluate(2, 2) == 1 << M.n, name
        spanning = sum(
            M.rank_mask(x) == M.rank_int for x in range(1 << M.n)
        )
        assert t.evaluate(1, 2) == spanning, name


def test_characteristic_of_u23():
    assert characteristic(uniform(2, 3)) == [2, -3, 1]


def test_characteristic_vanishes_with_loops():
    from freecone import from_cyclic_flats

    looped = from_cyclic_flats([(0b1, 0), (0b111, 1)], 3)
    # the zero polynomial, one coefficient per degree up to the rank
    assert characteristic(looped) == [0, 0]


def test_src_of_u23():
    assert src_data(uniform(2, 3)).counts == {
        (0, 0, 0): 1,
        (1, 1, 1): 3,
        (2, 2, 2): 3,
        (3, 2, 0): 1,
    }


def test_src_matches_subset_oracle():
    for name, M in ORACLE_POOL:
        oracle = src_counts(M.n, rank_from_bases(bases_masks(M)))
        assert src_data(M).counts == oracle, name
        assert src_scan(M) == oracle, name


def test_src_totals_and_tutte_reconstruction():
    for name, M in FIXTURES:
        src = src_data(M)
        assert sum(src.counts.values()) == 1 << M.n, name
        assert tutte_from_size_rank(_size_rank(src_scan(M)), M.rank_int) == tutte(M), name


def _interval_corpus():
    """The fold corpus; 0 to 2 loops and coloops on every fixture, both
    pairs and U(3,8); the 1- and 2-cones of U(3,8) in every kind; a larger
    sparse paving source with its 1-cone; and the valid rank < 12 families
    among the seeded perturbations."""
    yield from _fold_corpus()
    sources = dict(zip(("m1", "m2", "n1", "n2"), example_pair() + separating_pair()))
    for name, M in FIXTURES + list(sources.items()) + [("U(3,8)", uniform(3, 8))]:
        for a in range(3):
            for b in range(3):
                yield f"{name}+{a}L+{b}C", with_loops_and_coloops(M, a, b)
    for m in (1, 2):
        for kind in VariantKind:
            yield f"U(3,8) {m}-cone {kind.value}", variant(free_m_cone(uniform(3, 8), m), kind)
    M = sparse_paving(12, 4, 10, seed=12)
    yield "sparse paving (12, 4, 10)", M
    yield "sparse paving (12, 4, 10) 1-cone", free_m_cone(M, 1)
    for j, (n, family) in enumerate(perturbed_families()):
        if all(z >> n == 0 for z, _ in family) and validate_axioms(family).ok:
            M = from_cyclic_flats(family, n)
            if M.rank_int < 12:
                yield f"perturbation {j}", M


def test_src_from_cyclic_flat_intervals_matches_g_and_subset_oracles():
    # src_data recurses over the intervals of the cyclic-flat lattice; the
    # G route (flag counts, G walk, inversion) reads the same interval
    # tables but inverts G with its own code, and the subset oracle closes
    # every subset under the rank formula
    checked = scanned = 0
    for name, M in _interval_corpus():
        src = src_data(M)
        assert src == src_from_g(g_invariant(M)), name
        if M.n <= 10:
            assert src.counts == src_counts(M.n, M.rank_mask), name
            scanned += 1
        checked += 1
    assert checked > 1400 and scanned > 1000, (checked, scanned)


def _uniform_src(k, n):
    # every set of at most k elements is independent, all its elements
    # coloops; every larger set spans and is cyclic
    return {(s, min(s, k), s if s <= k else 0): math.comb(n, s) for s in range(n + 1)}


@pytest.mark.parametrize("k, n", [(8, 20), (10, 20)])
def test_src_of_large_uniform_matroids_in_closed_form(k, n):
    # two cyclic flats: the recursion does not grow with 2^n
    start = time.perf_counter()
    assert src_data(uniform(k, n)).counts == _uniform_src(k, n)
    T = tutte(uniform(k, n))
    assert time.perf_counter() - start < 1.0
    assert T.evaluate(1, 1) == math.comb(n, k)
    assert T.evaluate(2, 2) == 1 << n


def test_size_bounds_on_subset_enumerations():
    # certify_pair has no subset scan: a source pair above 10 elements of
    # different sizes gets past the isomorphism search and is certified
    report = certify_pair(uniform(3, 11), uniform(3, 12), 1)
    assert report.oracle_ok is True
    assert [leg["passed"] for leg in report.legs] == [True, False, False, True]
    # rank-oracle extraction from a list of bases
    with pytest.raises(GroundSetTooLarge):
        from_bases([1 << e for e in range(17)], 17)


def test_invariant_value_validation():
    from freecone import GInvariant, ValidationError

    with pytest.raises(ValidationError):
        GInvariant(2, 1, {"11": 1})  # two ones for a rank-1 matroid
    with pytest.raises(ValidationError):
        CatenaryData(3, 1, {(0, 1): 1})  # parts do not sum to n
    with pytest.raises(ValidationError):
        SrcData(3, {(1, 2, 0): 1})  # rank exceeds size
    with pytest.raises(ValidationError):
        TuttePolynomial({(0, -1): 1})


def test_equality_ignores_zero_entries():
    a = TuttePolynomial({(0, 1): 1, (1, 0): 1, (2, 0): 1})
    b = TuttePolynomial({(0, 1): 1, (1, 0): 1, (2, 0): 1, (3, 3): 0})
    assert a == b
    assert a.as_table() == [[0, 1], [1, 0], [1, 0]]


@given(st.sampled_from(SMALL))
@settings(max_examples=30, deadline=None)
def test_g_determines_catenary_totals(named):
    # both count the same flags: total catenary mass at composition length
    # k+1 equals the count of permutations per distinct rank sequence start
    name, M = named
    g = g_invariant(M)
    cat = catenary_data(M)
    assert g.k == cat.k == M.rank_int
    assert g.n == cat.n == M.n
