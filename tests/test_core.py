"""Rank formula, closure, minors, and construction paths, checked against
brute-force oracles that work from explicit basis lists."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecone import (
    AxiomViolation,
    GroundSetTooLarge,
    NotABasisSystem,
    from_bases,
    from_cyclic_flats,
    is_isomorphic,
    matroid_from_rank_oracle,
)
from freecone.catalog import fixture_matroids, uniform

from oracles import closure_of, coloops_of, rank_from_bases, uniform_bases

FIXTURES = fixture_matroids()


def test_uniform_rank_values():
    u23 = uniform(2, 3)
    assert u23.rank_int == 2
    assert [u23.rank_mask(x) for x in range(8)] == [0, 1, 1, 2, 1, 2, 2, 2]


def test_rank_against_basis_oracle_on_all_fixtures():
    for name, M in FIXTURES:
        if M.n == 0:
            continue
        oracle = rank_from_bases(M.bases_masks())
        for x in range(1 << M.n):
            assert M.rank_mask(x) == oracle(x), (name, bin(x))


def test_uniform_bases_are_all_k_subsets():
    for k, n in [(1, 1), (2, 3), (2, 4), (3, 5)]:
        assert sorted(uniform(k, n).bases_masks()) == sorted(uniform_bases(k, n))


def test_independence_is_rank_equals_size():
    for name, M in FIXTURES:
        for x in range(1 << M.n):
            want = M.rank_mask(x) == bin(x).count("1")
            assert M.independent_mask(x) == want, name


def test_closure_matches_oracle():
    for name, M in FIXTURES:
        if M.n == 0:
            continue
        oracle = rank_from_bases(M.bases_masks())
        for x in range(1 << M.n):
            assert M.closure_mask(x) == closure_of(M.n, oracle, x), name


def test_restriction_coloops_and_cyclic_sets_match_oracle():
    for name, M in FIXTURES:
        if M.n == 0:
            continue
        oracle = rank_from_bases(M.bases_masks())
        for x in range(1 << M.n):
            want = coloops_of(M.n, oracle, x)
            assert M.coloops_of_restriction_mask(x) == want, (name, bin(x))
            assert M.is_cyclic_mask(x) == (want == 0), (name, bin(x))


def test_flats_by_rank_counts_on_the_disjoint_line_pair():
    disjoint = dict(FIXTURES)["disjoint-lines"]
    sizes = [len(level) for level in disjoint.flats_by_rank()]
    # one empty flat, six points, two long lines plus nine crossing pairs, top
    assert sizes == [1, 6, 11, 1]


def test_delete_matches_basis_oracle():
    # single elements, and pairs, which can take two elements off one cyclic flat
    for name, M in FIXTURES:
        if M.n < 2:
            continue
        oracle = rank_from_bases(M.bases_masks())
        drops = [{e} for e in range(M.n)]
        drops += [set(pair) for pair in itertools.combinations(range(M.n), 2)]
        for drop in drops:
            D = M.delete(drop)
            kept = [e for e in range(M.n) if e not in drop]
            for x in range(1 << D.n):
                lifted = sum(1 << kept[i] for i in range(D.n) if x >> i & 1)
                assert D.rank_mask(x) == oracle(lifted), (name, drop)


def test_delete_keeps_names():
    M = dict(FIXTURES)["disjoint-lines"]
    D = M.delete({M.id_of("2")})
    assert D.names == ("1", "3", "4", "5", "6")


def test_restrict_to_line_is_uniform():
    M = dict(FIXTURES)["disjoint-lines"]
    R = M.restrict({0, 1, 2})
    assert R.n == 3 and R.rank_int == 2
    assert is_isomorphic(R, uniform(2, 3)) is not None


def test_from_bases_round_trip():
    for name, M in FIXTURES:
        if M.n == 0 or M.n > 6:
            continue
        back = from_bases(M.bases_masks(), M.n, names=M.names)
        assert back.zf == M.zf, name


def test_from_bases_rejects_non_exchange_family():
    # {a,b} and {c,d} cannot both be bases without {a,c} style mixtures
    with pytest.raises(NotABasisSystem):
        from_bases([0b0011, 0b1100], 4)


def test_from_bases_rejects_mixed_sizes():
    with pytest.raises(NotABasisSystem):
        from_bases([0b001, 0b011], 3)


def test_rank_oracle_constructor_agrees_with_direct():
    for name, M in FIXTURES:
        if M.n > 6:
            continue
        built = matroid_from_rank_oracle(M.n, M.rank_mask, names=M.names)
        assert built.zf == M.zf, name


def test_rank_oracle_constructor_rejects_nonsense():
    with pytest.raises(AxiomViolation):
        matroid_from_rank_oracle(3, lambda x: bin(x).count("1") % 2)


def test_relabel_moves_cyclic_flats():
    M = dict(FIXTURES)["disjoint-lines"]
    perm = [5, 4, 3, 2, 1, 0]
    R = M.relabel(perm)
    assert R.names == tuple(reversed(M.names))
    assert {z for z, _ in R.zf} == {z for z, _ in M.zf}  # symmetric under reversal


def test_isomorphism_finds_maps_and_refuses_impostors():
    disjoint = dict(FIXTURES)["disjoint-lines"]
    crossing = dict(FIXTURES)["crossing-lines"]
    relabeled = disjoint.relabel([3, 4, 5, 0, 1, 2])
    assert is_isomorphic(disjoint, relabeled) is not None
    assert is_isomorphic(disjoint, crossing) is None
    assert is_isomorphic(uniform(2, 4), uniform(2, 3)) is None


def test_isomorphism_bound():
    with pytest.raises(GroundSetTooLarge):
        is_isomorphic(uniform(2, 11), uniform(2, 11))


def test_empty_matroid():
    e = uniform(0, 0)
    assert e.n == 0 and e.rank_int == 0 and e.is_loopless()
    assert e.bases_masks() == [0]


def test_loops_are_the_least_cyclic_flat():
    with_loop = from_cyclic_flats([(0b001, 0), (0b111, 1)], 3)
    assert with_loop.loops_mask == 0b001
    assert not with_loop.is_loopless()
    assert with_loop.rank_mask(0b001) == 0


# ---------------------------------------------------------------------------
# rank axioms as properties

matroids = st.sampled_from([M for _, M in FIXTURES if M.n > 0])


@st.composite
def matroid_and_masks(draw, count=2):
    M = draw(matroids)
    masks = [draw(st.integers(0, (1 << M.n) - 1)) for _ in range(count)]
    return (M, *masks)


@given(matroid_and_masks())
def test_rank_is_monotone_and_bounded(mm):
    M, x, y = mm
    assert 0 <= M.rank_mask(x) <= bin(x).count("1")
    assert M.rank_mask(x | y) >= M.rank_mask(x)


@given(matroid_and_masks())
def test_rank_is_submodular(mm):
    M, x, y = mm
    assert M.rank_mask(x) + M.rank_mask(y) >= M.rank_mask(x | y) + M.rank_mask(x & y)


@given(matroid_and_masks(count=1))
def test_rank_unit_increase(mm):
    M, x = mm
    rx = M.rank_mask(x)
    for e in range(M.n):
        if not x >> e & 1:
            assert M.rank_mask(x | 1 << e) in (rx, rx + 1)


@given(matroid_and_masks(count=1))
def test_closure_is_extensive_idempotent_and_rank_preserving(mm):
    M, x = mm
    cl = M.closure_mask(x)
    assert cl & x == x
    assert M.closure_mask(cl) == cl
    assert M.rank_mask(cl) == M.rank_mask(x)


@given(matroid_and_masks(count=1))
@settings(max_examples=60)
def test_independent_subsets_stay_independent(mm):
    M, x = mm
    if not M.independent_mask(x):
        return
    for e in range(M.n):
        if x >> e & 1:
            assert M.independent_mask(x ^ 1 << e)
