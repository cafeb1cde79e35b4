"""The bundled example matroids and the separating-pair search."""

import random

import pytest

from freecone import (
    GInvariant,
    GroundSetTooLarge,
    VariantKind,
    catenary_data,
    configuration,
    free_m_cone,
    g_invariant,
    is_isomorphic,
    matroid_from_rank_oracle,
    src_data,
    tutte,
    validate_axioms,
    variant,
)
from freecone.catalog import (
    _geometries,
    example_pair,
    fixture_matroids,
    points_and_lines,
    rank_two,
    search_separating_pair,
    separating_pair,
    uniform,
    verify_separating_claims,
)

from oracles import points_and_lines_rank


def test_fixture_collection_shape():
    fixtures = fixture_matroids()
    names = [name for name, _ in fixtures]
    assert len(names) == len(set(names))
    assert len(fixtures) >= 20
    for name, M in fixtures:
        assert M.n <= 6, name
        assert M.rank_mask(1) == 1 or M.n == 0, f"{name} has a loop"
        assert validate_axioms(M.zf).ok, name


def test_uniform_rejects_loops():
    with pytest.raises(Exception):
        uniform(0, 3)


def test_rank_two_multiset():
    M = rank_two([2, 2, 1])
    assert M.rank_mask(M.full_mask) == 2
    # each class closes to itself
    assert M.closure_mask(0b00011) == 0b00011
    assert M.closure_mask(0b01100) == 0b01100


def test_points_and_lines_places_long_lines():
    M = points_and_lines([1, 1, 1, 1], [(0, 1, 2)])
    assert M.rank_mask(0b0111) == 2
    assert M.rank_mask(0b1011) == 3
    with pytest.raises(Exception):
        points_and_lines([1, 1, 1, 1], [(0, 1, 2), (0, 1, 3)])
    with pytest.raises(ValueError):
        points_and_lines([1, 1, 1, 0], [])


def test_points_and_lines_equals_the_rank_oracle_build():
    """The closed-form cyclic flats against extraction from the class and
    line rank function, on every candidate of the separating-pair search."""
    geometries = list(_geometries((3, 4, 5, 6)))
    assert len(geometries) == 433
    for sizes, lines in geometries:
        built = matroid_from_rank_oracle(sum(sizes), points_and_lines_rank(sizes, lines))
        assert points_and_lines(sizes, lines) == built, (sizes, lines)


def test_points_and_lines_beyond_the_rank_oracle_bound():
    sizes, lines = [4, 4, 4, 3, 3], [(0, 1, 2)]
    n = sum(sizes)
    rank = points_and_lines_rank(sizes, lines)
    with pytest.raises(GroundSetTooLarge):
        matroid_from_rank_oracle(n, rank)
    M = points_and_lines(sizes, lines)
    assert M.n == 18 and len(M.zf) == 1 + 5 + 8 + 1
    rng = random.Random(18)
    for _ in range(2000):
        x = rng.getrandbits(n)
        assert M.rank_mask(x) == rank(x), x


def test_example_pair_claims():
    M1, M2 = example_pair()
    assert M1.n == M2.n == 6
    assert M1.rank_mask(M1.full_mask) == M2.rank_mask(M2.full_mask) == 3
    assert is_isomorphic(M1, M2) is None
    assert g_invariant(M1) == g_invariant(M2)
    assert catenary_data(M1) == catenary_data(M2)
    q1 = configuration(free_m_cone(M1, 1))
    q2 = configuration(free_m_cone(M2, 1))
    assert q1 != q2


def test_separating_pair_claims():
    N1, N2 = separating_pair()
    assert verify_separating_claims(N1, N2)
    assert tutte(N1) == tutte(N2)
    assert g_invariant(N1) != g_invariant(N2)
    # equal Tutte but unequal size-rank-coloop data at (4, 3, 1)
    s1 = src_data(N1).counts.get((4, 3, 1), 0)
    s2 = src_data(N2).counts.get((4, 3, 1), 0)
    assert (s1, s2) == (20, 18)


def test_separating_claims_are_orientation_sensitive():
    N1, N2 = separating_pair()
    assert not verify_separating_claims(N2, N1)


def test_search_recovers_a_verified_pair():
    a, b = search_separating_pair(class_counts=(6,))
    assert verify_separating_claims(a, b)
    assert is_isomorphic(a, b) is None


def test_g_invariant_counts_are_binary_strings():
    M1, _ = example_pair()
    g = g_invariant(M1)
    assert isinstance(g, GInvariant)
    for key in g.counts:
        assert set(key) <= {"0", "1"}
        assert len(key) == M1.n


def test_cone_configs_differ_for_every_variant_at_large_m():
    M1, M2 = example_pair()
    for kind in VariantKind:
        c1 = configuration(variant(free_m_cone(M1, 3), kind))
        c2 = configuration(variant(free_m_cone(M2, 3), kind))
        assert c1 != c2, kind
