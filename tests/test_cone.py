"""The free multiple cone, its deletion variants, and the one-step lift."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecone import (
    SourceHasLoops,
    ValidationError,
    VariantKind,
    catenary_data,
    catenary_of_cone,
    free_m_cone,
    from_cyclic_flats,
    higgs_lift,
    is_isomorphic,
    matroid_from_rank_oracle,
    variant,
)
from freecone.catalog import example_pair, fixture_matroids, separating_pair, uniform

from oracles import fiber_mask, is_flat_in_cone, p, p_mask, q

FIXTURES = fixture_matroids()


def test_ground_set_layout_and_names():
    M = example_pair()[0]
    Q = free_m_cone(M, 2)
    assert Q.n == 6 * 3 + 1
    assert Q.names[:6] == M.names
    assert Q.names[6:8] == ("1#1", "1#2")
    assert Q.names[-1] == "@tip"
    assert Q.tip_id == Q.n - 1
    assert Q.m == 2 and Q.source is M


def test_cone_names_are_fresh_and_duplicates_are_rejected():
    M = from_cyclic_flats([(0, 0)], 3, names=["x", "x#1", "@tip"])
    Q = free_m_cone(M, 2)
    assert Q.names == ("x", "x#1", "@tip", "x##1", "x##2", "x#1##1", "x#1##2",
                       "@tip##1", "@tip##2", "@@tip")
    QQ = free_m_cone(Q, 1)
    assert len(set(QQ.names)) == QQ.n == 2 * Q.n + 1
    with pytest.raises(ValidationError, match="'x' appears twice"):
        from_cyclic_flats([(0, 0)], 2, names=["x", "x"])


def test_cone_rank_is_source_rank_plus_one():
    for name, M in FIXTURES:
        for m in (1, 2):
            assert free_m_cone(M, m).rank_int == M.rank_int + 1, name


def test_cone_of_a_point_is_a_triangle():
    Q = free_m_cone(uniform(1, 1), 1)
    assert is_isomorphic(Q, uniform(2, 3)) is not None


def test_cone_of_the_empty_matroid_is_a_single_point():
    Q = free_m_cone(uniform(0, 0), 3)
    assert Q.n == 1 and Q.rank_int == 1
    assert Q.names == ("@tip",)


def test_cone_of_a_source_above_16_elements():
    # the flat lattice of U(2,17) has 19 flats; its element count is no bound
    M = uniform(2, 17)
    Q = free_m_cone(M, 1)
    assert Q.n == 35
    assert catenary_data(Q) == catenary_of_cone(catenary_data(M), 1, VariantKind.FULL)


def test_cone_cyclic_flat_count_on_the_example():
    M = example_pair()[0]
    Q = free_m_cone(M, 1)
    # sources flats: 1 empty + 6 points + 11 rank-2 + 1 top; cyclic flats of
    # Q are the 4 source cyclic flats plus the images of the 17 nonempty ones
    assert len(Q.zf) == 22


def test_q_and_p_act_on_named_sets():
    M = example_pair()[0]
    Q = free_m_cone(M, 2)
    up = q(Q, {0})
    assert up == {0, 6, 7, Q.tip_id}
    assert p(Q, up) == {0}
    assert p(Q, {6}) == {0}  # fiber elements project to their base point
    assert q(Q, set()) == {Q.tip_id}


def test_loops_are_rejected():
    looped = from_cyclic_flats([(0b1, 0), (0b111, 1)], 3)
    with pytest.raises(SourceHasLoops):
        free_m_cone(looped, 1)
    with pytest.raises(ValidationError):
        free_m_cone(uniform(2, 3), 0)


def test_variant_ground_sets():
    M = example_pair()[0]
    Q = free_m_cone(M, 1)
    assert variant(Q, VariantKind.FULL) is Q
    assert variant(Q, VariantKind.TIPLESS).n == 12
    assert variant(Q, VariantKind.BASELESS).n == 7
    assert variant(Q, VariantKind.TIPLESS_BASELESS).n == 6


def test_variant_kind_coercion():
    assert VariantKind.coerce("tipless_baseless") is VariantKind.TIPLESS_BASELESS
    assert VariantKind.coerce("tipless-baseless") is VariantKind.TIPLESS_BASELESS
    assert VariantKind.coerce(VariantKind.FULL) is VariantKind.FULL
    with pytest.raises(ValidationError):
        VariantKind.coerce("sideways")


def test_flat_membership_in_the_cone_without_closure():
    M = uniform(2, 3)
    Q = free_m_cone(M, 1)
    for f in range(1 << Q.n):
        assert is_flat_in_cone(Q, f) == (Q.closure_mask(f) == f)


def test_rank_projection_along_fibers():
    M = example_pair()[0]
    Q = free_m_cone(M, 1)
    tip = 1 << Q.tip_id
    for s in range(0, 1 << Q.n, 97):  # stride keeps this quick
        drop = 1 if Q.closure_mask(s) & tip else 0
        pm = p_mask(Q, s & ~tip)
        assert M.rank_mask(pm) == Q.rank_mask(s) - drop


def test_higgs_lift_matches_tipless_baseless_single_cone():
    for name, M in FIXTURES:
        got = variant(free_m_cone(M, 1), VariantKind.TIPLESS_BASELESS)
        lift = higgs_lift(M)
        assert is_isomorphic(got, lift) is not None, name


def test_higgs_lift_matches_the_rank_function_definition():
    def by_definition(M):
        return matroid_from_rank_oracle(
            M.n, lambda x: min(M.rank_mask(x) + 1, x.bit_count()), names=M.names
        )

    looped = [
        from_cyclic_flats([(0b1, 0), (0b111, 1)], 4),  # a loop, a parallel pair, a coloop
        from_cyclic_flats([(0b11, 0), (0b11111, 2)], 6),  # two loops, a coloop
        from_cyclic_flats([(0b111, 0)], 3),  # all loops
    ]
    pool = [M for _, M in FIXTURES] + list(example_pair() + separating_pair()) + looped
    for M in pool:
        lift = higgs_lift(M)
        assert lift == by_definition(M), M
        assert lift.names == M.names
        # lifts of lifts, up to the free matroid
        twice = higgs_lift(lift)
        assert twice == by_definition(lift), M
        assert higgs_lift(twice) == by_definition(twice), M


def test_higgs_lift_of_uniform_bumps_the_rank():
    assert is_isomorphic(higgs_lift(uniform(2, 4)), uniform(3, 4)) is not None
    assert is_isomorphic(higgs_lift(uniform(3, 3)), uniform(3, 3)) is not None


@given(
    st.sampled_from([M for _, M in FIXTURES if 0 < M.n <= 5]),
    st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_cone_deletion_of_all_added_elements_recovers_the_source(M, m):
    Q = free_m_cone(M, m)
    added = fiber_mask(Q) | (1 << Q.tip_id)
    back = Q.delete(added)
    assert back.zf == M.zf
