"""Flag bijection, catenary and Tutte transfer, and the g-to-src solver.

The transfer functions must reproduce, from source data alone, what direct
enumeration on the built cone finds.  The full fixture sweep lives in the
acceptance tests; here each formula gets targeted cases plus a sampled
equivalence property.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecone import (
    CatenaryData,
    InconsistentSystem,
    MalformedCatenary,
    MalformedSrc,
    SrcData,
    VariantKind,
    catenary_data,
    catenary_of_cone,
    certify_pair,
    free_m_cone,
    g_invariant,
    src_data,
    src_from_g,
    tutte,
    tutte_of_cone_from_src,
    variant,
)
from freecone.catalog import example_pair, fixture_matroids, separating_pair, uniform

from oracles import (
    InvalidTuple,
    bases_masks,
    flag_bijection,
    flag_bijection_inverse,
    flag_tuples,
    flags,
    rank_from_bases,
    src_counts,
)

FIXTURES = fixture_matroids()
KINDS = list(VariantKind)


# ---------------------------------------------------------------------------
# flag bijection


def test_flag_tuples_biject_onto_cone_flags():
    M = example_pair()[0]
    Q = free_m_cone(M, 1)
    images = [flag_bijection(t, Q) for t in flag_tuples(Q)]
    assert len(images) == len(set(images))
    assert set(images) == set(flags(Q))


def test_flag_bijection_round_trip_is_identity():
    M = example_pair()[0]
    Q = free_m_cone(M, 2)
    seen = 0
    for t in flag_tuples(Q):
        assert flag_bijection_inverse(flag_bijection(t, Q), Q) == t
        seen += 1
    assert seen == sum(1 for _ in flags(Q))


def test_flag_bijection_rejects_foreign_tuples():
    M, other = example_pair()
    Q = free_m_cone(M, 1)
    other_q = free_m_cone(other, 1)
    crossing_line = 0b0011100  # a line of the second matroid, not a flat here
    foreign = next(
        t for t in flag_tuples(other_q) if crossing_line in t.flag_m
    )
    with pytest.raises(InvalidTuple):
        flag_bijection(foreign, Q)


def test_flag_bijection_inverse_rejects_flags_without_tip():
    M = uniform(2, 3)
    Q = free_m_cone(M, 1)
    full_flag = next(iter(flags(Q)))
    truncated = tuple(f & ~(1 << Q.tip_id) for f in full_flag)
    with pytest.raises(InvalidTuple):
        flag_bijection_inverse(truncated, Q)


# ---------------------------------------------------------------------------
# catenary transfer


def test_catenary_transfer_on_a_single_point():
    out = catenary_of_cone(CatenaryData(1, 1, {(0, 1): 1}), 1, VariantKind.FULL)
    assert out.counts == {(0, 1, 2): 3}  # the triangle


def test_catenary_transfer_matches_direct_on_the_example():
    # the 2-cones of U(3,11) have 33 and 34 elements
    for M in (example_pair()[0], uniform(3, 11)):
        cat = catenary_data(M)
        for kind in KINDS:
            for m in (1, 2):
                want = catenary_data(variant(free_m_cone(M, m), kind))
                assert catenary_of_cone(cat, m, kind) == want, (M, kind, m)


def test_catenary_transfer_all_collapse_case():
    # tipless-baseless single cone of a free matroid collapses to the source
    u33 = uniform(3, 3)
    cat = catenary_data(u33)
    out = catenary_of_cone(cat, 1, VariantKind.TIPLESS_BASELESS)
    assert out == cat


def test_catenary_transfer_rejects_malformed_input():
    from freecone import ValidationError

    with pytest.raises(MalformedCatenary):
        catenary_of_cone(CatenaryData(2, 1, {(1, 1): 2}), 1, VariantKind.FULL)
    with pytest.raises(ValidationError):
        catenary_of_cone(catenary_data(uniform(1, 2)), 0, VariantKind.FULL)


@given(
    st.sampled_from([M for _, M in FIXTURES if M.n <= 5]),
    st.integers(1, 3),
    st.sampled_from(KINDS),
)
@settings(max_examples=60, deadline=None)
def test_catenary_transfer_equivalence_sampled(M, m, kind):
    got = catenary_of_cone(catenary_data(M), m, kind)
    want = catenary_data(variant(free_m_cone(M, m), kind))
    assert got == want


# ---------------------------------------------------------------------------
# Tutte transfer


def test_tutte_transfer_matches_direct_on_the_example():
    M = example_pair()[1]
    src = src_data(M)
    for kind in KINDS:
        for m in (1, 2):
            want = tutte(variant(free_m_cone(M, m), kind))
            assert tutte_of_cone_from_src(src, m, kind) == want, (kind, m)


@pytest.mark.parametrize("kind", KINDS)
def test_tutte_transfer_matches_direct_on_large_cones(kind):
    # the 2-cones of the separating pair (14 to 22 elements) and of U(3,11)
    # (22 to 34 elements): beyond the reach of any subset scan
    for M in separating_pair() + (uniform(3, 11),):
        want = tutte(variant(free_m_cone(M, 2), kind))
        assert tutte_of_cone_from_src(src_data(M), 2, kind) == want, M


def test_tutte_transfer_rejects_malformed_src():
    with pytest.raises(MalformedSrc):
        tutte_of_cone_from_src(SrcData(2, {(0, 0, 0): 1}), 1, VariantKind.FULL)
    with pytest.raises(MalformedSrc):
        # a loop: size 1, rank 0
        tutte_of_cone_from_src(
            SrcData(1, {(0, 0, 0): 1, (1, 0, 0): 1}), 1, VariantKind.FULL
        )


@given(
    st.sampled_from([M for _, M in FIXTURES if M.n <= 5]),
    st.integers(1, 2),
    st.sampled_from(KINDS),
)
@settings(max_examples=40, deadline=None)
def test_tutte_transfer_equivalence_sampled(M, m, kind):
    got = tutte_of_cone_from_src(src_data(M), m, kind)
    want = tutte(variant(free_m_cone(M, m), kind))
    assert got == want


# ---------------------------------------------------------------------------
# g to src


def _oracle_src(M):
    return SrcData(M.n, src_counts(M.n, rank_from_bases(bases_masks(M))))


def test_src_from_g_on_the_triangle():
    assert src_from_g(g_invariant(uniform(2, 3))) == _oracle_src(uniform(2, 3))


def test_src_from_g_on_every_small_fixture():
    for name, M in FIXTURES:
        if M.n == 0:
            continue
        assert src_from_g(g_invariant(M)) == _oracle_src(M), name


def test_src_from_g_rejects_inconsistent_counts():
    g = g_invariant(uniform(2, 3))
    broken = {key: c + 1 for key, c in g.counts.items()}
    bad = type(g)(g.n, g.k, broken)
    with pytest.raises(InconsistentSystem):
        src_from_g(bad)


# ---------------------------------------------------------------------------
# pair certification


def test_certify_pair_on_the_cones_of_the_example_pair():
    # the 1-cones of the example pair are again a pair: 13 elements each,
    # equal G and catenary data, and their own 1-cones separate
    Q1, Q2 = (free_m_cone(M, 1) for M in example_pair())
    assert Q1.n == Q2.n == 13
    report = certify_pair(Q1, Q2, 1)
    assert report.oracle_ok is True
    assert [leg["passed"] for leg in report.legs] == [True, True, True, True]
