"""Lattice axioms, cyclic flats, and configuration equality."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from freecone import (
    Configuration,
    ValidationError,
    configuration,
    from_cyclic_flats,
    validate_axioms,
)
from freecone.catalog import example_pair, fixture_matroids, uniform

FIXTURES = fixture_matroids()


def _oracle_cyclic_flats(M):
    # the flats with no coloop in their restriction, under the bases' rank
    rank = oracles.rank_from_bases(oracles.bases_masks(M))
    return sorted(
        (f, r)
        for r, level in oracles.flats_by_rank(M.n, rank).items()
        for f in level
        if not oracles.coloops_of(M.n, rank, f)
    )


def test_validator_accepts_every_fixture_family():
    for name, M in FIXTURES:
        rep = validate_axioms(M.zf)
        assert rep.ok, (name, rep)


def test_least_member_must_have_rank_zero():
    rep = validate_axioms([(0, 1), ((1 << 3) - 1, 2)])
    assert not rep.ok and rep.axiom == "Z1"


def test_rank_gap_must_be_positive():
    # two nested members with the same rank
    rep = validate_axioms([(0, 0), (0b011, 1), (0b111, 1)])
    assert not rep.ok and rep.axiom == "Z2"
    assert rep.witness == (frozenset({0, 1}), frozenset({0, 1, 2}))


def test_rank_gap_must_stay_below_size_gap():
    rep = validate_axioms([(0, 0), (0b0011, 1), (0b0111, 2)])
    assert not rep.ok and rep.axiom == "Z2"


def test_submodularity_with_intersection_defect():
    # two 3-point lines meeting in two common elements cannot both be flats
    rep = validate_axioms([(0, 0), (0b01110, 2), (0b10110, 2), (0b11111, 3)])
    assert not rep.ok and rep.axiom == "Z3"


def test_family_must_be_closed_under_join_shape():
    # incomparable members with no common upper bound in the family
    rep = validate_axioms([(0, 0), (0b011, 1), (0b110, 1)])
    assert not rep.ok and rep.axiom == "Z0"


def test_incomparable_only_mode_agrees_with_full_mode():
    # the validator checks Z3 on incomparable pairs only; the scan over all
    # pairs gives the same report
    bad = [(0, 0), (0b01110, 2), (0b10110, 2), (0b11111, 3)]
    rep = validate_axioms(bad)
    assert rep.axiom == "Z3"
    assert rep == oracles.validate_axioms(bad, incomparable_only=False)
    for name, M in FIXTURES:
        rep = validate_axioms(M.zf)
        assert rep.ok and rep == oracles.validate_axioms(M.zf), name


# Z3 fails first in pair order, at ({0,1}, {1,2}): join {0..4}, meet ∅ and a
# defect of 1 give 5 > 2.  Z2 fails later, at ({0,1}, {0..4}), with 3 = 3.
_Z3_BEFORE_Z2 = [(0, 0), (0b00011, 1), (0b00110, 1), (0b11111, 4)]


@pytest.mark.parametrize(
    "family, axiom, witness",
    [
        (_Z3_BEFORE_Z2, "Z2", (frozenset({0, 1}), frozenset(range(5)))),
        ([(0, 1)] + _Z3_BEFORE_Z2[1:], "Z1", (frozenset(),)),
        (
            _Z3_BEFORE_Z2 + [(0b1111100000, 3)], "Z0",
            (frozenset({0, 1}), frozenset(range(5, 10))),
        ),
    ],
    ids=["Z2-over-earlier-Z3", "Z1-over-Z2-and-Z3", "Z0-after-Z2-and-Z3"],
)
def test_reports_are_axiom_major_not_pair_major(family, axiom, witness):
    rep = validate_axioms(family)
    assert not rep.ok and rep.axiom == axiom and rep.witness == witness
    assert rep == oracles.validate_axioms(family, incomparable_only=False)


def test_cyclic_flats_of_uniform():
    # proper uniform matroids have only the trivial cyclic flats
    u24 = uniform(2, 4)
    assert _oracle_cyclic_flats(u24) == sorted(u24.zf) == [(0, 0), (0b1111, 2)]
    u33 = uniform(3, 3)
    assert _oracle_cyclic_flats(u33) == sorted(u33.zf) == [(0, 0)]


def test_cyclic_flats_reproduce_the_matroid():
    for name, M in FIXTURES:
        back = from_cyclic_flats(_oracle_cyclic_flats(M), M.n, names=M.names)
        assert back.zf == M.zf, name
        assert sorted(oracles.bases_masks(back)) == sorted(oracles.bases_masks(M)), name


def test_configuration_of_the_example_pair_is_the_diamond():
    m1, m2 = example_pair()
    c1, c2 = configuration(m1), configuration(m2)
    assert len(c1) == 4
    assert sorted(c1.labels) == [(0, 0), (3, 2), (3, 2), (6, 3)]
    bottom, top = c1.bottom, c1.top
    assert c1.rho(bottom) == 0 and c1.rho(top) == 3
    assert len(c1.covers) == 4  # two middle nodes, each between bottom and top
    assert c1 == c2


def test_configuration_certificate_separates_shapes():
    c_disjoint = configuration(example_pair()[0])
    c_uniform = configuration(uniform(2, 4))
    assert c_disjoint != c_uniform


def test_configuration_join_and_between():
    cfg = configuration(example_pair()[0])
    mid = cfg.nodes_of_rho(2)
    assert len(mid) == 2
    assert cfg.join(*mid) == cfg.top
    assert cfg.strictly_between(cfg.bottom, cfg.top) == sorted(mid)


def test_coloop_count_rides_along_but_not_in_equality():
    line_plus_point = dict(FIXTURES)["line-plus-point"]
    bare_line = uniform(2, 3)
    ca, cb = configuration(line_plus_point), configuration(bare_line)
    assert ca.coloop_count == 1 and cb.coloop_count == 0
    assert ca == cb


def test_configuration_rejects_malformed_covers():
    with pytest.raises(ValidationError):
        Configuration([(0, 0), (2, 1)], [(0, 1), (1, 0)])  # cycle
    with pytest.raises(ValidationError):
        Configuration([(0, 0), (2, 1), (3, 1)], [(0, 1)])  # two maximal nodes
    with pytest.raises(ValidationError):
        Configuration([(0, 1), (2, 2)], [(0, 1)])  # bottom rank nonzero
    with pytest.raises(ValidationError):
        Configuration([(0, 0), (2, 3), (4, 2)], [(0, 1), (1, 2)])  # rank drop


def test_certificate_is_invariant_under_relabeling():
    for name, M in FIXTURES:
        if M.n < 2:
            continue
        perm = list(reversed(range(M.n)))
        assert configuration(M) == configuration(M.relabel(perm)), name


@given(st.sampled_from([M for _, M in FIXTURES if M.n >= 2]), st.permutations(range(6)))
def test_certificate_under_random_relabelings(M, perm6):
    perm = [p for p in perm6 if p < M.n]
    assert configuration(M.relabel(perm)) == configuration(M)
