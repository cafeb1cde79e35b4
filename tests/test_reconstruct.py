"""Recovering the source matroid from the configuration of a cone."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecone import (
    Configuration,
    NotAConeConfiguration,
    ValidationError,
    VariantKind,
    configuration,
    free_m_cone,
    from_cyclic_flats,
    is_isomorphic,
    reconstruct_from_cone_config,
    variant,
)
from freecone.catalog import example_pair, fixture_matroids, rank_two, uniform
from freecone.cli import main
from freecone.documents import canonical_json, configuration_to_document, matroid_from_document

FIXTURES = fixture_matroids()
KINDS = list(VariantKind)

_MIN_M = {
    VariantKind.FULL: 1,
    VariantKind.TIPLESS: 2,
    VariantKind.BASELESS: 2,
    VariantKind.TIPLESS_BASELESS: 3,
}


def _cone_config(M, m, kind):
    return configuration(variant(free_m_cone(M, m), kind))


def test_round_trip_on_the_example_pair():
    for M in example_pair():
        for kind in KINDS:
            m = _MIN_M[kind]
            got = reconstruct_from_cone_config(_cone_config(M, m, kind), kind, m)
            assert is_isomorphic(got, M) is not None, kind


def test_round_trip_distinguishes_the_example_pair():
    # the cone configurations differ, so each one recovers its own source
    m1, m2 = example_pair()
    cfg1 = _cone_config(m1, 1, VariantKind.FULL)
    cfg2 = _cone_config(m2, 1, VariantKind.FULL)
    assert cfg1 != cfg2
    back1 = reconstruct_from_cone_config(cfg1, VariantKind.FULL, 1)
    back2 = reconstruct_from_cone_config(cfg2, VariantKind.FULL, 1)
    assert is_isomorphic(back1, m1) is not None
    assert is_isomorphic(back2, m2) is not None
    assert is_isomorphic(back1, back2) is None


def test_round_trip_small_ranks():
    small = [
        uniform(0, 0),
        uniform(1, 1),
        uniform(1, 2),
        uniform(1, 3),
        uniform(1, 5),
        uniform(2, 2),
        uniform(2, 4),
        uniform(2, 5),
        rank_two([3, 1]),
        dict(FIXTURES)["three-pairs"],
        dict(FIXTURES)["pair-plus-two"],
    ]
    for M in small:
        for kind in KINDS:
            for m in (_MIN_M[kind], _MIN_M[kind] + 1):
                got = reconstruct_from_cone_config(_cone_config(M, m, kind), kind, m)
                assert is_isomorphic(got, M) is not None, (M, kind, m)


def _three_classes_of_six():
    """Rank 3 on 18 elements: three parallel classes of six, each pair of
    classes a line.  Above the 16-element bound of basis enumeration."""
    classes = [0o77 << 6 * i for i in range(3)]
    lines = [a | b for i, a in enumerate(classes) for b in classes[i + 1:]]
    flats = [(0, 0)] + [(p, 1) for p in classes] + [(l, 2) for l in lines]
    return from_cyclic_flats(flats + [((1 << 18) - 1, 3)], 18)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_round_trip_above_16_elements(kind):
    # the cones of U(3,13) and U(3,14) have 93 to 108 nodes and large
    # automorphism groups, which the certificate search must jump over
    m = _MIN_M[kind]
    for M in (_three_classes_of_six(), uniform(3, 13), uniform(3, 14)):
        got = reconstruct_from_cone_config(_cone_config(M, m, kind), kind, m)
        assert got.zf == M.zf, M


def test_cli_reconstructs_above_16_elements(tmp_path, capsys):
    M = _three_classes_of_six()
    path = tmp_path / "cfg.json"
    path.write_text(canonical_json(configuration_to_document(_cone_config(M, 1, "full"))))
    assert main(["reconstruct", "--m", "1", str(path)]) == 0
    assert matroid_from_document(json.loads(capsys.readouterr().out)).zf == M.zf


def test_round_trip_with_coloops_in_the_source():
    for name in ("line-plus-point", "fat-line-plus-point", "pair-on-line"):
        M = dict(FIXTURES)[name]
        for kind in KINDS:
            m = _MIN_M[kind]
            got = reconstruct_from_cone_config(_cone_config(M, m, kind), kind, m)
            assert is_isomorphic(got, M) is not None, (name, kind)


def test_bounds_are_enforced():
    cfg = _cone_config(uniform(2, 4), 2, VariantKind.TIPLESS)
    with pytest.raises(ValidationError):
        reconstruct_from_cone_config(cfg, VariantKind.TIPLESS, 1)
    with pytest.raises(ValidationError):
        reconstruct_from_cone_config(cfg, VariantKind.TIPLESS_BASELESS, 2)
    with pytest.raises(ValidationError):
        reconstruct_from_cone_config(cfg, VariantKind.FULL, 0)


def test_bounds_are_sharp_on_the_example_pair():
    """Below its bound, a variant genuinely loses information.

    The two line arrangements of example_pair are not isomorphic, yet
    their tipless single cones have equal configurations, and so do
    their tipless-baseless double cones.  One extra fiber restores the
    separation in each case, which is exactly where the minimum-m table
    draws the line.
    """
    M1, M2 = example_pair()
    assert is_isomorphic(M1, M2) is None

    tipless = VariantKind.TIPLESS
    c1 = _cone_config(M1, 1, tipless)
    assert c1 == _cone_config(M2, 1, tipless)
    assert _cone_config(M1, 2, tipless) != _cone_config(M2, 2, tipless)

    tb = VariantKind.TIPLESS_BASELESS
    assert _cone_config(M1, 2, tb) == _cone_config(M2, 2, tb)
    assert _cone_config(M1, 3, tb) != _cone_config(M2, 3, tb)

    # the bound refuses the ambiguous input before looking at its shape
    with pytest.raises(ValidationError):
        reconstruct_from_cone_config(c1, tipless, 1)


def test_non_cone_configuration_is_rejected():
    # a diamond with labels no cone lattice can carry
    cfg = Configuration(
        [(0, 0), (2, 1), (3, 2), (9, 3)], [(0, 1), (1, 2), (2, 3)]
    )
    with pytest.raises(NotAConeConfiguration):
        reconstruct_from_cone_config(cfg, VariantKind.FULL, 1)


def test_source_configuration_is_not_mistaken_for_a_cone():
    # the configuration of the matroid itself (not of any cone)
    cfg = configuration(example_pair()[0])
    with pytest.raises(NotAConeConfiguration):
        reconstruct_from_cone_config(cfg, VariantKind.FULL, 1)


@given(
    st.sampled_from([M for _, M in FIXTURES if M.rank_int >= 3 and M.n <= 6]),
    st.sampled_from(KINDS),
)
@settings(max_examples=25, deadline=None)
def test_round_trip_rank_three_and_up_sampled(M, kind):
    m = _MIN_M[kind]
    got = reconstruct_from_cone_config(_cone_config(M, m, kind), kind, m)
    assert is_isomorphic(got, M) is not None
