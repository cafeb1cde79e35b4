"""The order kernel of cyclic-flat families against the scanning oracles.

`validate_axioms` and `Configuration` read joins, meets, the order and
its covers from up-set and down-set bitmasks.  `oracles.validate_axioms`
and `oracles.hasse_covers` find the same things by scanning every member
(O(t^3)); both must agree on every report field and every error text.
"""

import random

import pytest

import oracles
from freecone import (
    Configuration,
    ValidationError,
    VariantKind,
    configuration,
    free_m_cone,
    validate_axioms,
    variant,
)
from freecone.catalog import example_pair, fixture_matroids, separating_pair, uniform

PERTURBATIONS = 4000


def _sources():
    return (
        [M for _, M in fixture_matroids()]
        + list(example_pair())
        + list(separating_pair())
        + [uniform(3, 11)]
    )


def _corpus():
    """Every source and its 1-3-cones in all four kinds, plus the 1-cone
    of the example's 1-cone, whose family has 224 members."""
    out = []
    for M in _sources():
        out.append(M)
        if M.is_loopless():
            out.extend(variant(free_m_cone(M, m), kind) for m in (1, 2, 3) for kind in VariantKind)
    out.append(free_m_cone(free_m_cone(example_pair()[0], 1), 1))
    return out


CORPUS = _corpus()


def _perturb(rng, M):
    n, fam = M.n, list(M.zf)
    how = rng.randrange(4)
    i = rng.randrange(len(fam))
    mask, rank = fam[i]
    if how == 0 and len(fam) > 1:  # drop a member
        del fam[i]
    elif how == 1:  # change a rank
        fam[i] = (mask, rank + rng.choice((-1, 1)))
    elif how == 2:  # flip a bit, possibly onto another member's set
        fam[i] = (mask ^ 1 << rng.randrange(max(n, 1)), rank)
    else:  # add a set
        fam.append((rng.getrandbits(max(n, 1)), rng.randrange(rank + 2)))
    rng.shuffle(fam)
    return fam


def _assert_same_reports(family):
    # the kernel checks Z3 on incomparable pairs only; comparable pairs meet
    # it with equality, so both modes of the scan give the kernel's report
    got = validate_axioms(family)
    for incomparable_only in (False, True):
        want = oracles.validate_axioms(family, incomparable_only=incomparable_only)
        assert got == want, (family, incomparable_only)
    return got


def test_corpus_spans_the_advertised_families():
    sizes = sorted(len(M.zf) for M in CORPUS)
    assert len(CORPUS) > 450 and sizes[-1] == 224


def test_validate_axioms_matches_the_scan_on_the_corpus():
    for M in CORPUS:
        assert _assert_same_reports(M.zf).ok
    # two 3-point lines sharing two points: Z3 fails on an incomparable pair
    bad = [(0, 0), (0b01110, 2), (0b10110, 2), (0b11111, 3)]
    assert _assert_same_reports(bad).axiom == "Z3"


def perturbed_families():
    """(n, family) for the seeded perturbations of the smaller corpus members."""
    rng = random.Random(20210)
    bases = [M for M in CORPUS if len(M.zf) <= 40]
    for _ in range(PERTURBATIONS):
        M = rng.choice(bases)
        yield M.n, _perturb(rng, M)


def test_validate_axioms_matches_the_scan_on_perturbations():
    axioms = {}
    for _, family in perturbed_families():
        report = _assert_same_reports(family)
        axioms[report.axiom] = axioms.get(report.axiom, 0) + 1
    # every axiom is reached, and valid families survive some perturbations
    assert set(axioms) == {None, "Z0", "Z1", "Z2", "Z3"}, axioms
    assert min(axioms.values()) >= 20, axioms


def _outcome(labels, covers):
    """(covers, leq rows) of a configuration, or its ValidationError text."""
    try:
        cfg = Configuration(labels, covers)
    except ValidationError as exc:
        return str(exc)
    t = len(labels)
    rows = [sum(1 << j for j in range(t) if cfg.leq(i, j)) for i in range(t)]
    return list(cfg.covers), rows


def _oracle_outcome(labels, covers):
    try:
        leq, cov = oracles.hasse_covers(labels, covers)
    except ValidationError as exc:
        return str(exc)
    return cov, leq


def _comparable_pairs(family):
    return [
        (i, j)
        for i, (x, _) in enumerate(family)
        for j, (y, _) in enumerate(family)
        if i != j and x & y == x
    ]


def test_configuration_matches_the_reduction_on_the_corpus():
    for M in CORPUS:
        labels = [(z.bit_count(), r) for z, r in M.zf]
        pairs = _comparable_pairs(M.zf)
        want = _oracle_outcome(labels, pairs)
        assert _outcome(labels, pairs) == want
        # configuration(M) passes only the covers it finds itself
        assert list(configuration(M).covers) == want[0]


@pytest.mark.parametrize(
    "labels, covers",
    [
        # redundant: the chain 0 < 1 < 2 listed with its shortcut
        ([(0, 0), (2, 1), (4, 2)], [(0, 1), (1, 2), (0, 2)]),
        # redundant: a diamond with every comparable pair, twice over
        ([(0, 0), (3, 2), (3, 2), (6, 3)], [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)] * 2),
        # a cycle
        ([(0, 0), (2, 1), (4, 2)], [(0, 1), (1, 2), (2, 1)]),
        # two bottoms
        ([(0, 0), (1, 0), (3, 1)], [(0, 2), (1, 2)]),
        # two tops
        ([(0, 0), (2, 1), (3, 1)], [(0, 1), (0, 2)]),
        # a label that does not increase along a cover
        ([(0, 0), (2, 1), (2, 2), (5, 3)], [(0, 1), (1, 2), (2, 3)]),
        # a bottom of nonzero rank
        ([(0, 1), (2, 2)], [(0, 1)]),
        # a cover pair out of range
        ([(0, 0), (2, 1)], [(0, 2)]),
    ],
    ids=["chain", "diamond", "cycle", "two-bottoms", "two-tops", "labels", "rank", "range"],
)
def test_configuration_matches_the_reduction_on_cover_lists(labels, covers):
    assert _outcome(labels, covers) == _oracle_outcome(labels, covers)


def test_configuration_matches_the_reduction_on_perturbed_covers():
    rng = random.Random(2008)
    small = [M for M in CORPUS if 2 <= len(M.zf) <= 30]
    kinds = {"ok": 0, "error": 0}
    for _ in range(1000):
        M = rng.choice(small)
        family, t = M.zf, len(M.zf)
        labels = [(z.bit_count(), r) for z, r in family]
        covers = list(configuration(M).covers)
        how = rng.randrange(4)
        if how == 0:  # add a comparable pair, possibly redundant
            covers.append(rng.choice(_comparable_pairs(family)))
        elif how == 1:  # reverse a cover
            i, j = covers.pop(rng.randrange(len(covers)))
            covers.append((j, i))
        elif how == 2:  # drop a cover
            covers.pop(rng.randrange(len(covers)))
        else:  # add an arbitrary pair
            i, j = rng.sample(range(t), 2)
            covers.append((i, j))
        rng.shuffle(covers)
        want = _oracle_outcome(labels, covers)
        assert _outcome(labels, covers) == want, (labels, covers)
        kinds["error" if isinstance(want, str) else "ok"] += 1
    assert min(kinds.values()) >= 100, kinds


# bottom, two atoms, two nodes above both atoms, top: the atoms have two
# minimal common upper bounds and so no join
BOWTIE = Configuration(
    [(0, 0), (2, 1), (2, 1), (5, 2), (5, 2), (9, 3)],
    [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)],
)


@pytest.mark.parametrize(
    "cfg",
    [
        configuration(free_m_cone(example_pair()[0], 1)),
        oracles.reversed_nodes(configuration(free_m_cone(example_pair()[0], 1))),
        BOWTIE,
        oracles.reversed_nodes(BOWTIE),
    ],
    ids=["cone", "cone-reversed", "bowtie", "bowtie-reversed"],
)
def test_join_and_between_match_the_order(cfg):
    t = len(cfg)
    for i in range(t):
        for j in range(t):
            ups = [k for k in range(t) if cfg.leq(i, k) and cfg.leq(j, k)]
            least = [k for k in ups if all(cfg.leq(k, u) for u in ups)]
            assert cfg.join(i, j) == (least[0] if least else None)
            between = [k for k in range(t) if k not in (i, j) and cfg.leq(i, k) and cfg.leq(k, j)]
            assert cfg.strictly_between(i, j) == between
    assert cfg.join() == cfg.bottom
    assert cfg.join(*range(t)) == cfg.top


def test_bowtie_atoms_have_no_join():
    assert BOWTIE.join(1, 2) is None and BOWTIE.join(3, 4) == 5
