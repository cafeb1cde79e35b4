"""The certificate search against the search without back-jumps.

`Configuration` jumps back over a subtree as soon as one of its leaves
prints the certificate of the first or the best leaf, and its refinement
keys a node that is alone in its colour by that colour only.
`oracles.certificate_search` walks every subtree that orbit pruning keeps
and keys every node by its whole down-set and up-set.  Both must give the
same certificate and the same canonical order, so the `config` documents,
which list the nodes in that order, do not change.
"""

import random
from itertools import combinations

import pytest

import oracles
from freecone import Configuration, VariantKind, configuration, free_m_cone, variant, zlattice
from freecone.catalog import example_pair, fixture_matroids, rank_two, separating_pair, uniform


def _sources():
    return (
        [M for _, M in fixture_matroids()]
        + list(example_pair())
        + list(separating_pair())
        + [uniform(3, k) for k in range(4, 11)]
        + [rank_two(sizes) for sizes in ([2, 2, 2], [3, 2], [3, 3, 1], [4, 2, 2])]
    )


def _corpus():
    """Every source and its 1- and 2-cones in all four kinds; for sources
    of up to 6 elements also the 1-cone of their 1-cone."""
    out = []
    for M in _sources():
        out.append(configuration(M))
        if not M.is_loopless():
            continue
        out += [configuration(variant(free_m_cone(M, m), k)) for m in (1, 2) for k in VariantKind]
        if M.n <= 6:
            out.append(configuration(free_m_cone(free_m_cone(M, 1), 1)))
    return out


CORPUS = _corpus()


def _mismatches(configs):
    return [
        (i, cfg)
        for i, cfg in enumerate(configs)
        if (cfg.certificate, cfg.canonical_order())
        != oracles.certificate_search(cfg.labels, cfg.covers)
    ]


def test_corpus_spans_the_advertised_families():
    assert len(CORPUS) >= 400
    assert max(len(cfg) for cfg in CORPUS) > 500


def test_search_matches_the_oracle_on_the_corpus():
    assert _mismatches(CORPUS) == []


SMALL = [cfg for cfg in CORPUS if len(cfg) <= 120]


def test_search_matches_the_oracle_with_reversed_node_indices():
    # the search branches on the nodes of a cell in index order, so the
    # reversed indices walk the tree in another order
    assert len(SMALL) >= 300
    assert _mismatches([oracles.reversed_nodes(cfg) for cfg in SMALL]) == []


def test_equality_agrees_with_the_certificates():
    # equality rejects by the quotient of the stable coloring before any
    # search; fresh copies start with no coloring and no certificate
    reversed_ = [oracles.reversed_nodes(cfg) for cfg in SMALL]
    assert all(r._quotient() == cfg._quotient() for r, cfg in zip(reversed_, SMALL))
    configs = [Configuration(cfg.labels, cfg.covers) for cfg in SMALL + reversed_]
    by_count: dict[int, list] = {}
    for cfg in configs:
        by_count.setdefault(len(cfg), []).append(cfg)
    pairs = [(a, b) for group in by_count.values() for a, b in combinations(group, 2)]
    assert len(pairs) >= 10_000
    assert all((a == b) is (a.certificate == b.certificate) for a, b in pairs)


def _regular(rng, n, d):
    """A random d-regular bipartite graph on n + n nodes, as edges (a, b)."""
    while True:
        edges = set()
        for _ in range(d):
            perm = list(range(n))
            rng.shuffle(perm)
            edges.update(enumerate(perm))
        if len(edges) == n * d:
            return edges


def _regular_poset(rng):
    """Bottom, two levels of equal labels, top.  Between the levels sits a
    disjoint union of d-regular bipartite graphs, some of them repeated,
    so refinement splits nothing and the search branches at every depth
    over non-equivalent as well as symmetric subtrees.  Node indices are
    shuffled."""
    d = rng.choice((2, 3))
    graphs = [_regular(rng, rng.randint(d + 1, 5), d) for _ in range(rng.randint(1, 3))]
    return _shuffled(_stacked([rng.choice(graphs) for _ in range(rng.randint(2, 3))], d), rng)


def _stacked(graphs, d):
    """Bottom, two levels of equal labels, top, and between the levels the
    disjoint union of `graphs`, d-regular bipartite graphs as edge sets."""
    edges, n = [], 0
    for g in graphs:
        edges += [(n + a, n + b) for a, b in g]
        n += len(g) // d
    t = 2 * n + 2
    labels = [(0, 0)] + [(1, 1)] * n + [(2, 2)] * n + [(3, 3)]
    covers = [(0, 1 + i) for i in range(n)] + [(1 + n + j, t - 1) for j in range(n)]
    covers += [(1 + a, 1 + n + b) for a, b in edges]
    return Configuration(labels, covers)


def _shuffled(cfg, rng):
    """The same configuration with its node indices shuffled."""
    t = len(cfg)
    perm = list(range(t))
    rng.shuffle(perm)
    where = {p: i for i, p in enumerate(perm)}
    return Configuration(
        [cfg.labels[where[i]] for i in range(t)], [(perm[i], perm[j]) for i, j in cfg.covers]
    )


def test_equality_searches_when_refinement_does_not_separate(searches, stopping_searches):
    # refinement splits nothing on a regular poset, so two of the same
    # shape share their quotient and only the search tells them apart: one
    # descends to its first leaf, and the other's search finds no leaf
    # with that certificate
    rng = random.Random(5)
    by_quotient: dict[tuple, list] = {}
    for cfg in (_regular_poset(rng) for _ in range(50)):
        by_quotient.setdefault(cfg._quotient(), []).append(cfg)
    a, b = next(
        (a, b)
        for group in by_quotient.values()
        for a, b in combinations(group, 2)
        if a.certificate != b.certificate
    )
    a, b = (Configuration(cfg.labels, cfg.covers) for cfg in (a, b))
    searches.clear()
    assert a != b
    assert searches == []
    assert stopping_searches == ["descent", "match"]
    assert _shuffled(a, rng) == a


@pytest.mark.parametrize("n, d, k", [(6, 2, 4), (7, 3, 3)])
def test_equality_searches_no_more_than_both_certificates(monkeypatch, n, d, k):
    # k copies of a regular graph g1 against k - 1 copies and one other
    # graph g2, then against a shuffled copy: refinement splits neither
    # pair, and a pair search without automorphism pruning on its second
    # poset took minutes on the first pair of (6, 2, 4).  For n = 6 this
    # seed draws a 4-cycle plus an 8-cycle as g1, whose copies make the
    # slowest of these searches, and a 12-cycle as g2.
    rng = random.Random(8)
    g1 = _regular(rng, n, d)
    alone = _stacked([g1], d).certificate
    g2 = next(g for g in iter(lambda: _regular(rng, n, d), None)
              if _stacked([g], d).certificate != alone)
    base = _stacked([g1] * k, d)
    refines = []
    refine = zlattice._refine

    def counted(*args):
        refines.append(None)
        return refine(*args)

    monkeypatch.setattr(zlattice, "_refine", counted)
    answers = []
    for other in (_stacked([g1] * (k - 1) + [g2], d), _shuffled(base, rng)):
        a, b = (Configuration(cfg.labels, cfg.covers) for cfg in (base, other))
        assert a._quotient() == b._quotient()
        refines.clear()
        answers.append(a == b)
        by_equality = len(refines)
        a, b = (Configuration(cfg.labels, cfg.covers) for cfg in (base, other))
        refines.clear()
        assert answers[-1] is (a.certificate == b.certificate)
        assert by_equality <= len(refines)
    assert answers == [False, True]


def test_search_matches_the_oracle_on_regular_posets():
    # a back-jump that goes too far, or a frame that does not resume at
    # its depth, still matches on the cone corpus but not on these posets
    rng = random.Random(5)
    assert _mismatches([_regular_poset(rng) for _ in range(50)]) == []


@pytest.mark.parametrize("k", [12, 14])
def test_symmetric_cone_certificate_is_invariant(k):
    # the search without back-jumps takes seconds on the 1-cone of U(3,12)
    # and did not finish in 90 s on U(3,14)
    cfg = configuration(free_m_cone(uniform(3, k), 1))
    assert oracles.reversed_nodes(cfg).certificate == cfg.certificate
