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

import pytest

import oracles
from freecone import Configuration, VariantKind, configuration, free_m_cone, variant
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


def test_search_matches_the_oracle_with_reversed_node_indices():
    # the search branches on the nodes of a cell in index order, so the
    # reversed indices walk the tree in another order
    small = [cfg for cfg in CORPUS if len(cfg) <= 120]
    assert len(small) >= 300
    assert _mismatches([oracles.reversed_nodes(cfg) for cfg in small]) == []


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
    edges, n = [], 0
    for g in (rng.choice(graphs) for _ in range(rng.randint(2, 3))):
        edges += [(n + a, n + b) for a, b in g]
        n += len(g) // d
    t = 2 * n + 2
    labels = [(0, 0)] + [(1, 1)] * n + [(2, 2)] * n + [(3, 3)]
    covers = [(0, 1 + i) for i in range(n)] + [(1 + n + j, t - 1) for j in range(n)]
    covers += [(1 + a, 1 + n + b) for a, b in edges]
    perm = list(range(t))
    rng.shuffle(perm)
    where = {p: i for i, p in enumerate(perm)}
    return Configuration(
        [labels[where[i]] for i in range(t)], [(perm[i], perm[j]) for i, j in covers]
    )


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
