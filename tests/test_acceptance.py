"""Acceptance gate: one test per advertised guarantee, with time budgets.

Each test prints a single PASS line when its claim holds (run with -s to
see them).  Budgets are generous for CI noise but still catch blowups.
"""

import time
from contextlib import contextmanager

from freecone import (
    VariantKind,
    catenary_data,
    catenary_of_cone,
    configuration,
    free_m_cone,
    g_invariant,
    higgs_lift,
    is_isomorphic,
    reconstruct_from_cone_config,
    src_data,
    src_from_g,
    tutte,
    tutte_of_cone_from_src,
    validate_axioms,
    variant,
)
from freecone.catalog import (
    example_pair,
    fixture_matroids,
    search_separating_pair,
    separating_pair,
    uniform,
    verify_separating_claims,
)
from oracles import (
    bases_masks,
    flag_bijection,
    flag_bijection_inverse,
    flag_tuples,
    flags,
    rank_from_bases,
    src_counts,
)

M1, M2 = example_pair()

_MIN_M = {
    VariantKind.FULL: 1,
    VariantKind.TIPLESS: 2,
    VariantKind.BASELESS: 2,
    VariantKind.TIPLESS_BASELESS: 3,
}


@contextmanager
def _budget(seconds, line):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"{line} took {elapsed:.1f}s, budget {seconds}s"
    print(f"{line} ({elapsed:.2f}s)")


def test_criterion_01_example_pair_g_invariant():
    with _budget(1, "criterion 1: PASS equal G-invariants 648/72 on the example pair"):
        g1, g2 = g_invariant(M1), g_invariant(M2)
        assert g1 == g2
        assert g1.counts == {"111000": 648, "110100": 72}


def test_criterion_02_example_pair_catenary():
    with _budget(1, "criterion 2: PASS catenary counts 6 and 18 on the example pair"):
        for M in (M1, M2):
            cat = catenary_data(M)
            assert cat.counts[(0, 1, 2, 3)] == 6
            assert cat.counts[(0, 1, 1, 4)] == 18
            assert sum(cat.counts.values()) == 24


def test_criterion_03_example_pair_configuration():
    with _budget(1, "criterion 3: PASS equal diamond configurations, sources not isomorphic"):
        c1, c2 = configuration(M1), configuration(M2)
        assert c1 == c2
        assert sorted(c1.labels) == [(0, 0), (3, 2), (3, 2), (6, 3)]
        assert len(c1.covers) == 4
        assert is_isomorphic(M1, M2) is None


def test_criterion_04_cones_same_catenary_different_configuration():
    with _budget(30, "criterion 4: PASS cones keep equal catenary data, configurations split (m=1,2)"):
        for m in (1, 2):
            Q1, Q2 = free_m_cone(M1, m), free_m_cone(M2, m)
            assert catenary_data(Q1) == catenary_data(Q2), m
            assert configuration(Q1) != configuration(Q2), m


def test_criterion_05_catenary_transfer_sweep():
    fixtures = fixture_matroids()
    assert len(fixtures) >= 20
    with _budget(300, "criterion 5: PASS catenary transfer matches direct on all fixtures, m=1..3, all variants"):
        for name, M in fixtures:
            cat = catenary_data(M)
            for m in (1, 2, 3):
                Q = free_m_cone(M, m)
                for kind in VariantKind:
                    direct = catenary_data(variant(Q, kind))
                    assert catenary_of_cone(cat, m, kind) == direct, (name, m, kind)


def test_criterion_06_flag_bijection():
    with _budget(60, "criterion 6: PASS 912 decorated flags map bijectively onto the cone flags"):
        Q = free_m_cone(M1, 1)
        tuples = list(flag_tuples(Q))
        images = [flag_bijection(t, Q) for t in tuples]
        assert len(tuples) == 912
        assert len(set(images)) == len(images)
        assert len(images) == sum(1 for _ in flags(Q))
        for t, f in zip(tuples, images):
            assert flag_bijection_inverse(f, Q) == t


def test_criterion_07_higgs_lift():
    with _budget(60, "criterion 7: PASS tipless-baseless single cone is the free rank lift, all fixtures"):
        for name, M in fixture_matroids():
            V = variant(free_m_cone(M, 1), VariantKind.TIPLESS_BASELESS)
            assert is_isomorphic(V, higgs_lift(M)) is not None, name


def test_criterion_08_reconstruction_round_trip():
    with _budget(120, "criterion 8: PASS reconstruction round trips at the minimum m, all rank>=3 fixtures"):
        cases = 0
        for name, M in fixture_matroids():
            if M.rank_mask(M.full_mask) < 3:
                continue
            for kind, m in _MIN_M.items():
                cfg = configuration(variant(free_m_cone(M, m), kind))
                got = reconstruct_from_cone_config(cfg, kind, m)
                assert is_isomorphic(got, M) is not None, (name, kind.value, m)
                cases += 1
        assert cases >= 40


def test_criterion_09_tutte_pipeline():
    with _budget(300, "criterion 9: PASS src-based Tutte transfer and g-to-src recovery"):
        for name, M in fixture_matroids():
            s = src_data(M)
            for m in (1, 2):
                Q = free_m_cone(M, m)
                for kind in VariantKind:
                    V = variant(Q, kind)
                    assert tutte_of_cone_from_src(s, m, kind) == tutte(V), (name, m, kind)
        pool = list(fixture_matroids())
        pool.append(("eight-point-plane", uniform(4, 8)))
        pool.append(("seven-point-separator", separating_pair()[0]))
        for name, M in pool:
            assert M.n <= 8
            oracle = src_counts(M.n, rank_from_bases(bases_masks(M)))
            assert src_from_g(g_invariant(M)).counts == oracle, name


def test_criterion_10_separating_pair():
    with _budget(300, "criterion 10: PASS bundled and searched pairs separate g from Tutte"):
        N1, N2 = separating_pair()
        assert verify_separating_claims(N1, N2)
        assert tutte(N1) == tutte(N2)
        assert src_data(N1).counts[(4, 3, 1)] == 20
        assert src_data(N2).counts[(4, 3, 1)] == 18
        assert g_invariant(N1) != g_invariant(N2)
        assert tutte(free_m_cone(N1, 1)) != tutte(free_m_cone(N2, 1))
        found = search_separating_pair()
        assert verify_separating_claims(*found)


def test_criterion_11_axiom_validator_on_mutations():
    with _budget(1, "criterion 11: PASS cone lattice valid, 10 rank mutations each caught"):
        Q = free_m_cone(M1, 1)
        zf = sorted(Q.zf, key=lambda entry: (bin(entry[0]).count("1"), entry[0]))
        assert len(zf) == 22
        assert validate_axioms(zf).ok
        # index into the (size, mask)-sorted list, rank offset, expected axiom
        mutations = [
            (0, 1, "Z1"),
            (1, -1, "Z3"),
            (2, -1, "Z3"),
            (21, 1, "Z3"),
            (1, 1, "Z2"),
            (3, -1, "Z2"),
            (9, 1, "Z2"),
            (18, -1, "Z2"),
            (20, 1, "Z2"),
            (21, -1, "Z2"),
        ]
        for idx, delta, expected in mutations:
            mutated = [
                (mask, rank + delta if i == idx else rank)
                for i, (mask, rank) in enumerate(zf)
            ]
            report = validate_axioms(mutated)
            assert not report.ok, (idx, delta)
            assert report.axiom == expected, (idx, delta, report.axiom)
