"""Rank formula, closure, minors, and construction paths, checked against
brute-force oracles that work from explicit basis lists."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecone import (
    AxiomViolation,
    ConeMatroid,
    GroundSetTooLarge,
    Matroid,
    NotABasisSystem,
    VariantKind,
    free_m_cone,
    from_bases,
    from_cyclic_flats,
    is_isomorphic,
    matroid_from_rank_oracle,
    validate_axioms,
    variant,
)
from freecone.catalog import example_pair, fixture_matroids, separating_pair, uniform

from oracles import (
    bases_masks,
    closure_of,
    coloops_of,
    coloops_of_restriction_mask,
    covers_by_closure,
    id_of,
    independent_mask,
    is_cyclic_mask,
    isomorphism_backtrack,
    rank_from_bases,
    sparse_paving,
    uniform_bases,
    with_loops_and_coloops,
)
from test_order_kernel import perturbed_families

FIXTURES = fixture_matroids()


def test_uniform_rank_values():
    u23 = uniform(2, 3)
    assert u23.rank_int == 2
    assert [u23.rank_mask(x) for x in range(8)] == [0, 1, 1, 2, 1, 2, 2, 2]


def test_rank_against_basis_oracle_on_all_fixtures():
    for name, M in FIXTURES:
        if M.n == 0:
            continue
        oracle = rank_from_bases(bases_masks(M))
        for x in range(1 << M.n):
            assert M.rank_mask(x) == oracle(x), (name, bin(x))


def test_uniform_bases_are_all_k_subsets():
    for k, n in [(1, 1), (2, 3), (2, 4), (3, 5)]:
        assert sorted(bases_masks(uniform(k, n))) == sorted(uniform_bases(k, n))


def test_independence_is_rank_equals_size():
    for name, M in FIXTURES:
        for x in range(1 << M.n):
            want = M.rank_mask(x) == bin(x).count("1")
            assert independent_mask(M, x) == want, name


def test_closure_matches_oracle():
    for name, M in FIXTURES:
        if M.n == 0:
            continue
        oracle = rank_from_bases(bases_masks(M))
        for x in range(1 << M.n):
            assert M.closure_mask(x) == closure_of(M.n, oracle, x), name


def test_restriction_coloops_and_cyclic_sets_match_oracle():
    for name, M in FIXTURES:
        if M.n == 0:
            continue
        oracle = rank_from_bases(bases_masks(M))
        for x in range(1 << M.n):
            want = coloops_of(M.n, oracle, x)
            assert coloops_of_restriction_mask(M, x) == want, (name, bin(x))
            assert is_cyclic_mask(M, x) == (want == 0), (name, bin(x))


def test_flats_by_rank_counts_on_the_disjoint_line_pair():
    disjoint = dict(FIXTURES)["disjoint-lines"]
    sizes = [len(level) for level in disjoint.flats_by_rank()]
    # one empty flat, six points, two long lines plus nine crossing pairs, top
    assert sizes == [1, 6, 11, 1]


def _covers_corpus():
    """Matroids whose every flat's covers are checked, with a label each."""
    sources = (
        [M for _, M in FIXTURES]
        + list(example_pair())
        + list(separating_pair())
        + [uniform(3, 8), uniform(5, 9), uniform(3, 11)]
    )
    for i, M in enumerate(sources):
        yield f"source {i}", M
        for m in (1, 2):
            for kind in VariantKind:
                yield f"source {i} {m}-cone {kind.name}", variant(free_m_cone(M, m), kind)
    rng = random.Random(5)
    for i, M in enumerate(sources[:-3]):
        for loops, coloops in itertools.product(range(3), repeat=2):
            ext = with_loops_and_coloops(M, loops, coloops)
            perm = list(range(ext.n))
            rng.shuffle(perm)
            yield f"source {i} +{loops}L+{coloops}C", ext.relabel(perm)
    # the few valid perturbations of rank 12 or more keep one or two cyclic
    # flats: Boolean-like lattices of up to 2^19 flats, with nothing to merge
    for j, (n, family) in enumerate(perturbed_families()):
        if all(z >> n == 0 for z, _ in family) and validate_axioms(family).ok:
            M = from_cyclic_flats(family, n)
            if M.rank_int < 12:
                yield f"perturbation {j}", M
    for n, r, blocks in ((7, 3, 3), (8, 4, 5), (9, 3, 6), (10, 4, 6)):
        M = sparse_paving(n, r, blocks, seed=n)
        yield f"sparse paving {n, r, blocks}", M
        yield f"sparse paving {n, r, blocks} 1-cone", free_m_cone(M, 1)


def test_covers_match_the_closure_walk():
    # most flats of the cones have covers holding several overlapping sets
    # Z - F; every flat is reached through the closure walk's own covers
    total = 0
    for label, M in _covers_corpus():
        bottom = M.closure_mask(0)
        seen, todo = {bottom}, [bottom]
        while todo:
            f = todo.pop()
            want = covers_by_closure(M, f)
            assert M.covers_mask(f) == want, (label, bin(f))
            fresh = [g for g in want if g not in seen]
            seen.update(fresh)
            todo += fresh
        total += len(seen)
    assert total > 280_000


def test_delete_matches_basis_oracle():
    # single elements, and pairs, which can take two elements off one cyclic flat
    for name, M in FIXTURES:
        if M.n < 2:
            continue
        oracle = rank_from_bases(bases_masks(M))
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
    D = M.delete({id_of(M, "2")})
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
        back = from_bases(bases_masks(M), M.n, names=M.names)
        assert back.zf == M.zf, name


def test_from_bases_rejects_non_exchange_family():
    # {a,b} and {c,d} cannot both be bases without {a,c} style mixtures
    with pytest.raises(NotABasisSystem):
        from_bases([0b0011, 0b1100], 4)


def test_from_bases_checks_the_size_bound_before_exchange():
    # the family fails exchange too; the bound is checked before the
    # exchange loop, whose cost is quadratic in the number of bases
    with pytest.raises(GroundSetTooLarge):
        from_bases([0b0011, 0b1100], 17)


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


def test_every_matroid_is_checked_by_its_constructor():
    family = [(0, 0), (0b11, 2)]  # r(E) - r(empty) = 2 = |E| breaks Z2
    report = validate_axioms(family)
    assert not report.ok and report.axiom == "Z2"
    source = uniform(1, 1)
    for build in (
        lambda: Matroid(2, family),
        lambda: ConeMatroid(2, family, ["a", "b"], 1, source),
    ):
        with pytest.raises(AxiomViolation) as exc:
            build()
        assert (exc.value.axiom, exc.value.witness, str(exc.value)) == (
            report.axiom, report.witness, report.message,
        )


def test_constructor_rejects_a_member_outside_the_ground_set():
    # {0, 1, 2} at rank 2 passes the lattice axioms, but element 2 is not
    # among the two elements of the ground set
    family = [(0, 0), (0b111, 2)]
    assert validate_axioms(family).ok
    for build in (
        lambda: Matroid(2, family),
        lambda: Matroid(2, [(-1, 0)]),
        lambda: from_cyclic_flats({frozenset({0, 1, 2}): 2, frozenset(): 0}, 2),
    ):
        with pytest.raises(ValueError, match="not a subset of the 2-element ground set"):
            build()


def test_relabel_moves_cyclic_flats():
    M = dict(FIXTURES)["disjoint-lines"]
    perm = [5, 4, 3, 2, 1, 0]
    R = M.relabel(perm)
    assert R.names == tuple(reversed(M.names))
    assert {z for z, _ in R.zf} == {z for z, _ in M.zf}  # symmetric under reversal
    M = dict(FIXTURES)["open-book"]
    perm = [3, 0, 4, 1, 2]
    moved = [(sum(1 << perm[e] for e in range(M.n) if z >> e & 1), r) for z, r in M.zf]
    R = M.relabel(perm)
    assert R == from_cyclic_flats(moved, M.n)
    assert [R.names[perm[e]] for e in range(M.n)] == list(M.names)


def test_isomorphism_finds_maps_and_refuses_impostors():
    disjoint = dict(FIXTURES)["disjoint-lines"]
    crossing = dict(FIXTURES)["crossing-lines"]
    relabeled = disjoint.relabel([3, 4, 5, 0, 1, 2])
    assert is_isomorphic(disjoint, relabeled) is not None
    assert is_isomorphic(disjoint, crossing) is None
    assert is_isomorphic(uniform(2, 4), uniform(2, 3)) is None


def _shuffled(M, seed):
    perm = list(range(M.n))
    random.Random(seed).shuffle(perm)
    return M.relabel(perm)


def _signatures(M):
    return (
        sorted((z.bit_count(), r) for z, r in M.zf),
        sorted(
            tuple(sorted((z.bit_count(), r) for z, r in M.zf if z >> e & 1))
            for e in range(M.n)
        ),
    )


def test_isomorphism_matches_the_backtracking_oracle():
    pool = [M for _, M in FIXTURES] + [*example_pair(), *separating_pair()]
    pool += [
        sparse_paving(n, r, lam, seed)
        for n, r, lam in [(7, 3, 3), (8, 4, 5), (9, 4, 5), (10, 4, 6), (10, 3, 6)]
        for seed in range(1, 5)
    ]
    pool += [_shuffled(M, seed) for seed, M in enumerate(pool)]
    found = searched_apart = 0
    for M, N in itertools.product(pool, repeat=2):
        if M.n != N.n:
            continue
        perm = is_isomorphic(M, N)
        assert (perm is None) == (isomorphism_backtrack(M, N) is None), (M, N)
        if perm is not None:
            assert M.relabel(list(perm)) == N, (M, N)
            found += 1
        elif _signatures(M) == _signatures(N):
            searched_apart += 1
    # both answers occur, and some pairs that the label and signature
    # checks cannot tell apart are told apart by the certificates
    assert found >= len(pool) and searched_apart > 0


def test_isomorphism_above_ten_elements():
    M = uniform(2, 11)
    assert is_isomorphic(M, _shuffled(M, 1)) is not None

    for k, n in ((14, 29), (20, 41)):
        Q = free_m_cone(uniform(3, k), 1)
        R = _shuffled(Q, 2)
        perm = is_isomorphic(Q, R)
        assert Q.n == n and perm is not None
        # the matched leaves give a bijection, not always the canonical one:
        # it must carry Z(Q) with its ranks onto Z(R)
        assert Q.relabel(list(perm)) == R

    Q1, Q2 = (free_m_cone(M, 1) for M in example_pair())
    assert Q1.n == Q2.n == 13
    assert is_isomorphic(Q1, Q2) is None


def test_empty_matroid():
    e = uniform(0, 0)
    assert e.n == 0 and e.rank_int == 0 and e.is_loopless()
    assert bases_masks(e) == [0]


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
    if not independent_mask(M, x):
        return
    for e in range(M.n):
        if x >> e & 1:
            assert independent_mask(M, x ^ 1 << e)
