"""Acceptance gate: eight end-to-end criteria, one test each.

Every test prints a single "criterion N: PASS ..." line on success so a
plain pytest -v (or -s) run reads as a checklist.  These are heavier
than the unit suites: exhaustive sweeps at 3x3 and 4x4, long reduction
traces, and a ten-thousand-step walk.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from itertools import permutations

from subtoric.binomials import (
    Binomial,
    MonomialOrder,
    buchberger_check,
    normal_form,
    orient,
    s_polynomial,
)
from subtoric.fibers import (
    fibers_of_degree,
    generation_check,
    initial_ideal_census,
    random_walk,
    walk_vs_exact,
)
from subtoric.ideal import all_quads, block_reduce, build_generators, minor_excluded
from subtoric.tables import (
    CellTable,
    PermPair,
    Subset,
    TableShape,
    block_pattern,
    classify,
    classify_oracle,
    is_triangular_in_place,
)
from util import random_staircase, random_subset, random_table, staircases

SHAPE4 = TableShape(4, 4)


def _all_perm_pairs(m: int, n: int) -> list[PermPair]:
    return [
        PermPair(rp, cp)
        for rp in permutations(range(1, m + 1))
        for cp in permutations(range(1, n + 1))
    ]


@lru_cache(maxsize=1)
def _permuted_staircases_4x4() -> tuple[Subset, ...]:
    """Every row/column permutation of every 4x4 staircase, deduplicated."""
    seen: dict = {}
    perms = _all_perm_pairs(4, 4)
    for s in staircases(4, 4):
        for p in perms:
            t = s.permuted(p)
            seen.setdefault(t.mask, t)
    return tuple(seen.values())


@lru_cache(maxsize=1)
def _block_subsets_4x4() -> tuple[Subset, ...]:
    """Every 4x4 subset that is two-block up to permutation."""
    seen: dict = {}
    perms = _all_perm_pairs(4, 4)
    for r in range(5):
        for c in range(5):
            b = block_pattern(SHAPE4, r, c)
            for p in perms:
                t = b.permuted(p)
                seen.setdefault(t.mask, t)
    return tuple(seen.values())


def test_criterion_1_exhaustive_3x3_sweep():
    """All 512 subsets: fast recognition matches the permutation oracle,
    and membership in either class is exactly fiber connectivity up to
    degree 4."""
    cells3 = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    agree = connected = 0
    for bits in range(512):
        s = Subset.from_cells(
            3, 3, [c for k, c in enumerate(cells3) if bits >> k & 1]
        )
        fast = classify(s)
        slow = classify_oracle(s)
        assert (fast.triangular is None) == (slow.triangular is None), s.cells
        assert (fast.block_diagonal is None) == (slow.block_diagonal is None), s.cells
        agree += 1

        in_class = fast.triangular is not None or fast.block_diagonal is not None
        check = generation_check(s, build_generators(s), 4)
        assert check.passed == in_class, s.cells
        connected += check.passed
    assert agree == 512
    print(
        f"criterion 1: PASS  512/512 subsets, oracle agreement and "
        f"class <=> connectivity ({connected} connected)"
    )


def test_criterion_2_groebner_certification_all_permuted_staircases():
    """Every permuted 4x4 staircase classifies as triangular; its
    canonical form passes Buchberger and balances the census through
    degree 4."""
    order = MonomialOrder(SHAPE4)
    stair_masks = {s.mask for s in staircases(4, 4)}
    certified: dict = {}
    subsets = _permuted_staircases_4x4()
    assert len(subsets) == 6902
    for s in subsets:
        cls = classify(s)
        assert cls.triangular is not None, s.cells
        canonical = s.permuted(cls.triangular)
        assert is_triangular_in_place(canonical), s.cells
        assert canonical.mask in stair_masks
        if canonical.mask in certified:
            continue
        gens = build_generators(canonical)
        report = buchberger_check(gens.binomials(order), order)
        assert report.passed, canonical.cells
        census = initial_ideal_census(canonical, gens, order, 4)
        assert [r.degree for r in census] == [0, 1, 2, 3, 4]
        assert all(r.balanced for r in census), canonical.cells
        certified[canonical.mask] = True
    assert len(certified) == 70
    print(
        f"criterion 2: PASS  {len(subsets)} permuted staircases -> "
        f"{len(certified)} canonical forms, all Buchberger-certified and "
        f"census-balanced to degree 4"
    )


def test_criterion_3_squarefree_antidiagonal_leading_terms():
    """For every generator set from criterion 2's subsets, every oriented
    leading term is the antidiagonal pair, hence squarefree."""
    order = MonomialOrder(SHAPE4)
    checked = 0
    for s in _permuted_staircases_4x4():
        gens = build_generators(s)
        for q, g in zip(gens, gens.binomials(order)):
            (a1, a2) = q.antidiagonal_cells
            anti = CellTable.variable(SHAPE4, *a1) * CellTable.variable(SHAPE4, *a2)
            assert g.plus == anti, (s.cells, q.as_tuple)
            assert g.plus.is_squarefree, (s.cells, q.as_tuple)
            checked += 1
    assert checked > 0
    print(
        f"criterion 3: PASS  {checked} oriented generators across 6902 "
        f"subsets, every leading term antidiagonal and squarefree"
    )


def test_criterion_4_block_reduction_preserves_generators_and_fibers():
    """Every 4x4 block-diagonal subset reduces to a staircase with the
    same generator index set and identical fiber partitions through
    degree 4."""

    def partition(s: Subset, d: int) -> list[tuple]:
        return sorted(
            tuple(t.flat for t in f.tables) for f in fibers_of_degree(s, d)
        )

    subsets = _block_subsets_4x4()
    assert len(subsets) == 128
    for s in subsets:
        w = classify(s).block_diagonal
        assert w is not None, s.cells
        moved = s.permuted(w.perms)
        reduced = block_reduce(s, w)
        assert is_triangular_in_place(reduced), s.cells
        assert (
            build_generators(moved).index_set == build_generators(reduced).index_set
        ), s.cells
        for d in range(5):
            assert partition(moved, d) == partition(reduced, d), (s.cells, d)
    print(
        "criterion 4: PASS  128 block subsets reduced, generator index "
        "sets and degree <=4 fiber partitions identical"
    )


def test_criterion_5_diagonal_negative_witness():
    """The 3x3 diagonal fails generation at degree 4 with the frozen
    disconnected fiber of the two off-diagonal permutation tables."""
    diag = Subset.from_cells(3, 3, [(1, 1), (2, 2), (3, 3)])
    check = generation_check(diag, build_generators(diag), 4)
    assert not check.passed
    w = check.witness
    assert w is not None
    assert w.key.row_sums == (1, 1, 1)
    assert w.key.col_sums == (1, 1, 1)
    assert w.key.in_sum == 0
    assert [t.flat for t in w.tables] == [
        (0, 0, 1, 1, 0, 0, 0, 1, 0),
        (0, 1, 0, 0, 0, 1, 1, 0, 0),
    ]
    print(
        "criterion 5: PASS  3x3 diagonal rejected with the frozen "
        "two-table disconnected fiber at degree 3"
    )


def test_criterion_6_exclusion_equals_non_membership():
    """Exhaustive at 4x4: for every staircase and every quadruple, the
    local exclusion test agrees with the generator-set listing."""
    quads = all_quads(SHAPE4)
    pairs = 0
    for s in staircases(4, 4):
        index = set(build_generators(s).index_set)
        for q in quads:
            assert minor_excluded(s, q) == (q.as_tuple not in index), (
                s.cells,
                q.as_tuple,
            )
            pairs += 1
    assert pairs == 70 * 36
    print(
        f"criterion 6: PASS  {pairs} staircase/quadruple pairs, exclusion "
        f"test equals non-membership everywhere"
    )


def _assert_monotone_trace(trace, order: MonomialOrder) -> None:
    for prev, step in zip(trace, trace[1:]):
        assert prev.after == step.before
    for step in trace:
        before = step.before
        assert isinstance(before, Binomial)
        assert before.plus != before.minus
        if step.after is None:
            continue
        after = step.after
        assert after.plus != after.minus
        kb, ka = order.key(before.plus), order.key(after.plus)
        # Leading monomial never climbs; the (lead, trail) pair drops
        # strictly, so every step makes lexicographic progress.
        assert ka <= kb
        assert ka < kb or order.key(after.minus) < order.key(before.minus)


def test_criterion_7_reduction_traces_and_coprime_pairs():
    """1000 random reduction traces stay binomial with strictly
    decreasing terms; 100 coprime-leading-term S-pairs reduce to zero by
    the pair alone."""
    rng = random.Random(708090)
    traces = 0
    while traces < 1000:
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        order = MonomialOrder(TableShape(m, n))
        s = random_subset(rng, m, n)
        gens = build_generators(s).binomials(order)
        if not gens:
            continue
        if traces % 2 == 0:
            a = random_table(rng, m, n, rng.randint(2, 5))
            b = random_table(rng, m, n, rng.randint(2, 5))
            if a == b:
                continue
            f = orient(Binomial(a, b), order)
        else:
            g1 = gens[rng.randrange(len(gens))]
            g2 = gens[rng.randrange(len(gens))]
            f = s_polynomial(g1, g2, order)
            if f is None:
                continue
        _, trace = normal_form(f, gens, order)
        _assert_monotone_trace(trace, order)
        traces += 1

    coprime_cases = 0
    while coprime_cases < 100:
        m, n = rng.randint(3, 5), rng.randint(3, 5)
        order = MonomialOrder(TableShape(m, n))
        gens = build_generators(random_staircase(rng, m, n)).binomials(order)
        if len(gens) < 2:
            continue
        i, j = rng.randrange(len(gens)), rng.randrange(len(gens))
        if i == j:
            continue
        g1, g2 = gens[i], gens[j]
        if not g1.plus.coprime(g2.plus):
            continue
        sp = s_polynomial(g1, g2, order)
        if sp is not None:
            remainder, _ = normal_form(sp, [g1, g2], order)
            assert remainder is None, (g1, g2)
        coprime_cases += 1
    print(
        "criterion 7: PASS  1000 traces monotone and binomial, 100 "
        "coprime S-pairs reduced to zero by their own pair"
    )


def test_criterion_8_walk_uniformity_and_reproducibility():
    """A 10^4-step seeded walk on the two-table 2x2 fiber lands within
    0.05 total variation of uniform, and the seed pins the trace."""
    s = Subset.full(2, 2)
    start = CellTable.from_rows([[1, 0], [0, 1]])
    moves = build_generators(s)

    first = random_walk(s, start, moves, 10_000, 7)
    second = random_walk(s, start, moves, 10_000, 7)
    assert first == second
    blob = json.dumps(first.to_json_dict(), sort_keys=True)
    assert blob == json.dumps(second.to_json_dict(), sort_keys=True)

    tv = walk_vs_exact(s, start, moves, 10_000, 7)
    assert tv < 0.05
    print(
        f"criterion 8: PASS  10000-step walk, tv={tv:.4f} < 0.05, "
        f"identical seed reproduces the trace"
    )
