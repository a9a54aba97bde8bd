"""Tests for subtoric.ideal: quadratic generators, exclusion, block reduction."""

from __future__ import annotations

import random

import pytest

import subtoric.ideal as ideal_mod
from subtoric.binomials import (
    MonomialOrder,
    buchberger_check,
    buchberger_check_keys,
    lex_compare,
    orient,
)
from subtoric.ideal import (
    GeneratorSet,
    QuadGen,
    all_quads,
    block_reduce,
    build_generators,
    minor_excluded,
    move_keys,
    quad_membership,
    quadratic_gb_check,
)
import subtoric.tables as tables_mod
from subtoric.tables import (
    MAX_QUADS,
    BlockWitness,
    BudgetError,
    PermPair,
    Subset,
    TableShape,
    block_pattern,
    classify,
    is_triangular_in_place,
    margins,
    restrictions,
)
from util import (
    expand_by_variables,
    random_perm_pair,
    random_staircase,
    random_subset,
    staircases,
)


def S(m, n, *cells):
    return Subset.from_cells(m, n, cells)


# ---------------------------------------------------------------- QuadGen

def test_quad_requires_increasing_indices():
    with pytest.raises(ValueError):
        QuadGen(2, 1, 1, 2)
    with pytest.raises(ValueError):
        QuadGen(1, 2, 2, 2)


def test_quad_expansion_is_the_minor_binomial():
    sh = TableShape(2, 3)
    g = QuadGen(1, 2, 1, 3).expand(sh)
    assert g.plus.support_cells == ((1, 3), (2, 1))
    assert g.minus.support_cells == ((1, 1), (2, 3))
    assert g.plus.is_squarefree and g.minus.is_squarefree


def test_expansion_matches_products_of_variables():
    for m in range(1, 5):
        for n in range(1, 6):
            shape = TableShape(m, n)
            for q in all_quads(shape):
                assert q.expand(shape) == expand_by_variables(q, shape), q


def test_antidiagonal_leads_under_the_order_on_every_quad():
    # The census reads leading terms off the moves on this fact alone.
    checked = 0
    for m in range(2, 8):
        for n in range(2, 8):
            shape = TableShape(m, n)
            order = MonomialOrder(shape)
            for q in all_quads(shape):
                lead = orient(q.expand(shape), order).plus
                assert lead.support_cells == q.antidiagonal_cells, (shape, q)
                checked += 1
    assert checked == sum(
        (m * (m - 1) // 2) * (n * (n - 1) // 2)
        for m in range(2, 8)
        for n in range(2, 8)
    )


def test_expansion_rejects_a_quad_outside_the_shape():
    with pytest.raises(ValueError, match="does not fit"):
        QuadGen(1, 2, 1, 3).expand(TableShape(2, 2))
    with pytest.raises(ValueError, match="does not fit"):
        QuadGen(1, 3, 1, 2).expand(TableShape(2, 2))


def test_move_keys_are_the_keys_of_the_expansion():
    for m in range(1, 6):
        for n in range(1, 6):
            shape = TableShape(m, n)
            order = MonomialOrder(shape)
            quads = all_quads(shape)
            expected = [
                (order.key(g.plus), order.key(g.minus))
                for g in (q.expand(shape) for q in quads)
            ]
            assert move_keys(quads, order) == expected, shape


def test_move_keys_reject_a_quad_outside_the_shape():
    order = MonomialOrder(TableShape(2, 2))
    for q in (QuadGen(1, 2, 1, 3), QuadGen(1, 3, 1, 2)):
        with pytest.raises(ValueError, match="outside 2x2"):
            move_keys([q], order)


def test_move_keys_are_the_cell_keys_of_both_sides_on_every_shape_to_8x8():
    for m in range(1, 9):
        for n in range(1, 9):
            order = MonomialOrder(TableShape(m, n))
            quads = all_quads(order.shape)
            expected = [
                (order.cells_key(q.antidiagonal_cells), order.cells_key(q.diagonal_cells))
                for q in quads
            ]
            assert move_keys(quads, order) == expected, (m, n)


def test_move_keys_name_the_cell_outside_as_the_cell_keys_do():
    order = MonomialOrder(TableShape(2, 2))
    for q, text in (
        (QuadGen(1, 2, 1, 3), "cell (1,3) outside 2x2"),
        (QuadGen(1, 3, 1, 2), "cell (3,1) outside 2x2"),
        (QuadGen(3, 4, 1, 2), "cell (3,2) outside 2x2"),
        (QuadGen(1, 3, 2, 3), "cell (1,3) outside 2x2"),
    ):
        with pytest.raises(ValueError) as err:
            move_keys([QuadGen(1, 2, 1, 2), q], order)
        assert str(err.value) == text
    # Every quad of a larger shape that leaves a smaller one, on every side.
    for m in range(1, 5):
        for n in range(1, 5):
            order = MonomialOrder(TableShape(m, n))
            for q in all_quads(TableShape(m + 2, n + 2)):
                if q.j <= m and q.ell <= n:
                    continue
                with pytest.raises(ValueError) as want:
                    order.cells_key(q.antidiagonal_cells)
                with pytest.raises(ValueError) as got:
                    move_keys([q], order)
                assert str(got.value) == str(want.value), (m, n, q)


def test_all_quads_count_and_order():
    quads = all_quads(TableShape(3, 3))
    assert len(quads) == 9
    keys = [(q.i, q.j, q.k, q.ell) for q in quads]
    assert keys == sorted(keys)
    assert len(all_quads(TableShape(4, 4))) == 36
    assert all_quads(TableShape(1, 5)) == []


def test_all_quads_refuses_too_many_moves_before_building_any(monkeypatch):
    import subtoric.ideal as ideal_mod

    def no_building(*_args):
        raise AssertionError("built a move before the budget check")

    message = "24502500 candidate moves on 100x100 exceed budget 1000000"
    assert MAX_QUADS == 1_000_000
    with monkeypatch.context() as patched:
        patched.setattr(ideal_mod, "QuadGen", no_building)
        with pytest.raises(BudgetError) as err:
            all_quads(TableShape(100, 100))
        assert str(err.value) == message
        with pytest.raises(BudgetError) as err:
            build_generators(Subset.empty(100, 100))
        assert str(err.value) == message
    # The bound is inclusive: a shape with exactly MAX_QUADS moves is built.
    monkeypatch.setattr(tables_mod, "MAX_QUADS", 36)
    assert len(all_quads(TableShape(4, 4))) == 36
    with pytest.raises(BudgetError, match="^60 candidate moves on 4x5 exceed budget 36$"):
        all_quads(TableShape(4, 5))


# ---------------------------------------------------------- build_generators

def _kept_by_counting(s):
    return [
        q
        for q in all_quads(s.shape)
        if sum(c in s for c in q.antidiagonal_cells) == sum(c in s for c in q.diagonal_cells)
    ]


def test_generators_are_the_kept_candidates_in_order_on_every_small_subset():
    shapes = {(m, n) for m in range(1, 4) for n in range(1, 5)}
    shapes |= {(n, m) for m, n in shapes}
    assert max(shapes) == (4, 3) and (3, 4) in shapes
    for m, n in sorted(shapes):
        for bits in range(1 << (m * n)):
            s = S(m, n, *[(k // n + 1, k % n + 1) for k in range(m * n) if bits >> k & 1])
            assert list(build_generators(s).quads) == _kept_by_counting(s), s.to_text()


def test_generators_are_the_kept_candidates_in_order_on_seeded_subsets():
    rng = random.Random(413)
    for _ in range(60):
        m, n = rng.randint(2, 9), rng.randint(2, 9)
        s = random_subset(rng, m, n, rng.choice((0.2, 0.5, 0.8)))
        if rng.random() < 0.3:
            s = random_staircase(rng, m, n).permuted(random_perm_pair(rng, m, n))
        assert list(build_generators(s).quads) == _kept_by_counting(s), s.to_text()


def test_generators_equal_a_per_row_pair_reference_on_a_seeded_sweep():
    rng = random.Random(2202)
    shapes = [(m, n) for m in range(1, 8) for n in range(1, 8)]
    assert (1, 7) in shapes and (7, 1) in shapes
    for m, n in shapes:
        for _ in range(3):
            s = random_subset(rng, m, n, rng.choice((0.2, 0.5, 0.8)))
            if rng.random() < 0.3:
                s = random_staircase(rng, m, n).permuted(random_perm_pair(rng, m, n))
            # Each row pair's candidates built afresh, kept by their margins.
            reference = [
                q
                for i in range(1, m + 1)
                for j in range(i + 1, m + 1)
                for q in (
                    QuadGen(i, j, k, ell)
                    for k in range(1, n + 1)
                    for ell in range(k + 1, n + 1)
                )
                if quad_membership(s, q)
            ]
            assert list(build_generators(s).quads) == reference, s.to_text()


def test_candidate_table_is_filled_after_the_budget_check_and_builds_no_move(monkeypatch):
    table = ideal_mod._quad_blocks
    table.cache_clear()
    real_check = ideal_mod._check_quad_budget
    checked = []

    def check_first(shape):
        # The table of this shape is not filled when its budget is checked.
        assert table.cache_info().currsize == len(checked)
        real_check(shape)
        checked.append((shape.m, shape.n))

    monkeypatch.setattr(ideal_mod, "_check_quad_budget", check_first)
    monkeypatch.setattr(tables_mod, "MAX_QUADS", 60)
    with pytest.raises(BudgetError, match="^100 candidate moves on 5x5 exceed budget 60$"):
        build_generators(Subset.full(5, 5))
    assert table.cache_info().currsize == 0
    shapes = [(1, 1), (1, 6), (6, 1), (2, 2), (3, 5), (4, 5), (5, 3)]
    for m, n in shapes:
        build_generators(Subset.full(m, n))
    assert checked == shapes and table.cache_info().currsize == len(shapes)
    monkeypatch.setattr(ideal_mod, "_check_quad_budget", real_check)
    for m, n in shapes:
        blocks = table(m, n)
        assert len(blocks) == m * (m - 1) // 2, (m, n)
        assert all(len(b) == n * (n - 1) // 2 for b in blocks), (m, n)
        assert [q.as_tuple for block in blocks for q in block] == [
            (i, j, k, ell)
            for i in range(1, m + 1)
            for j in range(i + 1, m + 1)
            for k in range(1, n + 1)
            for ell in range(k + 1, n + 1)
        ], (m, n)
    assert table.cache_info().currsize == len(shapes)

    # Once filled, a shape's generator sets reuse its moves.
    def no_building(*_args):
        raise AssertionError("built a move the table holds")

    monkeypatch.setattr(ideal_mod, "QuadGen", no_building)
    rng = random.Random(2203)
    held = {id(q) for block in table(4, 5) for q in block}
    for _ in range(20):
        s = random_subset(rng, 4, 5)
        gset = build_generators(s)
        assert {id(q) for q in gset} <= held
        assert list(gset.quads) == _kept_by_counting(s)


def test_generators_full_2x2():
    g = build_generators(Subset.full(2, 2))
    assert g.index_set == ((1, 2, 1, 2),)


def test_generators_single_cell_2x2_empty():
    assert build_generators(S(2, 2, (1, 1))).index_set == ()


def test_generators_three_cell_staircase_2x2_empty():
    assert build_generators(S(2, 2, (1, 1), (1, 2), (2, 1))).index_set == ()


def test_generators_diagonal_3x3_empty():
    assert build_generators(S(3, 3, (1, 1), (2, 2), (3, 3))).index_set == ()


def test_generators_full_table_has_all_quads():
    for m, n in [(2, 3), (3, 3), (4, 4)]:
        g = build_generators(Subset.full(m, n))
        assert len(g.index_set) == len(all_quads(TableShape(m, n)))


def test_generator_expansions_are_margin_balanced_and_squarefree():
    rng = random.Random(301)
    for _ in range(150):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        s = random_subset(rng, m, n)
        gset = build_generators(s)
        seen = set()
        for q in gset:
            key = (q.i, q.j, q.k, q.ell)
            assert key not in seen
            seen.add(key)
            f = q.expand(s.shape)
            assert margins(s, f.plus) == margins(s, f.minus)
            assert f.plus.is_squarefree and f.minus.is_squarefree


def test_generators_equivariant_under_permutation():
    rng = random.Random(302)
    for _ in range(60):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        s = random_subset(rng, m, n)
        p = random_perm_pair(rng, m, n)
        base = set(build_generators(s).index_set)
        moved = set(build_generators(s.permuted(p)).index_set)
        relabeled = set()
        for i, j, k, ell in base:
            a, b = sorted((p.row_perm[i - 1], p.row_perm[j - 1]))
            c, d = sorted((p.col_perm[k - 1], p.col_perm[ell - 1]))
            relabeled.add((a, b, c, d))
        assert relabeled == moved


# ------------------------------------------------------------ exclusion rule

def test_minor_excluded_known_cases():
    assert minor_excluded(S(2, 2, (1, 1)), QuadGen(1, 2, 1, 2))
    assert not minor_excluded(Subset.full(2, 2), QuadGen(1, 2, 1, 2))


def test_minor_excluded_refuses_a_move_outside_the_shape():
    # Refused, not answered: a cell outside the shape is not a cell outside S.
    for s in (S(2, 2, (1, 1)), Subset.full(2, 2)):
        for q, text in ((QuadGen(1, 3, 1, 2), "(1, 3, 1, 2)"), (QuadGen(1, 2, 2, 3), "(1, 2, 2, 3)")):
            with pytest.raises(ValueError) as err:
                minor_excluded(s, q)
            assert str(err.value) == f"move {text} does not fit in 2x2"


def test_minor_excluded_matches_generator_absence_on_staircases_3x3():
    quads = all_quads(TableShape(3, 3))
    for s in staircases(3, 3):
        gens = set(build_generators(s).index_set)
        for q in quads:
            member = (q.i, q.j, q.k, q.ell) in gens
            assert minor_excluded(s, q) != member


def test_minor_excluded_matches_generator_absence_random_5x5():
    rng = random.Random(303)
    quads = all_quads(TableShape(5, 5))
    for _ in range(200):
        s = random_staircase(rng, 5, 5)
        assert is_triangular_in_place(s)
        gens = set(build_generators(s).index_set)
        for q in quads:
            member = (q.i, q.j, q.k, q.ell) in gens
            assert minor_excluded(s, q) != member


# ---------------------------------------------------------- quad_membership

def test_membership_known_cases():
    assert quad_membership(Subset.full(2, 2), QuadGen(1, 2, 1, 2))
    assert not quad_membership(S(2, 2, (1, 1)), QuadGen(1, 2, 1, 2))
    blk = block_pattern(TableShape(3, 3), 1, 1)
    assert not quad_membership(blk, QuadGen(1, 2, 1, 2))


def test_membership_agrees_with_generator_listing():
    rng = random.Random(304)
    for _ in range(100):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        s = random_subset(rng, m, n)
        gens = set(build_generators(s).index_set)
        for q in all_quads(s.shape):
            assert quad_membership(s, q) == ((q.i, q.j, q.k, q.ell) in gens)


def test_membership_on_block_patterns_disallows_straddlers():
    for m, n in [(3, 3), (4, 4)]:
        sh = TableShape(m, n)
        for r in range(m + 1):
            for c in range(n + 1):
                s = block_pattern(sh, r, c)
                for q in all_quads(sh):
                    straddles = q.i <= r < q.j and q.k <= c < q.ell
                    assert quad_membership(s, q) == (not straddles)


# ------------------------------------------------------------- block_reduce

def test_block_reduce_known_cases():
    s = S(2, 2, (1, 1), (2, 2))
    w = classify(s).block_diagonal
    assert w is not None
    assert block_reduce(s, w).cells == ((1, 1),)

    full = Subset.full(3, 3)
    wf = classify(full).block_diagonal
    assert block_reduce(full, wf) == full

    empty = Subset.empty(2, 3)
    we = classify(empty).block_diagonal
    assert block_reduce(empty, we).size == 0


def test_block_reduce_output_is_triangular_in_place():
    rng = random.Random(305)
    from util import random_block

    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        s = random_block(rng, m, n).permuted(random_perm_pair(rng, m, n))
        w = classify(s).block_diagonal
        assert w is not None
        sp = block_reduce(s, w)
        assert is_triangular_in_place(sp)
        assert sp.cells == block_pattern(s.shape, w.r, w.c).cells[: w.r * w.c]


def test_block_reduce_rejects_bogus_witness():
    s = S(2, 2, (1, 2), (2, 1))
    bogus = BlockWitness(1, 1, PermPair.identity(s.shape))
    with pytest.raises(ValueError):
        block_reduce(s, bogus)


def test_block_reduction_preserves_generator_index_sets_3x3():
    sh = TableShape(3, 3)
    for r in range(4):
        for c in range(4):
            s = block_pattern(sh, r, c)
            w = classify(s).block_diagonal
            assert w is not None
            moved = s.permuted(w.perms)
            sp = block_reduce(s, w)
            assert build_generators(moved).index_set == build_generators(sp).index_set


# ----------------------------------------------- engine regression fixture

def test_uncanonicalized_staircase_generators_can_fail_buchberger():
    # A permuted staircase: the raw generator set is not a Groebner basis
    # under the fixed order until the pattern is moved to its canonical
    # corner.  Pinned so the engine keeps reporting it honestly.
    s = S(4, 4, (2, 2))
    order = MonomialOrder(s.shape)
    gens = build_generators(s).binomials(order)
    report = buchberger_check(gens, order)
    assert not report.passed
    assert str(report.failure.remainder) == "x11*x23*x32-x12*x21*x33"

    canon = s.permuted(classify(s).triangular)
    assert is_triangular_in_place(canon)
    report2 = buchberger_check(build_generators(canon).binomials(order), order)
    assert report2.passed


def test_six_cubic_spoly_forms_on_canonical_staircases():
    # For a staircase in place, every cubic S-polynomial of generator pairs
    # sharing no variable falls into one of six column-rank patterns.
    from subtoric.binomials import s_polynomial

    allowed = {
        ((2, 3, 1), (3, 1, 2)),
        ((3, 2, 1), (2, 1, 3)),
        ((3, 2, 1), (1, 3, 2)),
        ((3, 1, 2), (1, 2, 3)),
        ((2, 3, 1), (1, 2, 3)),
        ((1, 3, 2), (2, 1, 3)),
    }

    def pattern(f):
        # Ranks of the column indices used in each row, plus side first.
        if not (f.plus.is_squarefree and f.minus.is_squarefree):
            return None
        rows = sorted({i for i, _ in f.plus.support_cells} | {i for i, _ in f.minus.support_cells})
        cols = sorted({j for _, j in f.plus.support_cells} | {j for _, j in f.minus.support_cells})
        if len(rows) != 3 or len(cols) != 3:
            return None

        def ranks(mono):
            out = []
            for i in rows:
                hits = [jj for ii, jj in mono.support_cells if ii == i]
                if len(hits) != 1:
                    return None
                out.append(cols.index(hits[0]) + 1)
            return tuple(out)

        sigma, tau = ranks(f.plus), ranks(f.minus)
        if sigma is None or tau is None:
            return None
        return sigma, tau

    for m, n in [(3, 3), (3, 4), (4, 4)]:
        order = MonomialOrder(TableShape(m, n))
        for s in staircases(m, n):
            gens = build_generators(s).binomials(order)
            for a in range(len(gens)):
                for b in range(a + 1, len(gens)):
                    f = s_polynomial(gens[a], gens[b], order)
                    if f is None or f.plus.degree != 3:
                        continue
                    if not f.plus.coprime(f.minus):
                        continue
                    pat = pattern(f)
                    if pat is None:
                        continue
                    assert pat in allowed, (s.to_text(), pat)


# ------------------------------------------------- screened Groebner check

def screened_and_looped(s):
    """The screen's report and the pair loop's, on the same move keys (the
    antidiagonal leads every move under this order)."""
    order = MonomialOrder(s.shape)
    gens = move_keys(build_generators(s), order)
    return quadratic_gb_check(s, gens, order), buchberger_check_keys(gens, order)


def test_restrictions_pack_every_row_and_column_choice_in_order():
    from itertools import combinations

    rng = random.Random(2103)
    for m, n, r, c in ((1, 1, 1, 1), (2, 5, 2, 3), (5, 2, 3, 2), (4, 4, 3, 3), (5, 6, 3, 2)):
        s = random_subset(rng, m, n)
        expected = [
            (rows, cols, sum(
                s.mask[i][j] << a * c + b
                for a, i in enumerate(rows)
                for b, j in enumerate(cols)
            ))
            for rows in combinations(range(m), r)
            for cols in combinations(range(n), c)
        ]
        assert list(restrictions(s, r, c)) == expected


def test_screen_report_equals_the_pair_loop_on_a_seeded_sweep():
    # Every shape from 1x1 to 7x7, thin ones included; random subsets and
    # permuted staircases, so that many fail and name a pair.
    rng = random.Random(2101)
    failed = 0
    for m in range(1, 8):
        for n in range(1, 8):
            for _ in range(16):
                pick = rng.choice((random_subset, random_staircase, random_staircase))
                s = pick(rng, m, n)
                if pick is random_staircase:
                    s = s.permuted(random_perm_pair(rng, m, n))
                screened, looped = screened_and_looped(s)
                assert screened == looped, s
                failed += not looped.passed
    assert failed >= 300


def test_screen_report_equals_the_pair_loop_on_every_staircase_up_to_6x6():
    shapes = [(m, n) for m in range(1, 6) for n in range(1, 6)] + [(6, 6)]
    for m, n in shapes:
        for s in staircases(m, n):
            screened, looped = screened_and_looped(s)
            assert looped.passed and screened == looped, s


def test_screen_report_equals_the_pair_loop_on_permuted_staircases():
    # Moved out of their corner, staircases fail as OFFCORNER4 does, and
    # the screen hands the naming of the failure to the pair loop.
    screened, looped = screened_and_looped(S(4, 4, (2, 2)))
    assert screened == looped
    assert str(screened.failure.remainder) == "x11*x23*x32-x12*x21*x33"
    rng = random.Random(2102)
    outcomes = []
    for m, n in ((3, 4), (4, 3), (4, 4), (5, 5), (6, 5), (6, 6)):
        for _ in range(6):
            s = random_staircase(rng, m, n).permuted(random_perm_pair(rng, m, n))
            screened, looped = screened_and_looped(s)
            assert screened == looped, s
            outcomes.append(looped.passed)
    assert outcomes.count(False) >= 20 and outcomes.count(True) >= 2


def test_every_small_staircase_in_place_passes_the_pair_loop():
    # The paper's Groebner claim for this order, made finite: by the
    # locality argument in quadratic_gb_check, a staircase of any shape
    # passes when its restrictions to at most 3 rows and 3 columns, all
    # staircases in place on these shapes (or on 1xk and kx1, which keep
    # no move), pass.
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        order = MonomialOrder(TableShape(m, n))
        for s in staircases(m, n):
            assert buchberger_check(build_generators(s).binomials(order), order).passed, s


def test_verdict_cache_stays_bounded_and_agrees_with_the_pair_loop():
    rng = random.Random(2104)
    for m, n in ((1, 4), (2, 2), (2, 5), (5, 2), (3, 3), (4, 4), (5, 5)):
        for _ in range(10):
            screened_and_looped(random_subset(rng, m, n))
    cache = ideal_mod._LOCAL_VERDICTS
    per_shape = {}
    for r, c, bits in cache:
        assert 1 <= r <= 3 and 1 <= c <= 3 and 0 <= bits < 1 << r * c
        per_shape[r, c] = per_shape.get((r, c), 0) + 1
    assert per_shape and all(k <= 1 << r * c for (r, c), k in per_shape.items())
    # Each verdict is the pair loop's on the pattern its bits pack.
    for (r, c, bits), verdict in cache.items():
        small = S(r, c, *[(k // c + 1, k % c + 1) for k in range(r * c) if bits >> k & 1])
        order = MonomialOrder(small.shape)
        gens = build_generators(small).binomials(order)
        assert buchberger_check(gens, order).passed == verdict, (r, c, bits)
