"""Tests for subtoric.binomials: the order, orientation, division, Buchberger."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from subtoric.binomials import (
    Binomial,
    BuchbergerReport,
    MonomialOrder,
    buchberger_check,
    lex_compare,
    normal_form,
    orient,
    s_polynomial,
)
import subtoric.binomials as binomials_mod
import subtoric.tables as tables_mod
from subtoric.ideal import build_generators
from subtoric.tables import (
    MAX_S_PAIRS,
    BudgetError,
    CellTable,
    PermPair,
    Subset,
    TableShape,
    margins,
)
from util import (
    buchberger_by_scan,
    dense_key,
    normal_form_by_scan,
    random_staircase,
    random_subset,
    random_table,
)


def var(shape, i, j):
    return CellTable.variable(shape, i, j)


def minor(shape, i, j, k, ell):
    """The 2x2 minor binomial with rows i<j, cols k<ell, written with the
    antidiagonal product first."""
    anti = var(shape, i, ell) * var(shape, j, k)
    diag = var(shape, i, k) * var(shape, j, ell)
    return Binomial(anti, diag)


SH22 = TableShape(2, 2)
SH23 = TableShape(2, 3)
ORD22 = MonomialOrder(SH22)
ORD23 = MonomialOrder(SH23)


# ---------------------------------------------------------------- the order

def test_lex_bottom_row_dominates():
    assert lex_compare(var(SH22, 2, 1), var(SH22, 2, 2), ORD22) > 0
    assert lex_compare(var(SH22, 2, 2), var(SH22, 1, 1), ORD22) > 0
    assert lex_compare(var(SH22, 1, 1), var(SH22, 1, 2), ORD22) > 0


def test_lex_equal_monomials():
    a = var(SH22, 1, 2) * var(SH22, 2, 1)
    assert lex_compare(a, a, ORD22) == 0


def test_lex_higher_power_wins_at_first_difference():
    a = var(SH22, 1, 1) * var(SH22, 1, 1)
    b = var(SH22, 1, 1) * var(SH22, 1, 2)
    assert lex_compare(a, b, ORD22) > 0


def test_lex_is_a_total_order_on_random_triples():
    rng = random.Random(201)
    sh = TableShape(3, 3)
    order = MonomialOrder(sh)
    for _ in range(300):
        a = random_table(rng, 3, 3, rng.randint(0, 4))
        b = random_table(rng, 3, 3, rng.randint(0, 4))
        c = random_table(rng, 3, 3, rng.randint(0, 4))
        ab, ba = lex_compare(a, b, order), lex_compare(b, a, order)
        assert ab == -ba
        assert (ab == 0) == (a == b)
        if ab > 0 and lex_compare(b, c, order) > 0:
            assert lex_compare(a, c, order) > 0
        if ab > 0:
            assert lex_compare(a * c, b * c, order) > 0


def pooled_cells(rng, m, n, degree):
    """degree cells drawn from a few of the shape's, so exponents of 2
    and more are common."""
    pool = [(rng.randint(1, m), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
    return [rng.choice(pool) for _ in range(degree)]


def table_of(m, n, cells):
    rows = [[0] * n for _ in range(m)]
    for i, j in cells:
        rows[i - 1][j - 1] += 1
    return CellTable.from_rows(rows)


def test_sparse_keys_compare_as_dense_exponent_tuples():
    rng = random.Random(1313)
    unequal_degrees = high_exponents = 0
    for m, n in ((1, 1), (2, 3), (7, 7)):
        order = MonomialOrder(TableShape(m, n))
        for _ in range(400):
            cells_a = pooled_cells(rng, m, n, rng.randint(0, 6))
            cells_b = pooled_cells(rng, m, n, rng.randint(0, 6))
            a, b = table_of(m, n, cells_a), table_of(m, n, cells_b)
            ka, kb = order.key(a), order.key(b)
            assert (ka, kb) == (order.cells_key(cells_a), order.cells_key(cells_b))
            da, db = dense_key(a), dense_key(b)
            assert (ka > kb) - (ka < kb) == (da > db) - (da < db), (a, b)
            assert (ka == kb) == (a == b)
            unequal_degrees += a.degree != b.degree
            high_exponents += max(da) >= 2
    assert unequal_degrees > 500 and high_exponents > 500


def test_lex_rejects_foreign_shapes():
    with pytest.raises(ValueError):
        lex_compare(var(SH22, 1, 1), var(SH23, 1, 1), ORD22)


def test_order_takes_no_kind():
    with pytest.raises(TypeError):
        MonomialOrder(SH22, "degrevlex")


# ---------------------------------------------------------------- Binomial

def test_binomial_rejects_equal_sides():
    a = var(SH22, 1, 1)
    with pytest.raises(ValueError):
        Binomial(a, a)


def test_orient_keeps_antidiagonal_minor_in_front():
    g = minor(SH22, 1, 2, 1, 2)
    assert g.is_oriented(ORD22)
    assert orient(g, ORD22) == g
    assert orient(g.swapped(), ORD22) == g


def test_binomial_permutes_componentwise():
    g = minor(SH22, 1, 2, 1, 2)
    p = PermPair((2, 1), (1, 2))
    moved = g.permuted(p)
    assert moved.plus == g.plus.permuted(p)
    assert moved.minus == g.minus.permuted(p)


def test_binomial_string_form():
    g = minor(SH22, 1, 2, 1, 2)
    assert str(g) == "x12*x21-x11*x22"


# ---------------------------------------------------------------- S-polynomial

def test_s_polynomial_matches_hand_expansion():
    g1 = minor(SH23, 1, 2, 1, 2)
    g2 = minor(SH23, 1, 2, 1, 3)
    f = s_polynomial(g1, g2, ORD23)
    assert f is not None
    # Raw expansion is x11*x12*x23 - x11*x13*x22; orientation puts the
    # x22 monomial in front because x22 outranks x23.
    assert f.plus == var(SH23, 1, 1) * var(SH23, 1, 3) * var(SH23, 2, 2)
    assert f.minus == var(SH23, 1, 1) * var(SH23, 1, 2) * var(SH23, 2, 3)
    assert f.is_oriented(ORD23)


def test_s_polynomial_of_equal_inputs_is_zero():
    g = minor(SH23, 1, 2, 2, 3)
    assert s_polynomial(g, g, ORD23) is None


def test_s_polynomial_requires_oriented_inputs():
    g = minor(SH23, 1, 2, 1, 2)
    with pytest.raises(ValueError):
        s_polynomial(g.swapped(), g, ORD23)


def test_s_polynomial_coprime_pair_reduces_by_the_pair_alone():
    sh = TableShape(4, 4)
    order = MonomialOrder(sh)
    g1 = minor(sh, 1, 2, 1, 2)
    g2 = minor(sh, 3, 4, 3, 4)
    assert g1.plus.coprime(g2.plus)
    f = s_polynomial(g1, g2, order)
    assert f is not None
    r, trace = normal_form(f, [g1, g2], order)
    assert r is None
    assert trace


def test_s_polynomial_preserves_margin_balance():
    rng = random.Random(202)
    sh = TableShape(3, 4)
    order = MonomialOrder(sh)
    s = Subset.from_cells(3, 4, [(1, 1), (1, 2), (2, 1), (3, 4)])
    quads = [
        (i, j, k, l)
        for i in range(1, 4)
        for j in range(i + 1, 4)
        for k in range(1, 5)
        for l in range(k + 1, 5)
    ]
    balanced = []
    for i, j, k, l in quads:
        g = orient(minor(sh, i, j, k, l), order)
        if margins(s, g.plus) == margins(s, g.minus):
            balanced.append(g)
    assert balanced
    for _ in range(100):
        g1, g2 = rng.choice(balanced), rng.choice(balanced)
        f = s_polynomial(g1, g2, order)
        if f is not None:
            assert margins(s, f.plus) == margins(s, f.minus)


# ---------------------------------------------------------------- division

def all_minors(shape):
    quads = [
        (i, j, k, l)
        for i in range(1, shape.m + 1)
        for j in range(i + 1, shape.m + 1)
        for k in range(1, shape.n + 1)
        for l in range(k + 1, shape.n + 1)
    ]
    order = MonomialOrder(shape)
    return [orient(minor(shape, i, j, k, l), order) for i, j, k, l in quads]


def test_normal_form_cancels_the_worked_cubic():
    g = all_minors(SH23)
    f = orient(
        Binomial(
            var(SH23, 1, 1) * var(SH23, 1, 2) * var(SH23, 2, 3),
            var(SH23, 1, 1) * var(SH23, 1, 3) * var(SH23, 2, 2),
        ),
        ORD23,
    )
    r, trace = normal_form(f, g, ORD23)
    assert r is None
    assert len(trace) == 1
    assert trace[0].after is None


def test_normal_form_of_zero_is_zero():
    r, trace = normal_form(None, all_minors(SH23), ORD23)
    assert r is None and trace == []


def test_normal_form_fixed_point_when_irreducible():
    sh = TableShape(3, 3)
    order = MonomialOrder(sh)
    f = orient(
        Binomial(
            var(sh, 1, 1) * var(sh, 2, 3) * var(sh, 3, 2),
            var(sh, 1, 2) * var(sh, 2, 1) * var(sh, 3, 3),
        ),
        order,
    )
    g1 = orient(minor(sh, 1, 2, 1, 3), order)
    g2 = orient(minor(sh, 1, 3, 2, 3), order)
    r, trace = normal_form(f, [g1, g2], order)
    assert r == f
    assert trace == []


def test_normal_form_requires_oriented_input():
    g = all_minors(SH23)
    f = minor(SH23, 1, 2, 1, 2).swapped()
    with pytest.raises(ValueError):
        normal_form(f, g, ORD23)


def test_normal_form_trace_leading_terms_strictly_decrease():
    rng = random.Random(203)
    sh = TableShape(3, 3)
    order = MonomialOrder(sh)
    for _ in range(200):
        gens = [
            orient(minor(sh, i, j, k, l), order)
            for i, j, k, l in {
                (
                    rng.randint(1, 2),
                    rng.randint(2, 3),
                    rng.randint(1, 2),
                    rng.randint(2, 3),
                )
                for _ in range(rng.randint(1, 4))
            }
            if i < j and k < l
        ]
        if not gens:
            continue
        a = random_table(rng, 3, 3, rng.randint(1, 4))
        b = random_table(rng, 3, 3, rng.randint(1, 4))
        if a == b:
            continue
        f = orient(Binomial(a, b), order)
        r, trace = normal_form(f, gens, order)
        seen = f
        for step in trace:
            assert step.before == seen
            if step.after is None:
                assert step is trace[-1]
            else:
                assert lex_compare(step.after.plus, step.before.plus, order) < 0 or (
                    step.after.plus == step.before.plus
                    and lex_compare(step.after.minus, step.before.minus, order) < 0
                )
            seen = step.after
        assert r == seen


def test_reduction_steps_serialize():
    g = all_minors(SH23)
    f = orient(
        Binomial(
            var(SH23, 1, 1) * var(SH23, 1, 2) * var(SH23, 2, 3),
            var(SH23, 1, 1) * var(SH23, 1, 3) * var(SH23, 2, 2),
        ),
        ORD23,
    )
    _, trace = normal_form(f, g, ORD23)
    d = trace[0].to_json_dict()
    assert set(d) == {"generator_index", "before", "after"}
    assert d["after"] is None
    assert isinstance(d["before"], str)


# ---------------------------------------------------------------- Buchberger

def test_buchberger_passes_on_3x3_minors():
    sh = TableShape(3, 3)
    g = all_minors(sh)
    assert len(g) == 9
    report = buchberger_check(g, MonomialOrder(sh))
    assert report.passed
    assert report.failure is None
    assert report.checked_pairs + report.skipped_coprime == 36
    assert report.skipped_coprime > 0


def test_buchberger_keys_each_binomial_side_once(monkeypatch):
    sh = TableShape(3, 3)
    g = all_minors(sh)
    order = MonomialOrder(sh)
    calls = []
    original = MonomialOrder.key

    def counting(self, t):
        calls.append(t)
        return original(self, t)

    monkeypatch.setattr(MonomialOrder, "key", counting)
    assert buchberger_check(g, order).passed
    assert len(calls) == 2 * len(g)


def test_buchberger_single_generator_passes_trivially():
    report = buchberger_check([minor(SH22, 1, 2, 1, 2)], ORD22)
    assert report.passed
    assert report.checked_pairs == 0 and report.skipped_coprime == 0


def test_buchberger_reports_first_irreducible_remainder():
    # Two entangled quads whose S-polynomial nothing can reduce.
    sh = TableShape(4, 4)
    order = MonomialOrder(sh)
    g1 = orient(minor(sh, 1, 2, 1, 3), order)
    g2 = orient(minor(sh, 1, 3, 2, 3), order)
    report = buchberger_check([g1, g2], order)
    assert not report.passed
    f = report.failure
    assert f is not None
    assert (f.i, f.j) == (0, 1)
    assert str(f.remainder) == "x11*x23*x32-x12*x21*x33"
    assert report.checked_pairs == 1


def test_buchberger_json_round_shape():
    sh = TableShape(3, 3)
    report = buchberger_check(all_minors(sh), MonomialOrder(sh))
    d = report.to_json_dict()
    assert d["pass"] is True
    assert d["failure"] is None
    assert d["checked_pairs"] == report.checked_pairs
    assert d["skipped_coprime"] == report.skipped_coprime


# ---------------------------------------------------------------- scan oracle

def subset_gens(s):
    order = MonomialOrder(s.shape)
    return build_generators(s).binomials(order), order


def test_buchberger_matches_scan_on_every_small_subset():
    for m, n in ((2, 3), (3, 3)):
        cells = TableShape(m, n).cells()
        for mask in range(1 << len(cells)):
            s = Subset.from_cells(
                m, n, [c for k, c in enumerate(cells) if mask >> k & 1]
            )
            gens, order = subset_gens(s)
            assert buchberger_check(gens, order) == buchberger_by_scan(gens, order), s


def test_buchberger_matches_scan_on_sampled_subsets():
    rng = random.Random(204)
    outcomes = []
    for pick in (random_subset, random_staircase) * 4:
        m = n = rng.choice((4, 5))
        gens, order = subset_gens(pick(rng, m, n))
        report = buchberger_check(gens, order)
        assert report == buchberger_by_scan(gens, order)
        outcomes.append(report.passed)
    assert outcomes.count(False) >= 2 and outcomes.count(True) >= 2


def test_buchberger_matches_scan_on_7x7_staircase():
    lengths = (6, 5, 4, 3, 2, 1, 0)
    s = Subset.from_cells(
        7, 7, [(i + 1, j + 1) for i, w in enumerate(lengths) for j in range(w)]
    )
    gens, order = subset_gens(s)
    assert len(gens) == 245
    report = buchberger_check(gens, order)
    assert report.passed
    assert report == buchberger_by_scan(gens, order)


def test_s_pair_ceiling_is_inclusive_and_refuses_before_any_reduction(monkeypatch):
    assert MAX_S_PAIRS == 1_000_000
    gens, order = subset_gens(Subset.empty(4, 4))
    report = buchberger_check(gens, order)
    pairs = report.checked_pairs
    assert report.passed and pairs + report.skipped_coprime == 36 * 35 // 2
    monkeypatch.setattr(tables_mod, "MAX_S_PAIRS", pairs)
    assert buchberger_check(gens, order) == report

    def no_reduction(*_args):
        raise AssertionError("reduced an S-pair past the ceiling")

    monkeypatch.setattr(tables_mod, "MAX_S_PAIRS", pairs - 1)
    monkeypatch.setattr(binomials_mod._Divider, "reduce", no_reduction)
    with pytest.raises(
        BudgetError, match=f"^{pairs} S-pairs on 4x4 exceed budget {pairs - 1}$"
    ):
        buchberger_check(gens, order)


def test_s_pair_count_equals_a_count_of_pairs_that_share_a_cell():
    shape = TableShape(3, 3)
    pool = range(-8, 1)
    rng = random.Random(2204)
    for trial in range(400):
        # Every fourth trial draws 2-cell supports only, repeats or not.
        sizes = (2, 2) if trial % 4 == 0 else (1, 4)
        supports = [
            tuple(sorted(rng.sample(pool, rng.randint(*sizes)), reverse=True))
            for _ in range(rng.randint(0, 12))
        ]
        if supports and trial % 2:
            supports += rng.choices(supports, k=rng.randint(1, 3))
            rng.shuffle(supports)
        brute = sum(1 for a, b in combinations(supports, 2) if set(a) & set(b))
        assert binomials_mod._s_pair_count(supports, shape) == brute, supports


def test_normal_form_matches_scan_on_random_cases():
    rng = random.Random(203)
    sh = TableShape(3, 3)
    order = MonomialOrder(sh)
    compared = 0
    for _ in range(200):
        gens = [
            orient(minor(sh, i, j, k, l), order)
            for i, j, k, l in {
                (
                    rng.randint(1, 2),
                    rng.randint(2, 3),
                    rng.randint(1, 2),
                    rng.randint(2, 3),
                )
                for _ in range(rng.randint(1, 4))
            }
            if i < j and k < l
        ]
        if not gens:
            continue
        a = random_table(rng, 3, 3, rng.randint(1, 4))
        b = random_table(rng, 3, 3, rng.randint(1, 4))
        if a == b:
            continue
        f = orient(Binomial(a, b), order)
        # ReductionStep equality compares generator_index, before and after.
        assert normal_form(f, gens, order) == normal_form_by_scan(f, gens, order)
        compared += 1
    assert compared > 100


def random_oriented(rng, order, lead, avoid=None):
    """lead minus a random monomial of its degree below it, other than
    avoid; None when none turns up."""
    m, n = order.shape.m, order.shape.n
    for _ in range(50):
        trail = table_of(m, n, pooled_cells(rng, m, n, lead.degree))
        if order.key(trail) < order.key(lead) and trail != avoid:
            return Binomial(lead, trail)
    return None


def test_divider_matches_scan_on_arbitrary_binomials():
    # Leading terms of degree 1 to 3, squares, repeats, and targets of
    # degree 6 or 7, not only the squarefree quadratic leads of moves.
    rng = random.Random(1314)
    order = MonomialOrder(TableShape(3, 3))
    seen = dict.fromkeys(("deg1", "deg3", "square", "repeat", "multi_fail"), 0)
    def lead(degree):
        return table_of(3, 3, pooled_cells(rng, 3, 3, degree))

    for _ in range(150):
        gens = [random_oriented(rng, order, lead(rng.choice((1, 2, 2, 3)))) for _ in range(6)]
        gens = [g for g in gens if g is not None][: rng.randint(1, 6)]
        g = rng.choice(gens)
        again = random_oriented(rng, order, g.plus, avoid=g.minus)
        if again is not None and rng.random() < 0.4:
            gens.insert(rng.randint(0, len(gens)), again)
            seen["repeat"] += 1
        leads = [g.plus for g in gens]
        seen["deg1"] += any(t.degree == 1 for t in leads)
        seen["deg3"] += any(t.degree == 3 for t in leads)
        seen["square"] += any(e >= 2 for t in leads for e in t.flat)
        failing = sum(
            normal_form_by_scan(s_polynomial(gi, gj, order), gens, order)[0] is not None
            for k, gi in enumerate(gens)
            for gj in gens[k + 1 :]
            if not gi.plus.coprime(gj.plus)
        )
        seen["multi_fail"] += failing >= 2
        report = buchberger_check(gens, order)
        assert report == buchberger_by_scan(gens, order), gens
        assert report.passed == (failing == 0)
        f = random_oriented(rng, order, lead(rng.randint(6, 7)))
        if f is not None:
            assert normal_form(f, gens, order) == normal_form_by_scan(f, gens, order)
    assert min(seen.values()) >= 30, seen


def test_divisor_check_reads_exponents_beyond_the_support():
    # The leading term x21^2 has its support inside that of x12*x21*x22
    # but does not divide it; the minor's x12*x21 does.
    x11, x12, x21, x22 = (var(SH22, i, j) for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)))
    gens = [Binomial(x21 * x21, x22 * x22), minor(SH22, 1, 2, 1, 2)]
    assert all(g.is_oriented(ORD22) for g in gens)
    cases = {
        1: Binomial(x12 * x21 * x22, x11 * x22 * x22),
        0: Binomial(x12 * x21 * x21, x11 * x21 * x22),
    }
    for first, f in cases.items():
        assert f.is_oriented(ORD22)
        r, trace = normal_form(f, gens, ORD22)
        assert trace[0].generator_index == first
        assert (r, trace) == normal_form_by_scan(f, gens, ORD22)
    assert buchberger_check(gens, ORD22) == buchberger_by_scan(gens, ORD22)


def test_first_divisor_is_lowest_index_across_index_lists():
    # Both leading terms divide the target, one holding the bottom-row
    # x31 and one not; list order decides, not the cells' precedence.
    sh = TableShape(3, 3)
    order = MonomialOrder(sh)
    g12 = minor(sh, 1, 2, 1, 2)  # x12*x21 - x11*x22
    g23 = minor(sh, 2, 3, 1, 2)  # x22*x31 - x21*x32
    x11 = var(sh, 1, 1)
    f = Binomial(g12.plus * g23.plus, x11 * x11 * x11 * x11)
    assert f.is_oriented(order)
    for gens in ([g12, g23], [g23, g12]):
        r, trace = normal_form(f, gens, order)
        assert trace[0].generator_index == 0
        assert (r, trace) == normal_form_by_scan(f, gens, order)


def test_normal_form_requires_oriented_generators():
    f = orient(minor(SH23, 1, 2, 1, 2), ORD23)
    with pytest.raises(ValueError):
        normal_form(f, [minor(SH23, 1, 2, 2, 3).swapped()], ORD23)


def test_buchberger_check_requires_oriented_generators():
    g = minor(SH23, 1, 2, 2, 3)
    with pytest.raises(
        ValueError, match=r"^buchberger_check requires oriented input, got x12\*x23-"
    ):
        buchberger_check([orient(minor(SH23, 1, 2, 1, 2), ORD23), g.swapped()], ORD23)
    f = orient(minor(SH23, 1, 2, 1, 2), ORD23)
    with pytest.raises(ValueError, match=r"^normal_form requires oriented input, got "):
        normal_form(f, [g.swapped()], ORD23)
