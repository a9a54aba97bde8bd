"""Tests for subtoric.fibers: enumeration, connectivity, census, walks."""

from __future__ import annotations

import hashlib
import math
import random
import re
from itertools import combinations

import pytest

from subtoric.binomials import MonomialOrder, buchberger_check, normal_form, orient, Binomial
import subtoric.tables as tables_mod
from subtoric.fibers import (
    Fiber,
    apply_move,
    enumerate_fiber,
    fiber_components,
    fibers_of_degree,
    generation_check,
    initial_ideal_census,
    random_walk,
    table_from_csv,
    table_to_csv,
    walk_tv,
    walk_vs_exact,
    _independent_set_counts,
    _flat,
    _margin_classes,
    _margin_values,
    _sparse,
)
from subtoric.ideal import GeneratorSet, QuadGen, all_quads, block_reduce, build_generators
from subtoric.tables import (
    BudgetError,
    CellTable,
    Margins,
    ShapeMismatchError,
    Subset,
    TableShape,
    block_pattern,
    classify,
    margins,
)
from subtoric.verify import _same_fibers
from util import (
    census_by_scan,
    fiber_components_by_apply,
    generation_check_by_listing,
    partition_of_degree,
    random_perm_pair,
    random_staircase,
    random_subset,
    random_table,
    random_walk_by_apply,
)


def S(m, n, *cells):
    return Subset.from_cells(m, n, cells)


def key(rows, cols, s_sum):
    return Margins(tuple(rows), tuple(cols), s_sum)


DIAG3 = S(3, 3, (1, 1), (2, 2), (3, 3))


# ----------------------------------------------------------- enumeration

def test_enumerate_two_table_fiber():
    f = enumerate_fiber(Subset.full(2, 2), key((1, 1), (1, 1), 2))
    assert f.size == 2
    flats = [t.flat for t in f.tables]
    assert flats == [(0, 1, 1, 0), (1, 0, 0, 1)]


def test_enumerate_split_by_subtable_sum():
    f = enumerate_fiber(S(2, 2, (1, 1)), key((1, 1), (1, 1), 1))
    assert [t.flat for t in f.tables] == [(1, 0, 0, 1)]


def test_enumerate_degree_zero():
    f = enumerate_fiber(DIAG3, key((0, 0, 0), (0, 0, 0), 0))
    assert f.size == 1
    assert f.tables[0].degree == 0


def test_enumerate_matches_filter_oracle():
    rng = random.Random(401)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        s = random_subset(rng, m, n)
        probe = random_table(rng, m, n, rng.randint(0, 4))
        k = margins(s, probe)
        fib = enumerate_fiber(s, k)
        # Independent route: filter every table of that degree.
        expected = sorted(
            t.flat for t in _all_tables(m, n, k.degree) if margins(s, t) == k
        )
        assert [t.flat for t in fib.tables] == expected
        assert probe.flat in expected


def _all_tables(m, n, d):
    shape = TableShape(m, n)
    out = []

    def rec(cells, left):
        if len(cells) == m * n:
            if left == 0:
                out.append(CellTable(shape, tuple(cells)))
            return
        for e in range(left + 1):
            rec(cells + [e], left - e)

    rec([], d)
    return out


def test_enumerate_rejects_oversized_degree(monkeypatch):
    monkeypatch.setattr(tables_mod, "MAX_DEGREE", 6)
    with pytest.raises(BudgetError):
        enumerate_fiber(Subset.full(2, 2), key((5, 5), (5, 5), 10))


def test_fiber_size_budget_is_hard(monkeypatch):
    monkeypatch.setattr(tables_mod, "MAX_FIBER_SIZE", 3)
    with pytest.raises(BudgetError):
        enumerate_fiber(Subset.full(3, 3), key((2, 2, 2), (2, 2, 2), 6))


def test_fibers_of_degree_partition_everything():
    for d in range(5):
        fibs = fibers_of_degree(DIAG3, d)
        seen = set()
        for f in fibs:
            assert f.size >= 1
            for t in f.tables:
                assert margins(DIAG3, t) == f.key
                assert t.flat not in seen
                seen.add(t.flat)
        assert len(seen) == math.comb(d + 8, 8)
        keys = [f.key.sort_key() for f in fibs]
        assert keys == sorted(keys)


def test_margin_classes_list_every_table_once_in_order():
    for m, n, d in [(1, 1, 4), (1, 3, 2), (2, 2, 3), (2, 3, 2), (3, 1, 3)]:
        sums = {
            t.flat: (tuple(map(sum, t.entries)), tuple(map(sum, zip(*t.entries))))
            for t in _all_tables(m, n, d)
        }
        classes = _margin_classes(m, n, d)
        keys = [(rows, cols) for rows, cols, _ in classes]
        assert keys == sorted(set(keys))
        got = []
        for rows, cols, listed in classes:
            flats = [_flat(t, m * n) for t in listed]
            assert flats == sorted(flats)
            assert list(listed) == [_sparse(f) for f in flats]
            assert all(sums[f] == (rows, cols) for f in flats)
            got += flats
        assert sorted(got) == sorted(sums)


def test_enumeration_is_not_limited_by_recursion_depth():
    # 1200 cells is deeper than Python's default recursion limit.
    s = Subset.full(1, 1200)
    assert enumerate_fiber(s, key((0,), (0,) * 1200, 0)).size == 1
    assert _margin_classes(1, 1200, 0) == (((0,), (0,) * 1200, ((),)),)
    assert _flat((), 1200) == (0,) * 1200


def test_listing_builds_no_cell_table(monkeypatch):
    import subtoric.fibers as fibers_mod

    built = []
    original = CellTable.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    s = Subset.full(3, 3)
    gens, diag_gens = build_generators(s), build_generators(DIAG3)
    fibers_mod._margin_classes.cache_clear()
    monkeypatch.setattr(CellTable, "__post_init__", counted)
    for d in range(5):
        fibers_of_degree(s, d)
    assert generation_check(s, gens, 4).passed
    assert not generation_check(DIAG3, diag_gens, 4).passed
    assert built == []


# sha256 over (key, flats) of every fibers_of_degree fiber and over each
# generation_check result (passed, witness key, witness flats), on seeded
# random 2x2-4x4 subsets through degree 3 and the full 3x3 through degree
# 4, as the listing caches built from CellTables returned them.
PARTITION_DIGEST = "eeccd20dc8ebacb5419064a59e5ab6c1fee97ebd803ca666da48fe40abc9c1ac"


def test_fibers_and_hunts_golden():
    rng = random.Random(1901)
    sweep = [(Subset.full(3, 3), 4)]
    sweep += [
        (random_subset(rng, rng.randint(2, 4), rng.randint(2, 4), rng.random()), 3)
        for _ in range(60)
    ]
    digest = hashlib.sha256()
    for s, top in sweep:
        for d in range(top + 1):
            for f in fibers_of_degree(s, d):
                digest.update(repr((f.key, f.flats)).encode())
        res = generation_check(s, build_generators(s), top)
        w = res.witness
        digest.update(
            repr((res.passed, w and w.key, w and w.flats)).encode()
        )
    assert digest.hexdigest() == PARTITION_DIGEST


def test_fibers_of_degree_refuses_a_negative_degree():
    with pytest.raises(ValueError) as err:
        fibers_of_degree(Subset.full(2, 2), -1)
    assert str(err.value) == "degree must be nonnegative, got -1"


def test_fibers_of_degree_budget(monkeypatch):
    monkeypatch.setattr(tables_mod, "MAX_TABLES_PER_DEGREE", 100)
    with pytest.raises(BudgetError):
        fibers_of_degree(Subset.full(3, 3), 4)


# ----------------------------------------------------------------- moves

def test_apply_move_signs_and_negativity():
    t = CellTable.from_rows([[1, 0], [0, 1]])
    q = QuadGen(1, 2, 1, 2)
    fwd = apply_move(t, q, +1)
    assert fwd is None  # would need mass on the antidiagonal
    back = apply_move(t, q, -1)
    assert back is not None
    assert back.flat == (0, 1, 1, 0)
    assert apply_move(back, q, +1).flat == t.flat


def test_apply_move_refuses_a_move_outside_the_shape():
    # Refused with the ValueError of _signed_steps and the census, not an
    # IndexError from the entry rows.
    t = CellTable.from_rows([[1, 0], [0, 1]])
    for q, text in ((QuadGen(1, 3, 1, 2), "(1, 3, 1, 2)"), (QuadGen(1, 2, 1, 3), "(1, 2, 1, 3)")):
        for sign in (+1, -1):
            with pytest.raises(ValueError) as err:
                apply_move(t, q, sign)
            assert str(err.value) == f"move {text} does not fit in 2x2"


def test_in_generator_moves_preserve_margins():
    rng = random.Random(402)
    for _ in range(60):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        s = random_subset(rng, m, n)
        gens = build_generators(s)
        if not len(gens):
            continue
        t = random_table(rng, m, n, rng.randint(2, 5))
        q = rng.choice(list(gens))
        for sign in (+1, -1):
            moved = apply_move(t, q, sign)
            if moved is not None:
                assert margins(s, moved) == margins(s, t)


def test_two_table_fiber_connected_by_its_minor():
    f = enumerate_fiber(Subset.full(2, 2), key((1, 1), (1, 1), 2))
    moves = (QuadGen(1, 2, 1, 2),)
    comps = fiber_components(f, moves)
    assert len(comps) == 1
    assert len(comps[0]) == 2


def test_empty_move_set_gives_singleton_components():
    f = enumerate_fiber(Subset.full(2, 2), key((1, 1), (1, 1), 2))
    comps = fiber_components(f, ())
    assert len(comps) == 2
    assert all(len(c) == 1 for c in comps)


def test_components_match_apply_oracle():
    rng = random.Random(407)
    disconnected = 0
    for m in (3, 3, 3, 3, 4, 4):
        s = random_subset(rng, m, m)
        moves = build_generators(s)
        for d in range(4):
            for f in fibers_of_degree(s, d):
                comps = fiber_components(f, moves)
                assert comps == fiber_components_by_apply(f, moves)
                disconnected += len(comps) > 1
    assert disconnected >= 2


def test_components_match_apply_oracle_on_sparse_tables():
    # Degree-4 fibers hold entries of 2 and more, the move lists repeat
    # moves, and moves kept only for another subset step out of the fiber.
    rng = random.Random(412)
    seen = {"entry >= 2": 0, "foreign": 0, "merged": 0, "split": 0}
    for m, n in ((2, 3), (3, 3), (3, 2), (3, 4), (4, 3)):
        for _ in range(2):
            s = random_subset(rng, m, n)
            kept = build_generators(s)
            foreign = [q for q in build_generators(random_subset(rng, m, n)) if q not in kept]
            seen["foreign"] += len(foreign)
            # The full kept list, then a thinned one, under which more
            # fibers fall apart.
            for thin in (1, 3):
                moves = list(kept)[::thin] + foreign + list(kept)[::2]
                rng.shuffle(moves)
                for d in (2, 3, 4):
                    fibers = [f for f in fibers_of_degree(s, d) if f.size > 1]
                    for f in rng.sample(fibers, min(len(fibers), 12)):
                        comps = fiber_components(f, moves)
                        assert comps == fiber_components_by_apply(f, moves), (s.to_text(), f.key)
                        seen["entry >= 2"] += max(max(t.flat) for t in f.tables) >= 2
                        seen["merged"] += len(comps) < f.size
                        seen["split"] += len(comps) > 1
    assert min(seen.values()) >= 5, seen


def test_walk_tv_is_the_same_float_on_every_python_version():
    # Python 3.12 compensates sum() over floats; walk_tv adds left to
    # right, so `walk --tv --json` prints the same digits on 3.10-3.13.
    s = Subset.full(4, 4)
    start = CellTable.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    moves = build_generators(s)
    tvs = [walk_vs_exact(s, start, moves, 4000, seed) for seed in (0, 1, 1401)]
    assert tvs == [0.20958122538330937, 0.16932835756578088, 0.17281455498194412]


def test_moves_must_fit_the_shape():
    # (1,2,1,3) needs a third column; a flat index would land in row 2.
    s = Subset.full(2, 2)
    start = CellTable.from_rows([[1, 0], [0, 1]])
    moves = (QuadGen(1, 2, 1, 3),)
    with pytest.raises(ValueError, match="does not fit"):
        random_walk(s, start, moves, 10, seed=1)
    f = enumerate_fiber(s, key((1, 1), (1, 1), 2))
    with pytest.raises(ValueError, match="does not fit"):
        fiber_components(f, moves)


def test_walk_rejects_a_move_off_the_fiber_before_walking():
    s = S(3, 3, (1, 1), (1, 2), (2, 1))
    kept = build_generators(s)
    bad = next(q for q in all_quads(s.shape) if q not in kept)
    moves = tuple(kept) + (bad,)
    start = CellTable.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    message = re.escape(f"move {bad.as_tuple} left the fiber")
    for steps in (0, 100):
        with pytest.raises(ValueError, match=message):
            random_walk(s, start, moves, steps, seed=0)


def test_components_sorted_largest_first():
    fibs = fibers_of_degree(Subset.full(3, 3), 3)
    moves = (QuadGen(1, 2, 1, 2),)
    for f in fibs:
        comps = fiber_components(f, moves)
        sizes = [len(c) for c in comps]
        assert sizes == sorted(sizes, reverse=True)
        assert sum(sizes) == f.size


# ------------------------------------------------------ generation check

def test_generation_check_passes_on_staircase():
    s = S(3, 3, (1, 1), (1, 2), (2, 1))
    res = generation_check(s, build_generators(s), 4)
    assert res.passed
    assert res.witness is None


def test_generation_check_diagonal_fails_with_frozen_witness():
    res = generation_check(DIAG3, build_generators(DIAG3), 4)
    assert not res.passed
    w = res.witness
    assert w is not None
    assert w.key == key((1, 1, 1), (1, 1, 1), 0)
    assert [t.flat for t in w.tables] == [
        (0, 0, 1, 1, 0, 0, 0, 1, 0),
        (0, 1, 0, 0, 0, 1, 1, 0, 0),
    ]


def test_generation_check_degree_one_vacuous():
    rng = random.Random(403)
    for _ in range(10):
        s = random_subset(rng, 3, 3)
        assert generation_check(s, build_generators(s), 1).passed


def test_generation_check_refuses_a_negative_degree_bound():
    # Refused like verify_subset and the census, not passed unchecked.
    s = Subset.full(2, 2)
    with pytest.raises(ValueError) as err:
        generation_check(s, build_generators(s), -1)
    assert str(err.value) == "degree bound must be nonnegative, got -1"


def test_generation_check_lays_out_the_moves_once(monkeypatch):
    import subtoric.fibers as fibers_mod

    calls = []
    original = fibers_mod._signed_steps

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fibers_mod, "_signed_steps", counted)
    for s, passed in ((Subset.full(3, 3), True), (DIAG3, False)):
        calls.clear()
        assert generation_check(s, build_generators(s), 4).passed == passed
        assert len(calls) == 1
    calls.clear()
    assert generation_check(DIAG3, build_generators(DIAG3), 1).passed
    assert calls == []


def test_generation_check_rejects_a_misfit_move_at_the_first_shared_fiber():
    # Degree-1 fibers are single tables, so the misfit only shows from
    # degree 2 on, where the first fiber with two tables lays out the moves.
    s = Subset.full(2, 2)
    gens = build_generators(Subset.full(3, 3))
    assert generation_check(s, gens, 1).passed
    with pytest.raises(ValueError, match="does not fit"):
        generation_check(s, gens, 2)


def test_generation_check_matches_listing_on_seeded_subsets():
    rng = random.Random(409)
    cases = []
    for (m, n), degrees in [((3, 3), (2, 3, 4)), ((4, 4), (2, 3, 4)), ((5, 5), (2, 3))]:
        for d in degrees:
            cases.append((random_subset(rng, m, n), d))
            stair = random_staircase(rng, m, n)
            cases.append((stair.permuted(random_perm_pair(rng, m, n)), d))
    # Each of these has two disconnected fibers in its first failing
    # (row sums, column sums) class, so the lower subset sum must win.
    for text in ("101\n110\n011", "010\n001\n100", "0010\n0110\n1011\n0101"):
        cases.append((Subset.from_text(text), 3))
    outcomes = []
    for s, d in cases:
        full = build_generators(s)
        # Thinned move sets too: then fibers of degree 2 and fibers of many
        # classes fall apart, so the first one in key order must win.
        for quads in (full.quads, full.quads[::2], full.quads[1::3], ()):
            gens = GeneratorSet(s, quads)
            res = generation_check(s, gens, d)
            assert res == generation_check_by_listing(s, gens, d), (s.to_text(), d)
            outcomes.append(res.passed)
    assert outcomes.count(True) >= 2 and outcomes.count(False) >= 2, outcomes


def test_generation_check_checks_the_degree_budget_like_listing(monkeypatch):
    s = Subset.full(3, 3)
    monkeypatch.setattr(tables_mod, "MAX_TABLES_PER_DEGREE", 100)
    messages = []
    for hunt in (generation_check, generation_check_by_listing):
        with pytest.raises(BudgetError) as err:
            hunt(s, build_generators(s), 4)
        messages.append(str(err.value))
    assert messages == ["165 degree-3 tables on 3x3 exceed budget 100"] * 2


def test_generation_check_builds_tables_only_for_the_witness(monkeypatch):
    import subtoric.fibers as fibers_mod

    calls = []
    original = CellTable.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    full = Subset.full(3, 3)
    # The shared per-shape listing is built once, on the first hunt over
    # 3x3; the counting starts after it, so it holds in any test order.
    for d in range(5):
        fibers_mod._margin_classes(3, 3, d)
    monkeypatch.setattr(CellTable, "__post_init__", counted)
    assert generation_check(full, build_generators(full), 4).passed
    res = generation_check(DIAG3, build_generators(DIAG3), 4)
    assert not res.passed and calls == []
    # The witness builds its tables only when they are read.
    tables = res.witness.tables
    assert len(calls) == len(tables) == res.witness.size == 2
    assert tuple(t.flat for t in tables) == res.witness.flats


def test_connected_fibers_mirror_reduction_to_zero():
    # Cross-check: inside a connected fiber, any two tables differ by a
    # binomial the certified basis reduces to zero.
    rng = random.Random(404)
    for s in [
        S(3, 3, (1, 1), (1, 2), (2, 1)),
        S(3, 3, (1, 1), (2, 1), (3, 1)),
        Subset.full(3, 3),
    ]:
        order = MonomialOrder(s.shape)
        gset = build_generators(s)
        gens = gset.binomials(order)
        assert buchberger_check(gens, order).passed
        for d in (2, 3, 4):
            for f in fibers_of_degree(s, d):
                if f.size < 2:
                    continue
                comps = fiber_components(f, gset)
                assert len(comps) == 1
                for _ in range(3):
                    a, b = rng.sample(f.tables, 2)
                    diff = orient(Binomial(a, b), order)
                    remainder, _ = normal_form(diff, gens, order)
                    assert remainder is None


# ----------------------------------------------------------------- census

def test_census_full_2x2_balances_with_frozen_counts():
    s = Subset.full(2, 2)
    order = MonomialOrder(s.shape)
    rows = initial_ideal_census(s, build_generators(s), order, 2)
    assert [(r.degree, r.standard_count, r.fiber_count) for r in rows] == [
        (0, 1, 1),
        (1, 4, 4),
        (2, 9, 9),
    ]
    assert all(r.balanced for r in rows)


def test_census_inequality_always_holds():
    rng = random.Random(405)
    for _ in range(25):
        m, n = rng.randint(2, 3), rng.randint(2, 3)
        s = random_subset(rng, m, n)
        order = MonomialOrder(s.shape)
        rows = initial_ideal_census(s, build_generators(s), order, 3)
        for r in rows:
            assert r.standard_count >= r.fiber_count


def test_census_balances_on_3x3_staircases():
    from util import staircases

    for s in staircases(3, 3):
        order = MonomialOrder(s.shape)
        rows = initial_ideal_census(s, build_generators(s), order, 4)
        assert all(r.balanced for r in rows), s.to_text()


def test_census_detects_non_basis():
    # The diagonal subset has no quadratic moves at all, so its standard
    # count strictly exceeds the fiber count as soon as fibers merge.
    order = MonomialOrder(TableShape(3, 3))
    rows = initial_ideal_census(DIAG3, build_generators(DIAG3), order, 3)
    assert any(r.standard_count > r.fiber_count for r in rows)


def _census_rows(s, max_degree=4, count=initial_ideal_census):
    order = MonomialOrder(s.shape)
    rows = count(s, build_generators(s), order, max_degree)
    return [(r.degree, r.standard_count, r.fiber_count) for r in rows]


def test_census_matches_scan_on_every_small_subset():
    for m, n in ((2, 2), (2, 3), (3, 2)):
        cells = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        for bits in range(1 << len(cells)):
            s = Subset.from_cells(
                m, n, [c for b, c in enumerate(cells) if bits >> b & 1]
            )
            assert _census_rows(s) == _census_rows(s, count=census_by_scan), (
                s.to_text()
            )


def test_census_matches_scan_on_sampled_subsets():
    rng = random.Random(406)
    sample = [DIAG3, S(4, 4, (1, 1), (2, 2), (3, 3), (4, 4))]
    sample += [random_subset(rng, 3, 3, rng.random()) for _ in range(12)]
    sample += [random_subset(rng, 4, 4, rng.random()) for _ in range(6)]
    unbalanced = 0
    for s in sample:
        rows = _census_rows(s)
        assert rows == _census_rows(s, count=census_by_scan), s.to_text()
        unbalanced += any(std != fib for _d, std, fib in rows)
    assert unbalanced >= 2


def test_census_frozen_rows_on_5x5_staircase():
    s = Subset.from_cells(5, 5, [(i, j) for i in range(1, 6) for j in range(1, 7 - i)])
    assert _census_rows(s) == [
        (0, 1, 1),
        (1, 25, 25),
        (2, 275, 275),
        (3, 1855, 1855),
        (4, 9010, 9010),
    ]


def _fiber_counts_by_listing(s, max_degree):
    """Distinct (row sums, column sums, subset sum) keys per degree, read
    off the listed tables."""
    rows = census_by_scan(s, build_generators(s), MonomialOrder(s.shape), max_degree)
    return [r.fiber_count for r in rows]


def test_margin_values_match_listing_at_every_packing_base():
    for m, n in ((2, 2), (2, 3), (3, 2)):
        for s in _all_subsets(m, n):
            expect = _fiber_counts_by_listing(s, 5)
            for size in range(6):
                got = [len(v) for v in _margin_values(s, size)]
                assert got == expect[: size + 1], (s.to_text(), size)


def test_margin_values_match_listing_on_lines_and_4x4_subsets():
    sample = []
    for m, n in ((1, 6), (6, 1)):
        sample += [(Subset.full(m, n), 6), (Subset.from_cells(m, n, []), 6)]
    rng = random.Random(1502)
    while len(sample) < 10:
        s = random_subset(rng, 4, 4, rng.random())
        if classify(s).triangular is None:
            sample.append((s, 4))
    for s, d in sample:
        got = [len(v) for v in _margin_values(s, d)]
        assert got == _fiber_counts_by_listing(s, d), s.to_text()


def test_margin_values_frozen_counts_past_the_listing_budget():
    def stair(n):
        return Subset.from_cells(
            n, n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 2 - i)]
        )

    assert [len(v) for v in _margin_values(stair(6), 5)] == [
        1, 36, 546, 4872, 30258, 144732
    ]
    assert [len(v) for v in _margin_values(stair(7), 4)] == [1, 49, 980, 11172, 86310]
    # One row: a fiber is a table, so degree d has C(d + 24, 24) of them.
    counts = [len(v) for v in _margin_values(Subset.full(1, 25), 6)]
    assert counts == [math.comb(d + 24, 24) for d in range(7)]
    assert counts[6] == 593_775


def test_independent_set_counts_match_brute_force():
    rng = random.Random(1503)
    for v in range(13):
        pairs = list(combinations(range(v), 2))
        graphs = [[], pairs]
        graphs += [[e for e in pairs if rng.random() < p] for p in (0.2, 0.5, 0.8)]
        for edges in graphs:
            adjacent = [0] * v
            for a, b in edges:
                adjacent[a] |= 1 << b
                adjacent[b] |= 1 << a
            edge_set = set(edges)
            expect = [
                sum(
                    not any(e in edge_set for e in combinations(sub, 2))
                    for sub in combinations(range(v), k)
                )
                for k in range(6)
            ]
            for size in range(6):
                assert _independent_set_counts(adjacent, size) == expect[: size + 1], (
                    v, edges, size
                )


def test_census_checks_every_degree_budget_before_counting(monkeypatch):
    import subtoric.fibers as fibers_mod

    def no_counting(*_args):
        raise AssertionError("counted before the budget check")

    monkeypatch.setattr(fibers_mod, "_independent_set_counts", no_counting)
    monkeypatch.setattr(fibers_mod, "_margin_values", no_counting)
    monkeypatch.setattr(tables_mod, "MAX_DEGREE", 20)
    s = Subset.full(1, 25)
    with pytest.raises(BudgetError) as err:
        initial_ideal_census(s, build_generators(s), MonomialOrder(s.shape), 20)
    assert str(err.value) == "593775 degree-6 tables on 1x25 exceed budget 200000"


def test_census_rejects_an_order_on_another_shape():
    for s in (Subset.full(2, 2), DIAG3):
        for shape in (TableShape(2, 3), TableShape(4, 4)):
            with pytest.raises(ShapeMismatchError):
                initial_ideal_census(
                    s, build_generators(s), MonomialOrder(shape), 2
                )


def test_census_rejects_a_move_that_does_not_fit():
    # (1,2,1,3) needs a third column and (1,3,1,2) a third row; read as
    # flat indices, their cells would land on other cells of the 2x2 grid.
    s = Subset.full(2, 2)
    order = MonomialOrder(s.shape)
    for q in (QuadGen(1, 2, 1, 3), QuadGen(1, 3, 1, 2)):
        with pytest.raises(ValueError, match=r"move \(.*\) does not fit in 2x2"):
            initial_ideal_census(s, (q,), order, 2)


def test_census_rejects_negative_degree():
    s = Subset.full(2, 2)
    with pytest.raises(ValueError):
        initial_ideal_census(s, build_generators(s), MonomialOrder(s.shape), -1)


# --------------------------------------------------- fiber partitions

def _listing_says_same(a, b, max_degree):
    return all(
        partition_of_degree(a, d) == partition_of_degree(b, d)
        for d in range(max_degree + 1)
    )


def _all_subsets(m, n):
    cells = TableShape(m, n).cells()
    return [
        Subset.from_cells(m, n, [c for b, c in enumerate(cells) if bits >> b & 1])
        for bits in range(1 << len(cells))
    ]


def test_same_fibers_matches_listing_on_every_small_pair():
    for m, n in ((2, 2), (2, 3), (3, 2)):
        subsets = _all_subsets(m, n)
        listed = {
            s: [partition_of_degree(s, d) for d in range(5)] for s in subsets
        }
        verdicts = []
        for x, a in enumerate(subsets):
            for b in subsets[x + 1 :]:
                verdicts.append(_same_fibers(a, b))
                assert verdicts[-1] == (listed[a] == listed[b]), (a.cells, b.cells)
        assert verdicts.count(True) >= 2 and verdicts.count(False) >= 2


def test_same_fibers_matches_listing_on_sampled_pairs():
    rng = random.Random(408)
    pairs = []
    for _ in range(24):
        m, n = 3, rng.choice((3, 4))
        a = random_subset(rng, m, n, rng.random())
        kind = rng.choice(("random", "complement", "row", "block"))
        if kind == "random":
            b = random_subset(rng, m, n, rng.random())
        elif kind == "complement":
            b = Subset.from_cells(m, n, [c for c in a.shape.cells() if c not in a])
        elif kind == "row":
            i = rng.randint(1, m)
            b = Subset.from_cells(m, n, a.cells + tuple((i, j) for j in range(1, n + 1)))
        else:
            r, c = rng.randint(0, m), rng.randint(0, n)
            a = block_pattern(a.shape, r, c).permuted(random_perm_pair(rng, m, n))
            b = block_pattern(a.shape, r, c)
        pairs.append((a, b))
    verdicts = [_same_fibers(a, b) for a, b in pairs]
    assert verdicts == [_listing_says_same(a, b, 4) for a, b in pairs]
    assert verdicts.count(True) >= 2 and verdicts.count(False) >= 2


def _contrasts(s):
    rows = s.mask
    return [
        top[k] - top[k + 1] - low[k] + low[k + 1]
        for top, low in zip(rows, rows[1:])
        for k in range(s.shape.n - 1)
    ]


def test_block_pattern_contrasts_are_twice_its_reductions():
    rng = random.Random(1998)
    seen = 0
    for m in range(4, 8):
        for n in range(4, 8):
            shape = TableShape(m, n)
            for r in range(m + 1):
                for c in range(n + 1):
                    s = block_pattern(shape, r, c).permuted(random_perm_pair(rng, m, n))
                    w = classify(s).block_diagonal
                    moved = s.permuted(w.perms)
                    reduced = block_reduce(s, w)
                    assert _contrasts(moved) == [2 * v for v in _contrasts(reduced)]
                    assert _same_fibers(moved, reduced)
                    seen += any(_contrasts(reduced))
    assert seen > 0


# ------------------------------------------------------------------ walks

def test_walk_zero_steps_visits_only_start():
    start = CellTable.from_rows([[1, 0], [0, 1]])
    moves = (QuadGen(1, 2, 1, 2),)
    tr = random_walk(Subset.full(2, 2), start, moves, 0, seed=7)
    assert tr.visit_counts == {start: 1}
    assert tr.final == start


def test_walk_two_state_chain_is_near_uniform():
    start = CellTable.from_rows([[1, 0], [0, 1]])
    other = CellTable.from_rows([[0, 1], [1, 0]])
    moves = (QuadGen(1, 2, 1, 2),)
    tr = random_walk(Subset.full(2, 2), start, moves, 10_000, seed=11)
    total = 10_001
    assert set(tr.visit_counts) == {start, other}
    for t, c in tr.visit_counts.items():
        assert abs(c / total - 0.5) < 0.05
    assert sum(tr.visit_counts.values()) == total


def test_walk_is_reproducible():
    start = CellTable.from_rows([[2, 0, 1], [0, 1, 0], [1, 0, 0]])
    s = S(3, 3, (1, 1), (1, 2), (2, 1))
    moves = tuple(build_generators(s))
    a = random_walk(s, start, moves, 500, seed=42)
    b = random_walk(s, start, moves, 500, seed=42)
    assert a == b
    c = random_walk(s, start, moves, 500, seed=43)
    assert c != a


def test_walk_stays_in_fiber():
    rng = random.Random(406)
    for _ in range(10):
        s = random_subset(rng, 3, 3)
        start = random_table(rng, 3, 3, 4)
        moves = tuple(build_generators(s))
        tr = random_walk(s, start, moves, 300, seed=rng.randint(0, 999))
        k = margins(s, start)
        for t in tr.visit_counts:
            assert margins(s, t) == k


def test_move_set_name_is_a_tuple_of_moves():
    s = S(3, 3, (1, 1), (1, 2), (2, 1))
    gset = build_generators(s)
    moves = tuple(gset)
    start = CellTable.from_rows([[2, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert random_walk(s, start, moves, 300, 9) == random_walk(s, start, gset, 300, 9)


def test_walk_with_no_moves_stays_put():
    start = CellTable.from_rows([[1, 0], [0, 1]])
    tr = random_walk(Subset.full(2, 2), start, (), 50, seed=1)
    assert tr.visit_counts == {start: 51}
    assert tr.accepted == 0


def test_walk_counts_accepted_proposals():
    # Two tables, one move: exactly one sign applies at each step.
    start = CellTable.from_rows([[1, 0], [0, 1]])
    moves = (QuadGen(1, 2, 1, 2),)
    tr = random_walk(Subset.full(2, 2), start, moves, 10_000, seed=11)
    assert abs(tr.accepted / 10_000 - 0.5) < 0.05
    assert "accepted" not in tr.to_json_dict()
    assert random_walk(Subset.full(2, 2), start, moves, 0, seed=11).accepted == 0


def test_walk_matches_apply_oracle():
    rng = random.Random(408)
    full4 = CellTable.from_rows(
        [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
    )
    cases = [(Subset.full(4, 4), full4)]
    for pick in (random_subset, random_staircase) * 8:
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        cases.append((pick(rng, m, n), random_table(rng, m, n, rng.randint(2, 6))))
    for s, start in cases:
        moves = build_generators(s)
        for seed in (0, 1, 2):
            tr = random_walk(s, start, moves, 400, seed)
            expected = random_walk_by_apply(s, start, moves, 400, seed)
            assert tr == expected
            assert list(tr.visit_counts) == list(expected.visit_counts)


def test_walk_draws_as_randrange_and_choice_at_every_pool_size():
    # Pool sizes 1-40 cover 1, 2, and every power of two up to 32 with
    # its neighbours, where the redraw rule of randrange changes.  The
    # first 40 moves of the full 6x6 grid pair row 1 with rows 2-4, so
    # the starts put their mass there.
    rng = random.Random(1414)
    s6 = Subset.full(6, 6)
    moves = tuple(build_generators(s6))
    zero_rows = ((0,) * 6,) * 2
    cases = []
    for size in range(1, 41):
        for seed in (0, 7, rng.randrange(2**31)):
            top = random_table(rng, 4, 6, rng.randint(16, 24))
            start = CellTable.from_rows(top.entries + zero_rows)
            cases.append((s6, start, moves[:size], 200, seed))
    full4 = CellTable.from_rows(
        [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
    )
    stair5 = CellTable.from_rows(
        [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [1, 0, 0, 0, 1]]
    )
    stair5_mask = Subset.from_text("11110\n11100\n11000\n10000\n00000\n")
    for s, start in ((Subset.full(4, 4), full4), (stair5_mask, stair5)):
        cases.append((s, start, tuple(build_generators(s)), 4000, 1401))
    moved = 0
    for s, start, pool, steps, seed in cases:
        tr = random_walk(s, start, pool, steps, seed)
        expected = random_walk_by_apply(s, start, pool, steps, seed)
        assert tr == expected, (len(pool), seed)
        assert list(tr.visit_counts) == list(expected.visit_counts)
        moved += tr.accepted > 0
    # A walk that never moves would match whatever it drew.
    assert moved >= 0.9 * len(cases)


def test_walk_step_ceiling_is_inclusive_and_checked_before_any_step(monkeypatch):
    assert tables_mod.MAX_WALK_STEPS == 10_000_000
    s = Subset.full(2, 2)
    start = CellTable.from_rows([[1, 0], [0, 1]])
    moves = build_generators(s)
    monkeypatch.setattr(tables_mod, "MAX_WALK_STEPS", 50)
    assert random_walk(s, start, moves, 50, seed=3).steps == 50
    with pytest.raises(BudgetError) as err:
        random_walk(s, start, moves, 51, seed=3)
    assert str(err.value) == "walk of 51 steps exceeds budget 50"


def test_walk_vs_exact_refuses_the_step_count_before_enumerating(monkeypatch):
    import subtoric.fibers as fibers_mod
    from subtoric.tables import MAX_WALK_STEPS

    def no_enumeration(*_args):
        raise AssertionError("fiber enumerated before the step count was checked")

    monkeypatch.setattr(fibers_mod, "enumerate_fiber", no_enumeration)
    s = Subset.full(6, 6)
    start = CellTable.from_rows([[int(i == j) for j in range(6)] for i in range(6)])
    moves = build_generators(s)
    with pytest.raises(BudgetError) as err:
        walk_vs_exact(s, start, moves, MAX_WALK_STEPS + 1, seed=0)
    assert str(err.value) == "walk of 10000001 steps exceeds budget 10000000"
    with pytest.raises(ValueError) as err:
        walk_vs_exact(s, start, moves, -1, seed=0)
    assert str(err.value) == "walk length must be nonnegative, got -1"


def test_walk_vs_exact_mixes_on_two_table_fiber():
    start = CellTable.from_rows([[1, 0], [0, 1]])
    moves = (QuadGen(1, 2, 1, 2),)
    tv = walk_vs_exact(Subset.full(2, 2), start, moves, 10_000, seed=3)
    assert 0 <= tv < 0.05


def test_walk_vs_exact_zero_steps_point_mass():
    start = CellTable.from_rows([[1, 0], [0, 1]])
    moves = (QuadGen(1, 2, 1, 2),)
    tv = walk_vs_exact(Subset.full(2, 2), start, moves, 0, seed=3)
    assert tv == pytest.approx(1 - 1 / 2)


def test_walk_tv_scores_the_given_trace():
    start = CellTable.from_rows([[1, 0], [0, 1]])
    s = Subset.full(2, 2)
    moves = (QuadGen(1, 2, 1, 2),)
    trace = random_walk(s, start, moves, 777, seed=4)
    fiber = enumerate_fiber(s, margins(s, start))
    assert walk_tv(fiber, trace) == walk_vs_exact(s, start, moves, 777, seed=4)


def test_walk_vs_exact_trapped_when_moves_missing():
    # Start in one component of the frozen disconnected fiber: the walk
    # can never leave, so the distance to uniform stays large.
    start = CellTable.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    tv = walk_vs_exact(DIAG3, start, (), 2_000, seed=5)
    assert tv >= 0.4


# -------------------------------------------------------------------- CSV

def test_table_csv_round_trip():
    t = CellTable.from_rows([[1, 0, 2], [0, 3, 0]])
    text = table_to_csv(t)
    assert text == "1,0,2\n0,3,0\n"
    assert table_from_csv(text) == t


def test_table_csv_rejects_bad_input():
    with pytest.raises(ValueError):
        table_from_csv("1,2\n3\n")
    with pytest.raises(ValueError):
        table_from_csv("1,-2\n3,4\n")
    with pytest.raises(ValueError):
        table_from_csv("a,b\n")
