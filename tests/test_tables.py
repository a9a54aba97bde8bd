"""Tests for subtoric.tables: margins, parsing, and pattern classification."""

from __future__ import annotations

import json
import random

import pytest

from subtoric.tables import (
    MAX_JSON_CELLS,
    BudgetError,
    CellTable,
    Margins,
    PermPair,
    ShapeMismatchError,
    Subset,
    TableShape,
    block_pattern,
    classify,
    classify_oracle,
    is_block_diagonal_in_place,
    is_triangular_in_place,
    margins,
)
from util import (
    classify_oracle_by_cells,
    is_block_diagonal_in_place_by_cells,
    neither_by_local_scan,
    random_block,
    random_perm_pair,
    random_staircase,
    random_subset,
)


def S(m, n, *cells):
    return Subset.from_cells(m, n, cells)


def mono(rows):
    return CellTable.from_rows(rows)


# ---------------------------------------------------------------- margins

def test_margins_single_offdiag_cell():
    img = margins(S(2, 2, (1, 1)), mono([[1, 0], [0, 1]]))
    assert img.row_sums == (1, 1)
    assert img.col_sums == (1, 1)
    assert img.in_sum == 1
    assert img.out_sum == 1


def test_margins_of_unit_monomial_is_zero():
    img = margins(S(2, 2, (1, 2)), CellTable.zero(TableShape(2, 2)))
    assert img.row_sums == (0, 0)
    assert img.col_sums == (0, 0)
    assert img.in_sum == 0 and img.out_sum == 0


def test_margins_full_subset_counts_everything():
    img = margins(Subset.full(2, 2), mono([[0, 1], [1, 0]]))
    assert img.row_sums == (1, 1)
    assert img.col_sums == (1, 1)
    assert img.in_sum == 2
    assert img.out_sum == 0


def test_margins_is_additive_under_monomial_product():
    rng = random.Random(101)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        s = random_subset(rng, m, n)
        a = mono([[rng.randint(0, 3) for _ in range(n)] for _ in range(m)])
        b = mono([[rng.randint(0, 3) for _ in range(n)] for _ in range(m)])
        lhs = margins(s, a * b)
        rhs = margins(s, a) + margins(s, b)
        assert lhs == rhs


def test_margins_internal_consistency():
    rng = random.Random(102)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        s = random_subset(rng, m, n)
        t = mono([[rng.randint(0, 2) for _ in range(n)] for _ in range(m)])
        img = margins(s, t)
        assert sum(img.row_sums) == sum(img.col_sums) == img.in_sum + img.out_sum
        assert img.degree == t.degree


def test_margins_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatchError):
        margins(S(2, 2, (1, 1)), mono([[1, 0, 0], [0, 0, 1]]))


def test_margins_sum_requires_equal_shape_vectors():
    a = Margins((1, 0), (1, 0), 1)
    b = Margins((0, 1, 0), (1, 0), 1)
    with pytest.raises(ShapeMismatchError):
        a + b


def test_margins_rejects_inconsistent_totals():
    with pytest.raises(ValueError):
        Margins((1, 0), (1, 1), 1)
    # The in/out split must fit the degree: out_sum is never negative.
    for in_sum in (-1, 3):
        with pytest.raises(ValueError):
            Margins((1, 1), (1, 1), in_sum)
    assert Margins((1, 1), (1, 1), 2).out_sum == 0
    assert Margins((1, 1), (1, 1), 0).out_sum == 2


def test_margins_json_round_trip():
    img = Margins((2, 1), (1, 1, 1), 2)
    assert img.out_sum == 1
    d = img.to_json_dict()
    assert d == {"rows": [2, 1], "cols": [1, 1, 1], "s_sum": 2}
    assert Margins.from_json_dict(d) == img


# ---------------------------------------------------------------- CellTable

def test_celltable_rejects_negative_entries():
    with pytest.raises(ValueError):
        mono([[1, -1], [0, 0]])


def test_celltable_stores_the_flat_tuple_and_checks_it():
    # Ragged rows that hold m*n entries in all: only a per-row check
    # refuses them.
    with pytest.raises(ValueError, match="entry dimensions do not match shape"):
        CellTable.from_rows([[1, 2], [3], [4, 5, 6]])
    with pytest.raises(ValueError, match="entry dimensions do not match shape"):
        CellTable(TableShape(2, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        CellTable(TableShape(2, 2), (1, 2, -3, 4))
    rows = [[1, 0, 2], [0, 3, 0]]
    t = CellTable.from_rows(rows)
    assert t == CellTable(TableShape(2, 3), (1, 0, 2, 0, 3, 0))
    assert not hasattr(t, "__dict__")
    assert t.entries == tuple(map(tuple, rows))
    # A cell outside the shape names no flat position, not a neighbour's.
    for i, j in [(1, 4), (0, 1), (3, 1)]:
        with pytest.raises(ValueError, match=rf"cell \({i},{j}\) outside 2x3"):
            CellTable.variable(TableShape(2, 3), i, j)
        with pytest.raises(ValueError, match=rf"cell \({i},{j}\) outside 2x3"):
            t.entry(i, j)


def test_celltable_product_and_divisibility():
    a = mono([[1, 0], [0, 1]])
    b = mono([[1, 1], [0, 0]])
    ab = a * b
    assert ab.entries == ((2, 1), (0, 1))
    assert ab.degree == 4
    assert a.divides(ab) and b.divides(ab)
    assert not ab.divides(a)
    assert ab // a == b
    assert ab // b == a


def test_celltable_lcm_gcd_coprime():
    a = mono([[2, 0], [1, 0]])
    b = mono([[1, 1], [0, 0]])
    assert a.lcm(b).entries == ((2, 1), (1, 0))
    assert a.gcd(b).entries == ((1, 0), (0, 0))
    assert not a.coprime(b)
    c = mono([[0, 0], [0, 3]])
    assert a.coprime(c)
    assert a.lcm(c) == a * c


def test_celltable_squarefree_flag():
    assert mono([[1, 1], [0, 1]]).is_squarefree
    assert not mono([[2, 0], [0, 0]]).is_squarefree


def test_celltable_variable_constructor():
    x = CellTable.variable(TableShape(2, 3), 1, 2)
    assert x.entries == ((0, 1, 0), (0, 0, 0))
    assert x.degree == 1
    prod = x * CellTable.variable(TableShape(2, 3), 2, 1)
    assert prod.entries == ((0, 1, 0), (1, 0, 0))


def test_celltable_quotient_requires_divisibility():
    a = mono([[1, 0], [0, 0]])
    b = mono([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        a // b


# ---------------------------------------------------------------- Subset I/O

def test_subset_text_round_trip():
    text = "# top row full\n110\n100\n\n000\n"
    s = Subset.from_text(text)
    assert s.shape == TableShape(3, 3)
    assert s.cells == ((1, 1), (1, 2), (2, 1))
    assert Subset.from_text(s.to_text()) == s


def test_subset_text_rejects_ragged_and_bad_chars():
    with pytest.raises(ValueError):
        Subset.from_text("10\n1\n")
    with pytest.raises(ValueError):
        Subset.from_text("1x\n00\n")
    with pytest.raises(ValueError):
        Subset.from_text("# nothing but comments\n")


def test_subset_json_round_trip():
    s = S(2, 3, (1, 3), (2, 1))
    d = s.to_json_dict()
    assert d == {"m": 2, "n": 3, "cells": [[1, 3], [2, 1]]}
    assert Subset.from_json(json.dumps(d)) == s
    assert Subset.from_json(d) == s


def test_subset_json_rejects_out_of_range_cells():
    with pytest.raises(ValueError):
        Subset.from_json({"m": 2, "n": 2, "cells": [[3, 1]]})
    with pytest.raises(ValueError):
        Subset.from_json({"m": 2, "n": 2, "cells": [[0, 1]]})


def test_subset_json_refuses_a_shape_above_the_cell_limit():
    assert Subset.from_json({"m": 1, "n": MAX_JSON_CELLS, "cells": [[1, 1]]}).size == 1
    for m, n in ((1, MAX_JSON_CELLS + 1), (100_000, 100_000)):
        with pytest.raises(ValueError, match=f"exceeds {MAX_JSON_CELLS} cells"):
            Subset.from_json({"m": m, "n": n, "cells": []})
    assert MAX_JSON_CELLS >= 1200


def test_subset_json_nested_past_the_recursion_limit_is_a_value_error():
    # json.loads raises RecursionError here, which no caller expects.
    deep = "[" * 200_000 + "]" * 200_000
    doc = '{"m": ' + deep + "}"
    for text in (doc, doc.encode()):
        with pytest.raises(ValueError, match="^JSON nested too deeply$"):
            Subset.from_json(text)


@pytest.mark.parametrize(
    "doc",
    [
        {"m": "2", "n": 2, "cells": [[1, 1]]},
        {"m": 2.0, "n": 2, "cells": [[1, 1]]},
        {"m": True, "n": 2, "cells": [[1, 1]]},
        {"m": 2, "n": 2, "cells": [[1.5, 1]]},
        {"m": 2, "n": 2, "cells": [[1, False]]},
        {"m": 2, "n": 2, "cells": [[1, 1, 1]]},
        {"m": 2, "n": 2, "cells": [[1]]},
        {"m": 2, "n": 2, "cells": ["11"]},
        {"m": 2, "n": 2, "cells": {"1": 1}},
        {"m": 2, "cells": []},
        [2, 2, []],
    ],
)
def test_subset_json_requires_integers(doc):
    with pytest.raises(ValueError):
        Subset.from_json(doc)
    with pytest.raises(ValueError):
        Subset.from_json(json.dumps(doc))


def test_subset_membership_and_supports():
    s = S(2, 3, (1, 1), (1, 3), (2, 3))
    assert (1, 1) in s and (2, 1) not in s
    assert s.row_support(1) == frozenset({1, 3})
    assert s.row_support(2) == frozenset({3})
    assert s.col_support(3) == frozenset({1, 2})
    assert s.size == 3
    assert s.complement().cells == ((1, 2), (2, 1), (2, 2))


# ---------------------------------------------------------------- PermPair

def test_perm_pair_validates_bijection():
    with pytest.raises(ValueError):
        PermPair((1, 1), (1, 2))
    with pytest.raises(ValueError):
        PermPair((1, 2), (0, 1))


def test_perm_pair_apply_moves_cells():
    s = S(2, 2, (1, 2))
    swap_cols = PermPair((1, 2), (2, 1))
    assert s.permuted(swap_cols).cells == ((1, 1),)
    swap_rows = PermPair((2, 1), (1, 2))
    assert s.permuted(swap_rows).cells == ((2, 2),)


def test_perm_pair_from_orders():
    # Row order (3, 1, 2) means: new row 1 is old row 3, and so on.
    p = PermPair.from_orders((3, 1, 2), (2, 1))
    s = S(3, 2, (3, 1))
    assert s.permuted(p).cells == ((1, 2),)


def test_perm_pair_inverse_round_trip():
    rng = random.Random(103)
    for _ in range(50):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        s = random_subset(rng, m, n)
        p = random_perm_pair(rng, m, n)
        assert s.permuted(p).permuted(p.inverse()) == s


def test_celltable_permutes_like_subset():
    t = mono([[1, 2], [0, 3]])
    p = PermPair((2, 1), (2, 1))
    assert t.permuted(p).entries == ((3, 0), (2, 1))


# ------------------------------------------------- in-place recognizers

def test_triangular_in_place_examples():
    assert is_triangular_in_place(S(2, 2, (1, 1), (1, 2), (2, 1)))
    assert not is_triangular_in_place(S(2, 2, (2, 2)))
    assert is_triangular_in_place(Subset.empty(3, 4))
    assert is_triangular_in_place(Subset.full(3, 4))


def test_block_in_place_examples():
    assert is_block_diagonal_in_place(S(2, 2, (1, 1), (2, 2))) == (1, 1)
    assert is_block_diagonal_in_place(S(2, 2, (1, 2), (2, 1))) is None
    assert is_block_diagonal_in_place(Subset.full(3, 3)) == (3, 3)
    assert is_block_diagonal_in_place(Subset.empty(3, 3)) == (3, 0)


def test_block_in_place_matches_cell_by_cell_reference():
    cells3 = TableShape(3, 3).cells()
    cases = [
        Subset.from_cells(3, 3, [c for p, c in enumerate(cells3) if bits >> p & 1])
        for bits in range(512)
    ]
    rng = random.Random(709)
    for m, n in [(4, 4), (4, 5), (5, 4), (5, 5)]:
        cases += [Subset.full(m, n), Subset.empty(m, n)]
        for _ in range(10):
            block = random_block(rng, m, n)
            perms = random_perm_pair(rng, m, n)
            cases += [random_subset(rng, m, n), block, block.permuted(perms)]
    for s in cases:
        assert is_block_diagonal_in_place(s) == is_block_diagonal_in_place_by_cells(s), s
    hits = sum(is_block_diagonal_in_place(s) is not None for s in cases)
    assert 0 < hits < len(cases)


def test_block_pattern_matches_in_place_recognizer():
    for m, n in [(2, 2), (3, 2), (3, 4)]:
        for r in range(m + 1):
            for c in range(n + 1):
                pat = block_pattern(TableShape(m, n), r, c)
                found = is_block_diagonal_in_place(pat)
                assert found is not None
                # The recognizer prefers the largest top-left block, so it
                # may report an equivalent (r, c) pair for the same pattern.
                assert block_pattern(TableShape(m, n), *found) == pat


# ---------------------------------------------------------------- classify

def test_classify_diagonal_is_neither():
    res = classify(S(3, 3, (1, 1), (2, 2), (3, 3)))
    assert res.triangular is None
    assert res.block_diagonal is None
    assert res.is_neither


def test_classify_single_corner_cell_is_triangular():
    res = classify(S(3, 3, (3, 3)))
    w = res.triangular
    assert w is not None
    assert w.row_perm[2] == 1 and w.col_perm[2] == 1


def test_classify_antidiagonal_is_block_not_triangular():
    res = classify(S(2, 2, (1, 2), (2, 1)))
    assert res.triangular is None
    b = res.block_diagonal
    assert b is not None
    assert (b.r, b.c) == (1, 1)


def test_classify_empty_and_full_have_both_flags():
    for s in (Subset.empty(3, 3), Subset.full(3, 3)):
        res = classify(s)
        assert res.triangular is not None
        assert res.block_diagonal is not None


def test_classify_witnesses_validate():
    rng = random.Random(104)
    cases = []
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        kind = rng.randrange(3)
        if kind == 0:
            s = random_subset(rng, m, n)
        elif kind == 1:
            s = random_staircase(rng, m, n).permuted(random_perm_pair(rng, m, n))
        else:
            s = random_block(rng, m, n).permuted(random_perm_pair(rng, m, n))
        cases.append(s)
    for s in cases:
        res = classify(s)
        if res.triangular is not None:
            assert is_triangular_in_place(s.permuted(res.triangular))
        if res.block_diagonal is not None:
            b = res.block_diagonal
            moved = s.permuted(b.perms)
            assert moved == block_pattern(s.shape, b.r, b.c)


def test_classify_flags_invariant_under_permutation():
    rng = random.Random(105)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        s = random_subset(rng, m, n, p=rng.choice([0.3, 0.5, 0.8]))
        base = classify(s)
        moved = classify(s.permuted(random_perm_pair(rng, m, n)))
        assert (base.triangular is None) == (moved.triangular is None)
        assert (base.block_diagonal is None) == (moved.block_diagonal is None)


# ------------------------------------------------------------ oracle vs fast

def agreement(s):
    fast = classify(s)
    slow = classify_oracle(s)
    assert (fast.triangular is None) == (slow.triangular is None), s.to_text()
    assert (fast.block_diagonal is None) == (slow.block_diagonal is None), s.to_text()


def test_classify_agrees_with_oracle_exhaustive_small():
    for m, n in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]:
        total = m * n
        for bits in range(1 << total):
            cells = [
                (k // n + 1, k % n + 1) for k in range(total) if bits >> k & 1
            ]
            agreement(Subset.from_cells(m, n, cells))


def test_classify_agrees_with_oracle_random_up_to_5x5():
    rng = random.Random(106)
    # Both classifiers are deterministic in the mask, so a repeated mask
    # is not checked again; every draw is still made, from the same stream.
    checked = set()
    for m in range(1, 6):
        for n in range(1, 6):
            for k in range(1000):
                kind = k % 5
                if kind < 3:
                    s = random_subset(rng, m, n, p=rng.choice([0.2, 0.5, 0.8]))
                elif kind == 3:
                    s = random_staircase(rng, m, n).permuted(
                        random_perm_pair(rng, m, n)
                    )
                else:
                    s = random_block(rng, m, n).permuted(
                        random_perm_pair(rng, m, n)
                    )
                if s.mask not in checked:
                    checked.add(s.mask)
                    agreement(s)


def _scan_agrees(s):
    w = neither_by_local_scan(s)
    assert (w is not None) == classify(s).is_neither, s.to_text()
    return w


def test_local_scan_agrees_with_classify_on_every_3x3_and_3x4_subset():
    from util import _neither_patterns

    shapes = sorted((len(p), len(p[0])) for p in _neither_patterns())
    assert shapes == [(2, 3)] * 12 + [(3, 2)] * 12
    for m, n in [(3, 3), (3, 4)]:
        for bits in range(1 << (m * n)):
            cells = [(k // n + 1, k % n + 1) for k in range(m * n) if bits >> k & 1]
            _scan_agrees(Subset.from_cells(m, n, cells))


def test_local_scan_agrees_with_classify_on_seeded_4x4_to_10x10():
    from subtoric.fibers import enumerate_fiber, fiber_components
    from subtoric.ideal import build_generators

    rng = random.Random(2007)
    witnesses = 0
    for m, n in [(4, 4)] * 100 + [(k, k) for k in range(6, 11)] * 8:
        perms = random_perm_pair(rng, m, n)
        assert _scan_agrees(random_staircase(rng, m, n).permuted(perms)) is None
        assert _scan_agrees(random_block(rng, m, n).permuted(perms)) is None
        s = random_subset(rng, m, n, p=rng.choice([0.2, 0.5, 0.8]))
        w = _scan_agrees(s)
        if w is not None:
            # The lifted witness is the whole fiber of its key in s, and
            # the kept moves of s leave it disconnected.
            assert w.key.degree == 4 and w.size == 2
            assert enumerate_fiber(s, w.key) == w
            assert len(fiber_components(w, build_generators(s))) == 2
            witnesses += 1
    assert witnesses > 100


def test_oracle_witnesses_validate_too():
    rng = random.Random(107)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        s = random_subset(rng, m, n)
        res = classify_oracle(s)
        if res.triangular is not None:
            assert is_triangular_in_place(s.permuted(res.triangular))
        if res.block_diagonal is not None:
            b = res.block_diagonal
            assert s.permuted(b.perms) == block_pattern(s.shape, b.r, b.c)


def test_oracle_matches_cell_oracle_on_every_small_subset():
    for m in range(1, 4):
        for n in range(1, 4):
            for bits in range(1 << (m * n)):
                cells = [
                    (k // n + 1, k % n + 1) for k in range(m * n) if bits >> k & 1
                ]
                s = Subset.from_cells(m, n, cells)
                assert classify_oracle(s) == classify_oracle_by_cells(s), s.to_text()


def test_oracle_matches_cell_oracle_on_seeded_subsets():
    rng = random.Random(108)
    subsets = []
    for m, n in [(4, 4), (5, 5), (2, 5), (5, 2)]:
        for _ in range(4):
            subsets.append(random_subset(rng, m, n, p=rng.choice([0.2, 0.5, 0.8])))
            perms = random_perm_pair(rng, m, n)
            subsets.append(random_staircase(rng, m, n).permuted(perms))
            subsets.append(random_block(rng, m, n).permuted(perms))
    seen = {"tri": 0, "blk": 0, "neither": 0}
    for s in subsets:
        res = classify_oracle(s)
        assert res == classify_oracle_by_cells(s), s.to_text()
        seen["tri"] += res.triangular is not None
        seen["blk"] += res.block_diagonal is not None
        seen["neither"] += res.is_neither
    assert min(seen.values()) >= 2, seen


def test_oracle_matches_cell_oracle_on_every_thin_subset():
    # Shapes with a side of 1 or 2 reach 5 on the other side, where the
    # row and column checks each run over up to 120 permutations.
    for m, n in [(1, 5), (5, 1), (2, 4), (4, 2)]:
        for bits in range(1 << (m * n)):
            cells = [(k // n + 1, k % n + 1) for k in range(m * n) if bits >> k & 1]
            s = Subset.from_cells(m, n, cells)
            assert classify_oracle(s) == classify_oracle_by_cells(s), s.to_text()


def test_oracle_triangular_witness_walks_row_perms_not_inverses():
    # Rows nest only as source 3 over 1 over 2, so the one nesting row
    # permutation sends 1->2, 2->3, 3->1: a 3-cycle, not its own inverse.
    s = Subset.from_text("110\n100\n111\n")
    witness = PermPair((2, 3, 1), (1, 2, 3))
    assert witness.inverse() != witness
    res = classify_oracle(s)
    assert res == classify_oracle_by_cells(s)
    assert res.triangular == witness
    assert is_triangular_in_place(s.permuted(witness))


@pytest.mark.parametrize(
    "text, r, c",
    [
        ("1100\n0110\n0011\n1001\n", 2, 2),
        ("11000\n01100\n00111\n10011\n10011\n", 2, 2),
    ],
)
def test_oracle_block_sum_decoys_are_not_blocks(text, r, c):
    s = Subset.from_text(text)
    pattern = block_pattern(s.shape, r, c)

    def sums(t):
        return sorted(map(sum, t.mask)), sorted(map(sum, zip(*t.mask)))

    assert sums(s) == sums(pattern)
    res = classify_oracle(s)
    assert res.block_diagonal is None
    assert res == classify_oracle_by_cells(s)


def test_oracle_finds_every_permuted_block_pattern():
    rng = random.Random(109)
    for m in range(1, 6):
        for n in range(1, 6):
            shape = TableShape(m, n)
            patterns = {block_pattern(shape, r, c) for r in range(m + 1) for c in range(n + 1)}
            for pattern in sorted(patterns, key=Subset.to_text):
                s = pattern.permuted(random_perm_pair(rng, m, n))
                res = classify_oracle(s)
                assert res.block_diagonal is not None, s.to_text()
                assert res == classify_oracle_by_cells(s), s.to_text()


def test_oracle_refuses_oversized_tables():
    with pytest.raises(BudgetError):
        classify_oracle(Subset.empty(6, 3))
    with pytest.raises(BudgetError, match="oracle budget is 5x5, got 2x6"):
        classify_oracle(Subset.empty(2, 6))
