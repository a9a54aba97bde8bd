"""Tests for subtoric.verify: the one-subset verification pipeline."""

from __future__ import annotations

import hashlib
import io
import json
import random
from itertools import combinations_with_replacement, product

import pytest

import subtoric.tables as tables_mod
from subtoric.tables import (
    BudgetError,
    PermPair,
    Subset,
    TableShape,
    block_pattern,
    is_triangular_in_place,
)
from subtoric.verify import VerificationError, verify_subset


def S(m, n, *cells):
    return Subset.from_cells(m, n, cells)


def test_staircase_runs_the_triangular_branch():
    rep = verify_subset(S(3, 3, (1, 1), (1, 2), (2, 1)), 4)
    assert rep.classification.triangular is not None
    assert rep.classification.block_diagonal is None
    assert rep.gb is not None and rep.gb.passed
    assert rep.census is not None
    assert [r.degree for r in rep.census] == [0, 1, 2, 3, 4]
    assert all(r.balanced for r in rep.census)
    assert rep.block_reduction is None
    assert rep.neither_witness is None
    assert rep.canonical is not None
    assert is_triangular_in_place(rep.canonical)


def test_permuted_staircase_certified_via_canonical_form():
    rep = verify_subset(S(4, 4, (2, 2)), 4)
    assert rep.canonical == S(4, 4, (1, 1))
    assert rep.gb.passed
    assert all(r.balanced for r in rep.census)


def test_diagonal_reports_neither_with_frozen_witness():
    rep = verify_subset(S(3, 3, (1, 1), (2, 2), (3, 3)), 4)
    assert rep.classification.is_neither
    assert rep.gb is None and rep.census is None and rep.block_reduction is None
    w = rep.neither_witness
    assert w is not None
    assert w.key.row_sums == (1, 1, 1)
    assert w.key.col_sums == (1, 1, 1)
    assert w.key.in_sum == 0
    assert w.size == 2


def test_neither_without_witness_is_reported_honestly():
    # At degree 1 every fiber is a singleton, so no witness can exist.
    rep = verify_subset(S(3, 3, (1, 1), (2, 2), (3, 3)), 1)
    assert rep.classification.is_neither
    assert rep.neither_witness is None
    assert rep.max_degree == 1


def test_block_pattern_runs_reduction_then_certifies_the_block():
    s = block_pattern(TableShape(4, 4), 2, 2)
    rep = verify_subset(s, 4)
    assert rep.classification.triangular is None
    br = rep.block_reduction
    assert br is not None
    assert br.generators_match and br.fibers_match
    assert br.reduced == S(4, 4, (1, 1), (1, 2), (2, 1), (2, 2))
    assert rep.gb is not None and rep.gb.passed
    assert all(r.balanced for r in rep.census)


def test_both_flags_populate_both_branches():
    rep = verify_subset(Subset.full(3, 3), 4)
    assert rep.classification.triangular is not None
    assert rep.classification.block_diagonal is not None
    assert rep.gb.passed
    assert rep.block_reduction is not None
    assert rep.block_reduction.reduced == Subset.full(3, 3)
    assert rep.neither_witness is None

    rep0 = verify_subset(Subset.empty(2, 3), 3)
    assert rep0.gb.passed
    assert rep0.block_reduction is not None
    assert rep0.block_reduction.reduced.size == 0


def test_full_3x3_sweep_never_errors_and_populates_by_class():
    for bits in range(512):
        cells = [(k // 3 + 1, k % 3 + 1) for k in range(9) if bits >> k & 1]
        s = Subset.from_cells(3, 3, cells)
        rep = verify_subset(s, 4)
        tri = rep.classification.triangular is not None
        blk = rep.classification.block_diagonal is not None
        assert (rep.gb is not None) == (tri or blk)
        assert (rep.census is not None) == (tri or blk)
        assert (rep.block_reduction is not None) == blk
        if tri or blk:
            assert rep.gb.passed
            assert all(r.balanced for r in rep.census)
            assert rep.neither_witness is None


def test_report_json_has_stable_field_names():
    rep = verify_subset(S(2, 2, (1, 2), (2, 1)), 3)
    d = rep.to_json_dict()
    assert set(d) == {
        "classification",
        "gb",
        "census",
        "block_reduction",
        "neither_witness",
    }
    assert d["neither_witness"] is None
    assert d["block_reduction"]["generators_match"] is True
    assert isinstance(d["census"], list)

    rep2 = verify_subset(S(3, 3, (1, 1), (2, 2), (3, 3)), 4)
    d2 = rep2.to_json_dict()
    assert d2["gb"] is None
    assert d2["neither_witness"]["size"] == 2


def test_degree_budget_is_enforced(monkeypatch):
    with pytest.raises(BudgetError):
        verify_subset(S(3, 3, (1, 1), (2, 2), (3, 3)), 7)
    monkeypatch.setattr(tables_mod, "MAX_TABLES_PER_DEGREE", 50)
    with pytest.raises(BudgetError):
        verify_subset(Subset.full(3, 3), 4)


def test_block_reduction_checks_the_table_budget_before_counting(monkeypatch):
    import subtoric.fibers as fibers_mod

    def no_counting(*_args):
        raise AssertionError("counted before the budget check")

    monkeypatch.setattr(fibers_mod, "_margin_values", no_counting)
    # Not a staircase, so the block branch is the first to meet the budget.
    monkeypatch.setattr(tables_mod, "MAX_TABLES_PER_DEGREE", 50)
    s = block_pattern(TableShape(4, 4), 2, 2)
    with pytest.raises(BudgetError) as err:
        verify_subset(s, 4)
    assert str(err.value) == "136 degree-2 tables on 4x4 exceed budget 50"


def test_block_branch_counts_the_pair_then_the_census(monkeypatch):
    import subtoric.fibers as fibers_mod

    calls = []
    original = fibers_mod._margin_values

    def counting(s, size):
        calls.append(s)
        return original(s, size)

    monkeypatch.setattr(fibers_mod, "_margin_values", counting)
    s = block_pattern(TableShape(4, 4), 2, 2)
    rep = verify_subset(s, 4)
    assert rep.classification.triangular is None
    # The pair is compared by its 2x2 contrasts; only the census counts.
    reduced = rep.block_reduction.reduced
    assert calls == [reduced]


def test_large_patterns_refuse_on_budget_before_the_s_pair_loop(monkeypatch):
    import subtoric.verify as verify_mod

    def too_early(*_args):
        raise AssertionError("moves keyed or S-pairs reduced before the budget check")

    monkeypatch.setattr(verify_mod, "move_keys", too_early)
    monkeypatch.setattr(verify_mod, "quadratic_gb_check", too_early)
    stair = S(12, 12, *[(i, j) for i in range(1, 13) for j in range(1, 14 - i)])
    for s in (stair, block_pattern(TableShape(12, 12), 5, 7)):
        with pytest.raises(BudgetError) as err:
            verify_subset(s, 4)
        assert str(err.value) == "508080 degree-3 tables on 12x12 exceed budget 200000"


def test_s_pair_ceiling_refuses_verify_and_check_gb_before_any_restriction(
    monkeypatch, tmp_path, capsys
):
    import subtoric.binomials as binomials_mod
    import subtoric.ideal as ideal_mod
    from subtoric import cli

    stair = S(5, 5, *[(i, j) for i in range(1, 6) for j in range(1, 7 - i)])
    path = tmp_path / "s.txt"
    path.write_text(stair.to_text() + "\n")
    pairs = verify_subset(stair, 2).gb.checked_pairs
    monkeypatch.setattr(tables_mod, "MAX_S_PAIRS", pairs)
    assert verify_subset(stair, 2).gb.passed
    assert cli.main(["check-gb", str(path)]) == 0
    capsys.readouterr()

    def too_late(*_args):
        raise AssertionError("S-pair reduced or restriction read past the ceiling")

    monkeypatch.setattr(tables_mod, "MAX_S_PAIRS", pairs - 1)
    monkeypatch.setattr(binomials_mod._Divider, "reduce", too_late)
    monkeypatch.setattr(ideal_mod, "_local_verdict", too_late)
    monkeypatch.setattr(ideal_mod, "_LOCAL_VERDICTS", {})
    message = f"{pairs} S-pairs on 5x5 exceed budget {pairs - 1}"
    with pytest.raises(BudgetError) as err:
        verify_subset(stair, 2)
    assert str(err.value) == message
    assert cli.main(["check-gb", str(path)]) == 3
    out, err_text = capsys.readouterr()
    lines = err_text.splitlines()
    assert out == "" and lines[0] == f"budget exceeded: {message}"
    assert len(lines) == 2 and lines[1].startswith("elapsed: ")


def test_classified_subsets_refuse_on_budget_before_building_moves(monkeypatch):
    import subtoric.verify as verify_mod

    def too_early(*_args):
        raise AssertionError("moves built before the budget check")

    monkeypatch.setattr(verify_mod, "build_generators", too_early)
    stair = S(30, 30, *[(i, j) for i in range(1, 31) for j in range(1, 32 - i)])
    rng = random.Random(414)
    rows, cols = list(range(1, 31)), list(range(1, 31))
    rng.shuffle(rows)
    rng.shuffle(cols)
    blocks = block_pattern(TableShape(30, 30), 12, 17).permuted(PermPair(tuple(rows), tuple(cols)))
    for s in (stair, blocks):
        with pytest.raises(BudgetError) as err:
            verify_subset(s, 4)
        assert str(err.value) == "405450 degree-2 tables on 30x30 exceed budget 200000"


def test_neither_subsets_keep_the_degree_by_degree_budget(monkeypatch):
    # Degree 4 on 3x3 is 495 tables, over this budget, but the diagonal's
    # witness has degree 3, so the hunt finds it before meeting degree 4.
    monkeypatch.setattr(tables_mod, "MAX_TABLES_PER_DEGREE", 200)
    rep = verify_subset(S(3, 3, (1, 1), (2, 2), (3, 3)), 4)
    assert rep.neither_witness.key.degree == 3
    with pytest.raises(BudgetError, match="^495 degree-4 tables on 3x3 exceed budget 200$"):
        verify_subset(Subset.full(3, 3), 4)


def test_one_patch_of_max_degree_moves_every_degree_refusal(monkeypatch):
    from subtoric.fibers import enumerate_fiber, fibers_of_degree
    from subtoric.tables import Margins

    stair, full = S(3, 3, (1, 1), (1, 2), (2, 1)), Subset.full(2, 2)
    deep = Margins((2, 1), (2, 1), 3)
    # At the shipped ceiling both degree-3 requests pass.
    assert tables_mod.MAX_DEGREE == 6
    assert verify_subset(stair, 3).gb.passed
    assert enumerate_fiber(full, deep).size == 2
    monkeypatch.setattr(tables_mod, "MAX_DEGREE", 2)
    with pytest.raises(BudgetError, match="^degree bound 3 exceeds budget 2$"):
        verify_subset(stair, 3)
    with pytest.raises(BudgetError, match="^fiber degree 3 exceeds budget 2$"):
        enumerate_fiber(full, deep)
    with pytest.raises(BudgetError, match="^degree 3 exceeds budget 2$"):
        fibers_of_degree(full, 3)
    assert verify_subset(stair, 2).gb.passed
    assert enumerate_fiber(full, Margins((1, 1), (1, 1), 2)).size == 2


def _doubly_sorted(m, n):
    """Every m x n subset whose rows, read as bit strings, ascend from the
    top and whose columns ascend from the left.  Sorting the rows, then
    the columns, and so on, reaches such a subset from any subset: each
    sort gives the smallest row-major bit string its permutations allow,
    so the string never grows and the sorting stops.  So this meets
    every orbit under row and column permutations."""
    for rows in combinations_with_replacement(list(product((0, 1), repeat=n)), m):
        if list(zip(*rows)) == sorted(zip(*rows)):
            yield "".join("".join(map(str, r)) + "\n" for r in rows)


# sha256 of every `verify --degree 4 --json` stdout below, in order, as
# the hunt that scanned every step on flat tables printed it.
ORBIT_DIGEST = "0559e880aa381f1b923bbc7c5fddbeda6e6c1342f9296f211c30a0be9ef9e9d3"


def test_every_neither_orbit_up_to_4x4_has_a_witness_and_frozen_output(monkeypatch, capsys):
    from subtoric import cli

    digest = hashlib.sha256()
    counts = {"orbits": 0, "neither": 0}
    for m, n in product(range(1, 5), repeat=2):
        for text in _doubly_sorted(m, n):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert cli.main(["verify", "--degree", "4", "--json", "-"]) == 0
            out = capsys.readouterr().out
            digest.update(out.encode())
            payload = json.loads(out)["payload"]
            if not any(payload["classification"].values()):
                assert payload["neither_witness"] is not None, text
                counts["neither"] += (m, n) == (4, 4)
            counts["orbits"] += (m, n) == (4, 4)
    assert counts == {"orbits": 650, "neither": 571}
    assert digest.hexdigest() == ORBIT_DIGEST


def test_negative_degree_bound_is_rejected():
    with pytest.raises(ValueError):
        verify_subset(S(3, 3, (1, 1), (1, 2), (2, 1)), -2)


def test_staircase_leading_terms_must_be_the_antidiagonals(monkeypatch):
    # Under the bottom-row lex order the antidiagonal always leads, so the
    # check can only trip when the move keys come back the wrong way round.
    import subtoric.verify as verify_mod

    original = verify_mod.move_keys
    monkeypatch.setattr(
        verify_mod,
        "move_keys",
        lambda moves, order: [(d, a) for a, d in original(moves, order)],
    )
    with pytest.raises(
        VerificationError,
        match=r"leading term of \(1, 2, 1, 3\) is not the squarefree antidiagonal",
    ):
        verify_subset(S(3, 3, (1, 1), (1, 2), (2, 1)), 2)


def test_certify_and_check_gb_never_expand_a_move(monkeypatch, tmp_path, capsys):
    from subtoric import cli
    from subtoric.ideal import QuadGen

    expanded = []
    original = QuadGen.expand

    def counted(self, shape):
        expanded.append(self)
        return original(self, shape)

    monkeypatch.setattr(QuadGen, "expand", counted)
    stair = S(4, 4, (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))
    rep = verify_subset(stair, 3)
    assert rep.gb.passed and rep.gb.checked_pairs > 0
    verify_subset(block_pattern(TableShape(4, 4), 2, 1), 3)
    for text, code in (("110\n100\n000\n", 0), ("0000\n0100\n0000\n0000\n", 1)):
        path = tmp_path / "s.txt"
        path.write_text(text)
        assert cli.main(["check-gb", str(path)]) == code
    capsys.readouterr()
    assert expanded == []


def test_staircase_gb_report_equals_the_binomial_report():
    from subtoric.binomials import MonomialOrder, buchberger_check
    from subtoric.ideal import build_generators

    for s in (
        S(3, 3, (1, 1), (1, 2), (2, 1)),
        S(4, 4, (2, 2)),
        S(5, 4, (1, 1), (1, 2), (1, 3), (2, 1), (3, 1)),
    ):
        rep = verify_subset(s, 2)
        order = MonomialOrder(s.shape)
        gens = build_generators(rep.canonical).binomials(order)
        assert rep.gb == buchberger_check(gens, order)


def test_block_branch_builds_each_generator_set_once(monkeypatch):
    import subtoric.verify as verify_mod

    built = []
    original = verify_mod.build_generators

    def counted(s):
        built.append(s)
        return original(s)

    monkeypatch.setattr(verify_mod, "build_generators", counted)
    # Block diagonal only: the permuted pattern and the reduced one.
    s = block_pattern(TableShape(4, 4), 2, 2)
    rep = verify_subset(s, 3)
    assert rep.classification.triangular is None
    moved = s.permuted(rep.classification.block_diagonal.perms)
    assert sorted(built, key=Subset.to_text) == sorted(
        [moved, rep.block_reduction.reduced], key=Subset.to_text
    )
    # Both classes: the canonical form is the reduction, built once.
    built.clear()
    rep = verify_subset(S(3, 4, (2, 1), (2, 2), (2, 3), (2, 4)), 3)
    assert rep.classification.triangular is not None
    assert rep.block_reduction.reduced == rep.canonical
    assert built == [rep.canonical]


def test_each_classified_subset_is_certified_once(monkeypatch):
    import subtoric.verify as verify_mod

    certified = []
    original = verify_mod._certify_staircase

    def counted(s, gset, max_degree):
        certified.append(s)
        return original(s, gset, max_degree)

    monkeypatch.setattr(verify_mod, "_certify_staircase", counted)
    both = 0
    for m in range(1, 4):
        for n in range(1, 5):
            for bits in range(1 << (m * n)):
                s = Subset.from_cells(
                    m, n, [(k // n + 1, k % n + 1) for k in range(m * n) if bits >> k & 1]
                )
                certified.clear()
                rep = verify_subset(s, 1)
                cls = rep.classification
                both += cls.triangular is not None and cls.block_diagonal is not None
                assert certified == ([] if cls.is_neither else [rep.canonical]), s
    assert both > 0


def test_both_classes_count_no_fibers(monkeypatch):
    import subtoric.verify as verify_mod

    def no_counting(*_args):
        raise AssertionError("_same_fibers on a pattern equal to its reduction")

    monkeypatch.setattr(verify_mod, "_same_fibers", no_counting)
    for s in (
        Subset.full(5, 5),
        S(5, 5, *[(i, j) for i in (1, 2) for j in range(1, 6)]),
        S(3, 3, (1, 2), (2, 2), (3, 2)),
        Subset.empty(2, 3),
    ):
        rep = verify_subset(s, 3)
        w = rep.classification.block_diagonal
        assert rep.classification.triangular is not None and w is not None
        assert s.permuted(w.perms) == rep.block_reduction.reduced == rep.canonical
        assert rep.block_reduction.generators_match and rep.block_reduction.fibers_match
        assert rep.gb.passed and all(r.balanced for r in rep.census)


def test_both_classes_reduction_must_be_the_canonical_form(monkeypatch):
    import subtoric.verify as verify_mod

    monkeypatch.setattr(verify_mod, "block_reduce", lambda s, w: S(3, 3, (1, 1)))
    with pytest.raises(VerificationError) as err:
        verify_subset(Subset.full(3, 3), 2)
    assert str(err.value) == (
        "block reduction of a triangular subset is not the subset itself "
        "in staircase form: ((1, 1),)"
    )
