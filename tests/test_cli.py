"""End-to-end tests for the command line, run as real subprocesses."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "subtoric.cli"]

DIAG3 = "100\n010\n001\n"
STAIR3 = "110\n100\n000\n"
OFFCORNER4 = "0000\n0100\n0000\n0000\n"


def run_cli(*args, stdin=None):
    return subprocess.run(
        CLI + list(args), input=stdin, capture_output=True, text=True
    )


def write_subset(tmp_path, text, name="subset.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def payload_of(proc, command):
    env = json.loads(proc.stdout)
    assert env["command"] == command
    return env["payload"]


# ---------------------------------------------------------------- classify

def test_classify_diagonal_prints_neither(tmp_path):
    proc = run_cli("classify", write_subset(tmp_path, DIAG3))
    assert proc.returncode == 0
    assert "neither" in proc.stdout


def test_classify_staircase_json(tmp_path):
    proc = run_cli("classify", "--json", write_subset(tmp_path, STAIR3))
    assert proc.returncode == 0
    payload = payload_of(proc, "classify")
    assert payload["triangular"] is not None
    assert payload["block_diagonal"] is None


def test_classify_reads_stdin_dash():
    proc = run_cli("classify", "-", stdin=STAIR3)
    assert proc.returncode == 0
    assert "triangular" in proc.stdout


def test_classify_accepts_json_subset(tmp_path):
    doc = json.dumps({"m": 2, "n": 2, "cells": [[1, 2], [2, 1]]})
    proc = run_cli("classify", "--json", write_subset(tmp_path, doc, "s.json"))
    assert proc.returncode == 0
    payload = payload_of(proc, "classify")
    assert payload["triangular"] is None
    assert payload["block_diagonal"]["r"] == 1


def test_classify_oracle_flag_agrees(tmp_path):
    path = write_subset(tmp_path, DIAG3)
    fast = payload_of(run_cli("classify", "--json", path), "classify")
    slow = payload_of(run_cli("classify", "--json", "--oracle", path), "classify")
    assert (fast["triangular"] is None) == (slow["triangular"] is None)
    assert (fast["block_diagonal"] is None) == (slow["block_diagonal"] is None)


# classify --oracle output, text and --json, one subset per class
# combination; the JSON golden is compact, as in VERIFY_GOLDENS below.
ORACLE_GOLDENS = {
    "111\n111\n000\n": (
        "triangular: yes  row_perm=[1, 2, 3] col_perm=[1, 2, 3]\n"
        "block diagonal: yes  r=2 c=3\n"
        "class: both\n",
        '{"command":"classify","payload":{"block_diagonal":{"c":3,"perms":'
        '{"cols":[1,2,3],"rows":[1,2,3]},"r":2},"triangular":{"cols":[1,2,3],'
        '"rows":[1,2,3]}}}',
    ),
    "1100\n1100\n0011\n0011\n": (
        "triangular: no\nblock diagonal: yes  r=2 c=2\nclass: block diagonal\n",
        '{"command":"classify","payload":{"block_diagonal":{"c":2,"perms":'
        '{"cols":[1,2,3,4],"rows":[1,2,3,4]},"r":2},"triangular":null}}',
    ),
    "0111\n0011\n0001\n": (
        "triangular: yes  row_perm=[1, 2, 3] col_perm=[4, 3, 2, 1]\n"
        "block diagonal: no\n"
        "class: triangular\n",
        '{"command":"classify","payload":{"block_diagonal":null,"triangular":'
        '{"cols":[4,3,2,1],"rows":[1,2,3]}}}',
    ),
    # Row and column sums of the 2+2 block pattern, but a 4-cycle.
    "1100\n0110\n0011\n1001\n": (
        "triangular: no\nblock diagonal: no\nclass: neither\n",
        '{"command":"classify","payload":{"block_diagonal":null,"triangular":null}}',
    ),
}


@pytest.mark.parametrize("grid", sorted(ORACLE_GOLDENS))
def test_classify_oracle_output_golden(tmp_path, capsys, grid):
    from subtoric import cli

    text, compact = ORACLE_GOLDENS[grid]
    path = write_subset(tmp_path, grid)
    assert cli.main(["classify", "--oracle", path]) == 0
    assert capsys.readouterr().out == text
    assert cli.main(["classify", "--oracle", "--json", path]) == 0
    expected = json.dumps(json.loads(compact), indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr().out == expected


# -------------------------------------------------------------------- gens

def test_gens_empty_listing(tmp_path):
    proc = run_cli("gens", write_subset(tmp_path, "10\n00\n"))
    assert proc.returncode == 0
    assert "generators: 0" in proc.stdout

    jproc = run_cli("gens", "--json", write_subset(tmp_path, "10\n00\n", "b.txt"))
    assert payload_of(jproc, "gens")["generators"] == []


def test_gens_full_2x2(tmp_path):
    proc = run_cli("gens", "--json", write_subset(tmp_path, "11\n11\n"))
    payload = payload_of(proc, "gens")
    assert payload["generators"] == [[1, 2, 1, 2]]
    assert payload["count"] == 1


def test_gens_text_golden_on_3x3_staircase(tmp_path, capsys):
    from subtoric import cli

    assert cli.main(["gens", write_subset(tmp_path, STAIR3)]) == 0
    assert capsys.readouterr().out == (
        "generators: 3\n"
        "  (1, 2, 1, 3)  x13*x21-x11*x23\n"
        "  (1, 3, 1, 2)  x12*x31-x11*x32\n"
        "  (2, 3, 2, 3)  x23*x32-x22*x33\n"
    )


def test_gens_text_matches_the_oriented_binomials(tmp_path, capsys):
    import random

    from subtoric import cli
    from subtoric.binomials import MonomialOrder
    from subtoric.ideal import build_generators
    from util import random_subset

    rng = random.Random(1125)
    for _ in range(40):
        s = random_subset(rng, rng.randint(2, 9), rng.randint(2, 9), rng.random())
        gset = build_generators(s)
        binomials = gset.binomials(MonomialOrder(s.shape))
        assert cli.main(["gens", write_subset(tmp_path, s.to_text())]) == 0
        assert capsys.readouterr().out.splitlines() == [f"generators: {len(gset)}"] + [
            f"  {q.as_tuple}  {g}" for q, g in zip(gset, binomials)
        ]


def test_gens_json_expands_no_move(monkeypatch, tmp_path, capsys):
    from subtoric import cli
    from subtoric.ideal import QuadGen

    expanded = []
    original = QuadGen.expand

    def counted(self, shape):
        expanded.append(self)
        return original(self, shape)

    monkeypatch.setattr(QuadGen, "expand", counted)
    path = write_subset(tmp_path, "1111\n" * 4)
    assert cli.main(["gens", "--json", path]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["count"] == 36
    assert expanded == []
    # The text listing writes every move's binomial straight from its cells.
    assert cli.main(["gens", path]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 37
    assert expanded == []


# ----------------------------------------------------------------- check-gb

def test_check_gb_passes_on_staircase(tmp_path):
    proc = run_cli("check-gb", "--json", write_subset(tmp_path, STAIR3))
    assert proc.returncode == 0
    assert payload_of(proc, "check-gb")["pass"] is True


def test_check_gb_fails_off_corner_cell(tmp_path):
    # Uncanonicalized generators of this permuted staircase are not a
    # Groebner basis; the command must say so and exit 1.
    proc = run_cli("check-gb", "--json", write_subset(tmp_path, OFFCORNER4))
    assert proc.returncode == 1
    payload = payload_of(proc, "check-gb")
    assert payload["pass"] is False
    assert payload["failure"]["remainder"] == "x11*x23*x32-x12*x21*x33"


def test_check_gb_report_equals_the_binomial_report(tmp_path, capsys):
    # check-gb keys the moves straight from their cells; its report must
    # be the one buchberger_check gives on the expanded binomials.
    import random

    from subtoric import cli
    from subtoric.binomials import MonomialOrder, buchberger_check
    from subtoric.ideal import build_generators
    from util import random_perm_pair, random_staircase, random_subset

    rng = random.Random(711)
    cases = []
    for low, high, count in ((2, 5, 12), (4, 6, 4)):
        for _ in range(count):
            m, n = rng.randint(low, high), rng.randint(low, high)
            stair = random_staircase(rng, m, n)
            cases += [stair, stair.permuted(random_perm_pair(rng, m, n))]
            cases.append(random_subset(rng, m, n))
    path = tmp_path / "s.txt"
    failed = 0
    # Outcomes on shapes of at least 4x4, whose screen reads 16 or more
    # 3x3 restrictions.
    large = set()
    for s in cases:
        order = MonomialOrder(s.shape)
        expected = buchberger_check(build_generators(s).binomials(order), order)
        path.write_text(s.to_text() + "\n")
        assert cli.main(["check-gb", "--json", str(path)]) == (0 if expected.passed else 1)
        assert json.loads(capsys.readouterr().out)["payload"] == expected.to_json_dict(), s
        failed += not expected.passed
        if min(s.shape.m, s.shape.n) >= 4:
            large.add(expected.passed)
    assert 2 <= failed < len(cases)
    assert large == {True, False}


# ------------------------------------------------------------------- verify

def test_verify_staircase_passes(tmp_path):
    proc = run_cli("verify", "--degree", "4", "--json", write_subset(tmp_path, STAIR3))
    assert proc.returncode == 0
    payload = payload_of(proc, "verify")
    assert payload["gb"]["pass"] is True
    assert payload["neither_witness"] is None


def test_verify_diagonal_reports_witness(tmp_path):
    proc = run_cli("verify", "--degree", "4", write_subset(tmp_path, DIAG3))
    assert proc.returncode == 0
    assert "disconnected fiber" in proc.stdout

    jproc = run_cli(
        "verify", "--degree", "4", "--json", write_subset(tmp_path, DIAG3, "d.txt")
    )
    payload = payload_of(jproc, "verify")
    assert payload["neither_witness"]["size"] == 2


def test_verify_json_is_byte_identical(tmp_path):
    path = write_subset(tmp_path, DIAG3)
    a = run_cli("verify", "--degree", "4", "--json", path)
    b = run_cli("verify", "--degree", "4", "--json", path)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


# verify --degree 3 output, text and --json, one subset per class
# combination.  Each JSON golden is the compact document; the CLI prints it
# with indent=2 and sorted keys.
VERIFY_GOLDENS = {
    # Both classes: a full rectangle, its own block reduction.
    "111\n111\n000\n": (
        "class: both\n"
        "canonical form: 111 / 111 / 000\n"
        "gb: pass (checked 17 pairs, skipped 19 coprime)\n"
        "census degree 0: standard 1 fiber 1 balanced\n"
        "census degree 1: standard 9 fiber 9 balanced\n"
        "census degree 2: standard 36 fiber 36 balanced\n"
        "census degree 3: standard 100 fiber 100 balanced\n"
        "block reduction: 111 / 111 / 000  generators_match=True fibers_match=True\n",
        '{"command":"verify","payload":{"block_reduction":{"fibers_match":true,'
        '"generators_match":true,"reduced":{"cells":[[1,1],[1,2],[1,3],[2,1],[2,2],'
        '[2,3]],"m":3,"n":3}},"census":[{"degree":0,"fiber_count":1,'
        '"standard_count":1},{"degree":1,"fiber_count":9,"standard_count":9},'
        '{"degree":2,"fiber_count":36,"standard_count":36},{"degree":3,'
        '"fiber_count":100,"standard_count":100}],"classification":'
        '{"block_diagonal":{"c":3,"perms":{"cols":[1,2,3],"rows":[1,2,3]},"r":2},'
        '"triangular":{"cols":[1,2,3],"rows":[1,2,3]}},"gb":{"checked_pairs":17,'
        '"failure":null,"pass":true,"skipped_coprime":19},"neither_witness":null}}',
    ),
    # Block diagonal only.
    "1100\n1100\n0011\n0011\n": (
        "class: block diagonal\n"
        "canonical form: 1100 / 1100 / 0000 / 0000\n"
        "gb: pass (checked 48 pairs, skipped 142 coprime)\n"
        "census degree 0: standard 1 fiber 1 balanced\n"
        "census degree 1: standard 16 fiber 16 balanced\n"
        "census degree 2: standard 116 fiber 116 balanced\n"
        "census degree 3: standard 544 fiber 544 balanced\n"
        "block reduction: 1100 / 1100 / 0000 / 0000  "
        "generators_match=True fibers_match=True\n",
        '{"command":"verify","payload":{"block_reduction":{"fibers_match":true,'
        '"generators_match":true,"reduced":{"cells":[[1,1],[1,2],[2,1],[2,2]],'
        '"m":4,"n":4}},"census":[{"degree":0,"fiber_count":1,"standard_count":1},'
        '{"degree":1,"fiber_count":16,"standard_count":16},{"degree":2,'
        '"fiber_count":116,"standard_count":116},{"degree":3,"fiber_count":544,'
        '"standard_count":544}],"classification":{"block_diagonal":{"c":2,'
        '"perms":{"cols":[1,2,3,4],"rows":[1,2,3,4]},"r":2},"triangular":null},'
        '"gb":{"checked_pairs":48,"failure":null,"pass":true,"skipped_coprime":142},'
        '"neither_witness":null}}',
    ),
    # Triangular only: a column-permuted staircase.
    "0111\n0011\n0001\n": (
        "class: triangular\n"
        "canonical form: 1110 / 1100 / 1000\n"
        "gb: pass (checked 8 pairs, skipped 20 coprime)\n"
        "census degree 0: standard 1 fiber 1 balanced\n"
        "census degree 1: standard 12 fiber 12 balanced\n"
        "census degree 2: standard 70 fiber 70 balanced\n"
        "census degree 3: standard 276 fiber 276 balanced\n",
        '{"command":"verify","payload":{"block_reduction":null,"census":[{"degree":0,'
        '"fiber_count":1,"standard_count":1},{"degree":1,"fiber_count":12,'
        '"standard_count":12},{"degree":2,"fiber_count":70,"standard_count":70},'
        '{"degree":3,"fiber_count":276,"standard_count":276}],"classification":'
        '{"block_diagonal":null,"triangular":{"cols":[4,3,2,1],"rows":[1,2,3]}},'
        '"gb":{"checked_pairs":8,"failure":null,"pass":true,"skipped_coprime":20},'
        '"neither_witness":null}}',
    ),
}


@pytest.mark.parametrize("grid", sorted(VERIFY_GOLDENS))
def test_verify_output_golden(tmp_path, capsys, grid):
    from subtoric import cli

    text, compact = VERIFY_GOLDENS[grid]
    path = write_subset(tmp_path, grid)
    assert cli.main(["verify", "--degree", "3", path]) == 0
    assert capsys.readouterr().out == text
    assert cli.main(["verify", "--degree", "3", "--json", path]) == 0
    expected = json.dumps(json.loads(compact), indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr().out == expected


# -------------------------------------------------------------------- fiber

def test_fiber_lists_tables(tmp_path):
    key = json.dumps({"rows": [1, 1], "cols": [1, 1], "s_sum": 2})
    proc = run_cli("fiber", "--key", key, "--json", write_subset(tmp_path, "11\n11\n"))
    assert proc.returncode == 0
    payload = payload_of(proc, "fiber")
    assert payload["size"] == 2
    assert payload["tables"] == [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]


def test_fiber_budget_exceeded_exits_3(tmp_path):
    key = json.dumps({"rows": [5, 5], "cols": [5, 5], "s_sum": 10})
    proc = run_cli("fiber", "--key", key, write_subset(tmp_path, "11\n11\n"))
    assert proc.returncode == 3


# --------------------------------------------------------------------- walk

def test_walk_summary_and_tv(tmp_path):
    start = tmp_path / "start.csv"
    start.write_text("1,0\n0,1\n")
    proc = run_cli(
        "walk",
        "--start",
        str(start),
        "--steps",
        "10000",
        "--seed",
        "9",
        "--tv",
        "--json",
        write_subset(tmp_path, "11\n11\n"),
    )
    assert proc.returncode == 0
    payload = payload_of(proc, "walk")
    assert payload["steps"] == 10000
    assert payload["seed"] == 9
    assert payload["distinct_tables"] == 2
    assert payload["tv"] < 0.05


def test_walk_reproducible_and_seed_sensitive(tmp_path):
    start = tmp_path / "start.csv"
    start.write_text("1,0\n0,1\n")
    path = write_subset(tmp_path, "11\n11\n")
    args = ("walk", "--start", str(start), "--steps", "500", "--json", path)
    a = run_cli(*args, "--seed", "4")
    b = run_cli(*args, "--seed", "4")
    c = run_cli(*args, "--seed", "5")
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


def test_fiber_and_walk_tv_on_1x1200(tmp_path):
    # 1200 cells is deeper than Python's default recursion limit.
    path = write_subset(tmp_path, "1" * 1200 + "\n")
    zero = json.dumps({"rows": [0], "cols": [0] * 1200, "s_sum": 0})
    proc = run_cli("fiber", "--key", zero, "--json", path)
    assert proc.returncode == 0
    assert payload_of(proc, "fiber")["size"] == 1
    start = tmp_path / "start.csv"
    start.write_text(",".join(["0"] * 1200) + "\n")
    proc = run_cli("walk", "--start", str(start), "--steps", "5", "--tv", path)
    assert proc.returncode == 0
    assert "distinct tables: 1\n" in proc.stdout
    assert proc.stdout.endswith("tv: 0.000000\n")


# The sample benchmark's two degree-6 starts: (subset grid, start CSV).
WALK_STARTS = {
    "full4": ("1111\n1111\n1111\n1111\n", "1,1,0,0\n0,1,1,0\n0,0,0,1\n1,0,0,0\n"),
    "stair5": (
        "11110\n11100\n11000\n10000\n00000\n",
        "1,0,0,0,0\n0,1,0,0,0\n0,0,1,0,0\n0,0,0,1,0\n1,0,0,0,1\n",
    ),
}
# sha256 over the stdout of every walk and every fiber of these starts, in
# the order run below, as the walk drawing through randrange and choice
# printed it.
WALK_DIGEST = "b840aa49bf2be0818d7e0a9bf80d515298d25ab2486684ec1965292f0c9f88d8"
FIBER_DIGEST = "6855860388c269c88e7de9888e1d54b4c3f172836b236597fe9faf634c4c19c4"


def test_walk_stdout_golden(tmp_path, capsys):
    from subtoric import cli

    digest = hashlib.sha256()
    for label, (grid, csv) in sorted(WALK_STARTS.items()):
        path = write_subset(tmp_path, grid, f"{label}.txt")
        start = write_subset(tmp_path, csv, f"{label}.csv")
        for seed in ("0", "1", "1401", "2147483647"):
            for steps in ("0", "1", "4000"):
                walk = ["walk", "--start", start, "--steps", steps, "--seed", seed]
                for extra in ((), ("--json",), ("--tv",), ("--tv", "--json")):
                    assert cli.main(walk + [*extra, path]) == 0
                    digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == WALK_DIGEST


def test_fiber_stdout_golden(tmp_path, capsys):
    from subtoric import cli
    from subtoric.fibers import table_from_csv
    from subtoric.tables import Subset, margins

    digest = hashlib.sha256()
    for label, (grid, csv) in sorted(WALK_STARTS.items()):
        path = write_subset(tmp_path, grid, f"{label}.txt")
        s = Subset.from_text(grid)
        key = margins(s, table_from_csv(csv)).to_json_dict()
        for extra in ((), ("--json",)):
            assert cli.main(["fiber", "--key", json.dumps(key), *extra, path]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == FIBER_DIGEST


# sha256 over `census --degree 4 --json` of all 70 + 252 4x4 and 5x5
# staircases, and over `verify --degree 4 --json` of every 5x5 two-block
# pattern, each with two seeded row and column shuffles, in the order
# run below, as the census that built each degree's sumset from the
# last one printed them.
CENSUS_DIGEST = "e3e4ea10abe76a9077fc6bf5e629ba79b9055af2fd45bf1b249b73b94fbdca87"
BLOCK_VERIFY_DIGEST = "57a79c1ee83bfad2ef4f9a9c2b369b9cd7f80e0b1752ae7d946923e6eac37f5d"


def test_census_stdout_golden(tmp_path, capsys):
    from subtoric import cli
    from util import staircases

    grids = [s.to_text() for n in (4, 5) for s in staircases(n, n)]
    assert len(grids) == 70 + 252
    digest = hashlib.sha256()
    path = tmp_path / "subset.txt"
    for grid in grids:
        path.write_text(grid)
        assert cli.main(["census", "--degree", "4", "--json", str(path)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == CENSUS_DIGEST


def test_block_verify_stdout_golden(tmp_path, capsys):
    import random

    from subtoric import cli
    from subtoric.tables import TableShape, block_pattern
    from util import random_perm_pair

    rng = random.Random(1501)
    digest = hashlib.sha256()
    path = tmp_path / "subset.txt"
    for r in range(1, 5):
        for c in range(1, 5):
            s = block_pattern(TableShape(5, 5), r, c)
            for _ in range(2):
                path.write_text(s.permuted(random_perm_pair(rng, 5, 5)).to_text())
                assert cli.main(["verify", "--degree", "4", "--json", str(path)]) == 0
                digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == BLOCK_VERIFY_DIGEST


def test_fiber_builds_only_the_chosen_output(monkeypatch, tmp_path, capsys):
    from subtoric import cli
    from subtoric.fibers import Fiber

    def refuse(*_args):
        raise AssertionError("built output the mode does not print")

    path = write_subset(tmp_path, "11\n11\n")
    key = json.dumps({"rows": [1, 1], "cols": [1, 1], "s_sum": 2})
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_table_inline", refuse)
        assert cli.main(["fiber", "--key", key, "--json", path]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["size"] == 2
    monkeypatch.setattr(Fiber, "to_json_dict", refuse)
    assert cli.main(["fiber", "--key", key, path]) == 0
    assert capsys.readouterr().out == "size: 2\n  0,1 / 1,0\n  1,0 / 0,1\n"


def test_walk_requires_start(tmp_path):
    proc = run_cli("walk", write_subset(tmp_path, "11\n11\n"))
    assert proc.returncode == 2


# ------------------------------------------------------------------- census

def test_census_balances_on_full_2x2(tmp_path):
    proc = run_cli(
        "census", "--degree", "2", "--json", write_subset(tmp_path, "11\n11\n")
    )
    assert proc.returncode == 0
    payload = payload_of(proc, "census")
    assert payload == [
        {"degree": 0, "standard_count": 1, "fiber_count": 1},
        {"degree": 1, "standard_count": 4, "fiber_count": 4},
        {"degree": 2, "standard_count": 9, "fiber_count": 9},
    ]


def test_census_text_marks_imbalance(tmp_path):
    proc = run_cli("census", "--degree", "3", write_subset(tmp_path, DIAG3))
    assert proc.returncode == 0
    assert "unbalanced" in proc.stdout


# -------------------------------------------------------------- exit codes

def test_bad_grid_exits_2(tmp_path):
    proc = run_cli("classify", write_subset(tmp_path, "1x\n00\n"))
    assert proc.returncode == 2
    assert proc.stderr


def test_bad_key_json_exits_2(tmp_path):
    proc = run_cli(
        "fiber", "--key", "{bad json", write_subset(tmp_path, "11\n11\n")
    )
    assert proc.returncode == 2


def assert_one_error_line(proc):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert [ln for ln in proc.stderr.splitlines() if ln.startswith("error: ")] == [
        proc.stderr.splitlines()[0]
    ]


@pytest.mark.parametrize(
    "key",
    [
        "{}",
        '{"rows":[1,1,0],"cols":[1,1,0]}',
        '{"rows":[1,1,0],"cols":[1,1,0],"s_sum":"1"}',
        '{"rows":[1.0,1,0],"cols":[1,1,0],"s_sum":1}',
        '{"rows":[1,1,0],"cols":[1,1,0],"s_sum":true}',
        '{"rows":1,"cols":[1],"s_sum":0}',
        "[1, 2]",
        '{"rows":[-1,1,0],"cols":[0,0,0],"s_sum":0}',
        '{"rows":[1,1,0],"cols":[-1,3,0],"s_sum":0}',
        '{"rows":[1,1,0],"cols":[1,1,0],"s_sum":3}',
        '{"rows":[1,1,0],"cols":[1,1,0],"s_sum":-1}',
    ],
)
def test_fiber_rejects_impossible_key(tmp_path, key):
    proc = run_cli("fiber", "--key", key, write_subset(tmp_path, STAIR3))
    assert_one_error_line(proc)


@pytest.mark.parametrize(
    "doc",
    [
        '{"m": "2", "n": 2, "cells": [[1, 2]]}',
        '{"m": 2.0, "n": 2, "cells": [[1, 2]]}',
        '{"m": true, "n": 2, "cells": [[1, 1]]}',
        '{"m": 2, "n": 2, "cells": [[1.5, 1]]}',
        '{"m": 2, "n": 2, "cells": [[1, 2, 1]]}',
    ],
)
@pytest.mark.parametrize("command", ["classify", "gens"])
def test_subset_json_must_hold_integers(tmp_path, doc, command):
    proc = run_cli(command, write_subset(tmp_path, doc, "s.json"))
    assert_one_error_line(proc)


def test_subset_json_naming_a_huge_shape_exits_2(tmp_path, capsys):
    # Refused before any mask is allocated, so this takes milliseconds.
    from subtoric import cli

    doc = '{"m": 100000, "n": 100000, "cells": []}'
    path = write_subset(tmp_path, doc, "s.json")
    for command in ("gens", "classify"):
        assert cli.main([command, path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == (
            "error: subset JSON shape 100000x100000 exceeds 10000 cells"
        )
        assert [ln for ln in lines if ln.startswith("error: ")] == lines[:1]


def test_subset_with_too_many_candidate_moves_exits_3(tmp_path, capsys):
    # 100x100 passes the JSON cell cap, but its 24,502,500 candidate moves
    # are refused before any is built, so this takes well under a second.
    from subtoric import cli

    path = write_subset(tmp_path, '{"m":100,"n":100,"cells":[]}', "s.json")
    for command in ("gens", "verify", "check-gb", "census"):
        assert cli.main([command, path]) == 3, command
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == (
            "budget exceeded: 24502500 candidate moves on 100x100 exceed budget 1000000"
        )
        assert len(lines) == 2 and lines[1].startswith("elapsed: ")
    assert cli.main(["classify", path]) == 0
    assert capsys.readouterr().out.endswith("class: both\n")


def test_full_grid_past_the_s_pair_ceiling_exits_3(tmp_path, capsys):
    # All 11,025 moves of a full 15x15 grid are kept, and 1,226,225 pairs
    # of them share a leading cell, so the check is refused before any
    # S-pair is reduced.
    from subtoric import cli

    cells = [[i, j] for i in range(1, 16) for j in range(1, 16)]
    path = write_subset(tmp_path, json.dumps({"m": 15, "n": 15, "cells": cells}), "s.json")
    for argv in (["check-gb"], ["check-gb", "--json"], ["verify", "--degree", "2"]):
        assert cli.main(argv + [path]) == 3, argv
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == (
            "budget exceeded: 1226225 S-pairs on 15x15 exceed budget 1000000"
        )
        assert len(lines) == 2 and lines[1].startswith("elapsed: ")


def test_subset_json_duplicate_cells_are_merged(tmp_path, capsys):
    # A subset is a set of cells: a cell listed twice counts once.
    from subtoric import cli

    once = write_subset(tmp_path, '{"m":2,"n":2,"cells":[[1,1]]}', "once.json")
    twice = write_subset(tmp_path, '{"m":2,"n":2,"cells":[[1,1],[1,1]]}', "twice.json")
    for argv in (["classify"], ["classify", "--json"], ["gens"], ["gens", "--json"]):
        outs = []
        for path in (once, twice):
            assert cli.main(argv + [path]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], argv


def test_walk_negative_steps_exits_2(tmp_path):
    start = tmp_path / "start.csv"
    start.write_text("1,0\n0,1\n")
    path = write_subset(tmp_path, "11\n11\n")
    for extra in ((), ("--tv",)):
        proc = run_cli("walk", "--start", str(start), "--steps", "-3", *extra, path)
        assert_one_error_line(proc)


def test_walk_beyond_the_step_ceiling_exits_3_before_any_step(tmp_path, capsys, monkeypatch):
    from subtoric import cli
    import subtoric.fibers as fibers_mod
    from subtoric.tables import MAX_WALK_STEPS

    class NoDraws:
        def Random(self, *_args):
            raise AssertionError("walked a step past the ceiling")

    monkeypatch.setattr(fibers_mod, "random", NoDraws())
    start = tmp_path / "start.csv"
    start.write_text("1,0\n0,1\n")
    path = write_subset(tmp_path, "11\n11\n")
    steps = str(MAX_WALK_STEPS + 1)
    for extra in ((), ("--tv",), ("--tv", "--json")):
        argv = ["walk", "--start", str(start), "--steps", steps, *extra, path]
        assert cli.main(argv) == 3, extra
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == (
            "budget exceeded: walk of 10000001 steps exceeds budget 10000000"
        )
        assert len(lines) == 2 and lines[1].startswith("elapsed: ")


def test_walk_tv_over_budget_fiber_exits_3_before_any_step(tmp_path, capsys, monkeypatch):
    from subtoric import cli
    import subtoric.fibers as fibers_mod
    import subtoric.tables as tables_mod

    class NoDraws:
        def Random(self, *_args):
            raise AssertionError("walked a step on an over-budget fiber")

    monkeypatch.setattr(fibers_mod, "random", NoDraws())
    path = write_subset(tmp_path, "11\n11\n")
    deep = write_subset(tmp_path, "4,0\n0,3\n", "deep.csv")
    wide = write_subset(tmp_path, "1,0\n0,1\n", "wide.csv")
    for start, message, max_fiber_size in (
        (deep, "fiber degree 7 exceeds budget 6", tables_mod.MAX_FIBER_SIZE),
        # The two-table fiber only goes over a one-table budget.
        (wide, "fiber exceeds budget size 1", 1),
    ):
        monkeypatch.setattr(tables_mod, "MAX_FIBER_SIZE", max_fiber_size)
        for extra in (("--tv",), ("--tv", "--json")):
            argv = ["walk", "--start", start, "--steps", "2000000", *extra, path]
            assert cli.main(argv) == 3, (message, extra)
            out, err = capsys.readouterr()
            assert out == ""
            lines = err.splitlines()
            assert lines[0] == f"budget exceeded: {message}"
            assert len(lines) == 2 and lines[1].startswith("elapsed: ")
    # The step ceiling still speaks first, and a negative length is still
    # a usage error.
    for steps, code, first in (
        ("10000001", 3, "budget exceeded: walk of 10000001 steps exceeds budget 10000000"),
        ("-1", 2, "error: walk length must be nonnegative, got -1"),
    ):
        assert cli.main(["walk", "--start", deep, "--steps", steps, "--tv", path]) == code
        assert capsys.readouterr().err.splitlines()[0] == first


def test_unknown_subcommand_exits_2():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_missing_subset_file_exits_2():
    proc = run_cli("classify", "/nonexistent/subset.txt")
    assert proc.returncode == 2


def test_verify_degree_beyond_budget_exits_3(tmp_path):
    proc = run_cli("verify", "--degree", "9", write_subset(tmp_path, STAIR3))
    assert proc.returncode == 3


def test_census_negative_degree_exits_2(tmp_path):
    proc = run_cli("census", "--degree", "-2", write_subset(tmp_path, STAIR3))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


def test_verify_negative_degree_exits_2(tmp_path):
    proc = run_cli("verify", "--degree", "-2", write_subset(tmp_path, STAIR3))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


def test_timing_goes_to_stderr_not_stdout(tmp_path):
    proc = run_cli("classify", "--json", write_subset(tmp_path, STAIR3))
    assert "elapsed" not in proc.stdout
    assert "elapsed" in proc.stderr


def test_main_builds_one_parser_and_keeps_usage_errors(tmp_path, capsys):
    from subtoric import cli

    path = write_subset(tmp_path, STAIR3)
    for _ in range(2):
        assert cli.main(["classify", path]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: subtoric verify [-h] [--json] [--degree DEGREE] subset" in err
        assert "error: the following arguments are required: subset" in err
    assert cli.build_parser() is cli.build_parser()


# sha256 over stdout and exit code of classify, classify --oracle, gens,
# check-gb, verify --degree 3 and census --degree 3, each as text and
# as --json, on the seeded random subsets of SWEEP_SEED, as the stdlib's
# json.dumps(indent=2, sort_keys=True) wrote them.
SWEEP_SEED = 1601
SWEEP_DIGEST = "56f07b77f4c42de366e9748d7a51fcf47a332ee127ec1546e6f89e0f1ff8302f"
SWEEP_COMMANDS = (
    ("classify",),
    ("classify", "--oracle"),
    ("gens",),
    ("check-gb",),
    ("verify", "--degree", "3"),
    ("census", "--degree", "3"),
)


def test_command_sweep_stdout_golden(tmp_path, capsys):
    import random

    from subtoric import cli
    from util import random_subset

    rng = random.Random(SWEEP_SEED)
    digest = hashlib.sha256()
    codes = []
    path = tmp_path / "subset.txt"
    for _ in range(40):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        path.write_text(random_subset(rng, m, n, rng.choice((0.3, 0.5, 0.7))).to_text())
        for command in SWEEP_COMMANDS:
            for extra in ((), ("--json",)):
                code = cli.main([*command, *extra, str(path)])
                codes.append((command[0], code))
                digest.update(f"{code}\n".encode())
                digest.update(capsys.readouterr().out.encode())
    assert ("check-gb", 1) in codes
    assert digest.hexdigest() == SWEEP_DIGEST


# sha256 over the repr of every Fiber.tables and of every
# WalkTrace.visit_counts (as its item list, so order counts), final table
# and acceptance count on the WALK_STARTS, as the fibers and walks that
# held a CellTable per table returned them.
OBJECTS_DIGEST = "6e9b8f3da3e2ea7c14ead1606122161bbbf47d9efc31f995e3160f18c5315ab3"


def test_walk_starts_objects_golden():
    from subtoric.fibers import enumerate_fiber, random_walk, table_from_csv
    from subtoric.ideal import build_generators
    from subtoric.tables import Subset, margins

    digest = hashlib.sha256()
    for label, (grid, csv) in sorted(WALK_STARTS.items()):
        s = Subset.from_text(grid)
        start = table_from_csv(csv)
        fiber = enumerate_fiber(s, margins(s, start))
        digest.update(repr(fiber.tables).encode())
        moves = build_generators(s)
        for seed in (0, 1, 1401):
            trace = random_walk(s, start, moves, 4000, seed)
            visits = list(trace.visit_counts.items())
            digest.update(repr((visits, trace.final, trace.accepted)).encode())
    assert digest.hexdigest() == OBJECTS_DIGEST


def test_sample_commands_build_no_table_objects(monkeypatch, tmp_path, capsys):
    # walk and walk --tv build only the start and the final CellTable, and
    # fiber --json builds none: fibers and visits stay flat up to stdout.
    from subtoric import cli
    from subtoric.fibers import table_from_csv
    from subtoric.tables import CellTable, Subset, margins

    keys = {
        label: json.dumps(margins(Subset.from_text(grid), table_from_csv(csv)).to_json_dict())
        for label, (grid, csv) in WALK_STARTS.items()
    }
    built = []
    original_post_init = CellTable.__post_init__

    def counted_post_init(self):
        built.append(self)
        original_post_init(self)

    monkeypatch.setattr(CellTable, "__post_init__", counted_post_init)
    for label, (grid, csv) in sorted(WALK_STARTS.items()):
        path = write_subset(tmp_path, grid, f"{label}.txt")
        start = write_subset(tmp_path, csv, f"{label}.csv")
        walk = ["walk", "--start", start, "--steps", "4000", "--seed", "1", path]
        for extra in ((), ("--tv",), ("--json",), ("--tv", "--json")):
            built.clear()
            assert cli.main(walk + list(extra)) == 0
            assert len(built) <= 2
        capsys.readouterr()
        built.clear()
        assert cli.main(["fiber", "--key", keys[label], "--json", path]) == 0
        assert built == []
        assert json.loads(capsys.readouterr().out)["payload"]["size"] > 1


# Quotes, backslashes, control characters and non-ASCII text, astral too.
_JSON_TEXT = (
    '"', "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
    "a", "Z", " ", "\u00e9", "\u00df", "\u4e2d", "\u2028", "\U0001f600",
)


def _random_json_doc(rng, depth):
    kind = rng.randrange(6 if depth else 4)
    if kind == 0:
        return rng.choice(
            (0, 1, -1, 2**70, -(2**70), rng.randint(-10**6, 10**6), True, False, None)
        )
    if kind == 1:
        return rng.choice((0.0, -0.0, 1e-7, 1e22, float("inf"), rng.random()))
    if kind == 2:
        return "".join(rng.choice(_JSON_TEXT) for _ in range(rng.randrange(6)))
    if kind == 3:
        return rng.choice(([], (), {}))
    if kind == 4:
        items = [_random_json_doc(rng, depth - 1) for _ in range(rng.randrange(5))]
        return items if rng.random() < 0.5 else tuple(items)
    return {
        "".join(rng.choice(_JSON_TEXT) for _ in range(rng.randrange(4))):
        _random_json_doc(rng, depth - 1)
        for _ in range(rng.randrange(5))
    }


def test_json_writer_matches_stdlib_indent_encoder():
    import random

    from subtoric.cli import _write_json

    rng = random.Random(1602)
    docs = [[True, False, 1, None], {"tv": 0.123456789, "b": True, "a": [()]}]
    docs += [_random_json_doc(rng, 4) for _ in range(400)]
    for doc in docs:
        out: list[str] = []
        _write_json(doc, "", out)
        assert "".join(out) == json.dumps(doc, indent=2, sort_keys=True)
