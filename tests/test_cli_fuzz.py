"""Seeded fuzz of the command line, run in process through ``cli.main``.

Generated argv, subset files, start tables and margin keys, valid and
malformed, must each end with exit 0, 1, 2 or 3 and the stderr contract
of the CLI: one ``error:``, ``budget exceeded:`` or ``verification
failed:`` line then ``elapsed:``, or argparse's usage block; never a
traceback.  Inputs stay at 4x4 and degree 5 or below, apart from a few
fixed extreme shapes that are refused before any work.
"""

from __future__ import annotations

import io
import json
import random
import sys

import pytest

from subtoric import cli

SEED = 1717
CASES = 1500

COMMANDS = ("classify", "gens", "check-gb", "verify", "fiber", "walk", "census")
# The first line of stderr for each exit code; exit 0, and check-gb's
# exit 1 on a failed check, print only the elapsed line.
FIRST_LINE = {1: "verification failed: ", 2: "error: ", 3: "budget exceeded: "}

_JUNK = ("x", "2", " ", "\t", "-", "\u00e9", "\x00", "1.0", "\ufeff")


def _shape(rng):
    return rng.randint(1, 4), rng.randint(1, 4)


def _grid_text(rng, m, n):
    rows = ["".join(rng.choice("01") for _ in range(n)) for _ in range(m)]
    kind = rng.randrange(10)
    if kind == 0:  # ragged
        rows.append("1" * (n + 1))
    elif kind == 1:  # a character other than 0 or 1
        r = rng.randrange(m)
        pos = rng.randrange(n + 1)
        rows[r] = rows[r][:pos] + rng.choice(_JUNK) + rows[r][pos:]
    elif kind == 2:  # no rows at all
        rows = rng.choice(([], ["# only a comment"], ["", "   "]))
    elif kind == 3:  # comments, blank lines and padding, all skipped
        rows = ["# subset", ""] + [f"  {r}  " for r in rows] + ["", "# end"]
    return rng.choice(("\n", "\r\n")).join(rows) + rng.choice(("", "\n"))


def _subset_json(rng, m, n):
    cells = [[rng.randint(1, m), rng.randint(1, n)] for _ in range(rng.randrange(m * n + 1))]
    doc = {"m": m, "n": n, "cells": cells}
    kind = rng.randrange(12)
    if kind == 0:
        doc[rng.choice(("m", "n"))] = rng.choice(
            ("2", 2.0, True, None, [2], -1, 0, 10**30, 100_000)
        )
    elif kind == 1 and cells:
        cells[0] = rng.choice(([1], [1, 2, 3], ["1", 1], [1.5, 1], [0, 1], [m + 1, 1], 7, "ab", {}))
    elif kind == 2:
        del doc[rng.choice(("m", "n", "cells"))]
    elif kind == 3:
        doc["cells"] = rng.choice((5, None, "11", {"1": 1}))
    text = json.dumps(doc)
    if kind == 4:
        text = text[: rng.randrange(1, len(text))]
    elif kind == 5:
        depth = rng.choice((50, 5000, 200_000))
        text = '{"m": ' + "[" * depth + "]" * depth + "}"
    return text


def _subset_text(rng, m, n):
    kind = rng.randrange(20)
    if kind == 0:  # extreme shapes, refused before any move is built
        return rng.choice((
            '{"m": 100, "n": 100, "cells": []}',
            '{"m": 100000, "n": 100000, "cells": []}',
            '{"m": 1, "n": 40, "cells": [[1, 1]]}',
        ))
    return _subset_json(rng, m, n) if kind < 8 else _grid_text(rng, m, n)


def _table_rows(rng, m, n):
    return [[rng.choice((0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(m)]


def _csv_text(rng, m, n):
    rows = _table_rows(rng, m, n)
    kind = rng.randrange(10)
    lines = [",".join(map(str, r)) for r in rows]
    if kind == 0:
        lines[0] = lines[0].replace("0", "-1", 1) if "0" in lines[0] else "-1" + lines[0][1:]
    elif kind == 1:
        lines.append("1" + ",1" * n)
    elif kind == 2:
        lines[0] = rng.choice(("1e3", "a,b", "1;2", ",", "1,,2", "\u0661,0", " 1 , 0 "))
    elif kind == 3:
        lines = rng.choice(([], [""], ["   "]))
    elif kind == 4:  # another shape than the subset's
        lines = [",".join(["1"] * (n + 1))] * m
    elif kind == 5:
        lines[0] = ",".join(["1000000"] * n)
    return "\n".join(lines) + "\n"


def _key_text(rng, m, n):
    rows = _table_rows(rng, m, n)
    key = {
        "rows": [sum(r) for r in rows],
        "cols": [sum(c) for c in zip(*rows)],
        "s_sum": rng.randint(0, sum(map(sum, rows))),
    }
    kind = rng.randrange(14)
    if kind == 0:
        key["rows"] = key["rows"] + [1]
    elif kind == 1:
        key["cols"] = key["cols"][:-1] or [3]
    elif kind == 2:
        key[rng.choice(("rows", "cols", "s_sum"))] = rng.choice(
            (None, True, 1.5, "1", -1, [-1], [True], 10**30, [10**30], {})
        )
    elif kind == 3:
        del key[rng.choice(("rows", "cols", "s_sum"))]
    elif kind == 4:
        key["s_sum"] = sum(key["rows"]) + 1
    elif kind == 5:
        key = rng.choice(([], 3, "key", None))
    elif kind == 6:
        return rng.choice(("", "{", "NaN", "[" * 200_000, '{"rows": 1e400}', "\x00"))
    elif kind == 7:  # past MAX_DEGREE
        key = {"rows": [7] + [0] * (m - 1), "cols": [7] + [0] * (n - 1), "s_sum": 0}
    return json.dumps(key)


def _argv(rng, tmp_path, stdin):
    """One argv, its files written under tmp_path; stdin text goes to stdin."""
    command = "frobnicate" if rng.random() < 0.01 else rng.choice(COMMANDS)
    m, n = _shape(rng)

    def path_for(name, text):
        kind = rng.randrange(25)
        if kind == 0:
            return str(tmp_path / "missing")
        if kind == 1:
            return str(tmp_path)
        if kind == 2:
            stdin.append(text)
            return "-"
        p = tmp_path / name
        if kind == 3:
            p.write_bytes(b"\xff\xfe1\x80\n")
        else:
            p.write_text(text, encoding="utf-8")
        return str(p)

    # The subset, start table and key share a shape, so most runs get past
    # parsing and do the work.
    argv = [command, path_for("subset.txt", _subset_text(rng, m, n))]
    if command in ("verify", "census"):
        if rng.random() < 0.9:
            argv += ["--degree", str(rng.choice((-2, -1, 0, 1, 2, 3, 4, 5, 7, 99, 10**20, "x", "2.5")))]
    if command == "classify" and rng.random() < 0.5:
        argv.append("--oracle")
    if command == "fiber" and rng.random() < 0.95:
        argv += ["--key", _key_text(rng, m, n)]
    if command == "walk":
        if rng.random() < 0.95:
            argv += ["--start", path_for("start.csv", _csv_text(rng, m, n))]
        if rng.random() < 0.8:
            argv += ["--steps", str(rng.choice((-3, 0, 1, 50, 2000, 10_000_001, 10**20, "x")))]
        if rng.random() < 0.5:
            argv += ["--seed", str(rng.choice((0, 1, -5, 2**70, "x")))]
        if rng.random() < 0.5:
            argv.append("--tv")
    if rng.random() < 0.5:
        argv.append("--json")
    if rng.random() < 0.03:
        argv.append(rng.choice(("--bogus", "--degree", "extra")))
    if rng.random() < 0.05:
        tail = argv[1:]
        rng.shuffle(tail)
        argv[1:] = tail
    return argv


def _check_run(argv, code, out, err):
    lines = err.splitlines()
    assert "Traceback" not in err
    if code is None:  # argparse left through SystemExit(2)
        assert out == ""
        assert lines[0].startswith("usage: subtoric")
        assert lines[-1].startswith("subtoric") and ": error: " in lines[-1]
        return
    assert code in (0, 1, 2, 3)
    assert lines[-1].startswith("elapsed: ") and lines[-1].endswith("s")
    if len(lines) == 2:
        assert lines[0].startswith(FIRST_LINE[code])
    else:
        assert len(lines) == 1
        assert code == 0 or (code == 1 and argv[0] == "check-gb")
    if code in (2, 3):
        assert out == ""
    elif "--json" in argv:
        assert json.loads(out)["command"] == argv[0]
    else:
        assert out.endswith("\n")


def test_cli_fuzz_keeps_exit_codes_and_stderr_lines(tmp_path, monkeypatch, capsys):
    rng = random.Random(SEED)
    codes = []
    for case in range(CASES):
        run_dir = tmp_path / str(case)
        run_dir.mkdir()
        stdin: list[str] = []
        argv = _argv(rng, run_dir, stdin)
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(stdin)))
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            code = None
        out, err = capsys.readouterr()
        try:
            _check_run(argv, code, out, err)
        except AssertionError as exc:
            raise AssertionError(f"{argv!r} -> {code}: {err!r}") from exc
        codes.append(code)
    # The sweep reaches every outcome, so none of them goes untested.
    for code in (None, 0, 1, 2, 3):
        assert codes.count(code) >= 10, (code, codes.count(code))


@pytest.mark.parametrize("where", ["subset", "key"])
def test_deeply_nested_json_is_bad_input_not_a_traceback(tmp_path, capsys, where):
    # json.loads raises RecursionError, not ValueError, on nesting deeper
    # than the interpreter's recursion limit.
    deep = "[" * 200_000 + "]" * 200_000
    subset = tmp_path / "s.json"
    if where == "subset":
        subset.write_text('{"m": ' + deep + "}")
        argv = ["classify", str(subset)]
    else:
        subset.write_text("11\n11\n")
        argv = ["fiber", "--key", deep, str(subset)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == "error: JSON nested too deeply"
    assert len(lines) == 2 and lines[1].startswith("elapsed: ")
