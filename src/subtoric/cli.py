"""Command-line surface: classify subsets, list moves, certify bases,
enumerate fibers, walk them, and run the census.

Output goes to stdout as text, or as a stable JSON envelope
{"command": ..., "payload": ...} with --json; timing and error
diagnostics go to stderr.  Exit codes: 0 success, 1 a mathematical
check failed, 2 bad input, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from subtoric.binomials import MonomialOrder
from subtoric.fibers import (
    check_walk_steps,
    enumerate_fiber,
    initial_ideal_census,
    random_walk,
    table_from_csv,
    walk_tv,
)
from subtoric.ideal import build_generators, move_keys, quadratic_gb_check
from subtoric.tables import (
    BudgetError,
    Margins,
    Subset,
    _load_json,
    classify,
    classify_oracle,
    margins,
)
from subtoric.verify import VerificationError, verify_subset


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _load_subset(path: str) -> Subset:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return Subset.from_json(text)
    return Subset.from_text(text)


def _write_json(o, pad: str, out: list) -> None:
    """Append o to out as json.dumps(o, indent=2, sort_keys=True) writes
    it, nested at indent pad.  Dicts (with string keys), lists, tuples,
    strings and ints are written here; anything else goes through
    json.dumps.  The stdlib writes indented JSON with its pure-Python
    encoder, which is several times slower."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif type(o) is int:
        out.append(int.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = pad + "  "
        out.append("[\n" + inner)
        sep = ",\n" + inner
        first = True
        for item in o:
            if first:
                first = False
            else:
                out.append(sep)
            if type(item) is int:  # most leaves: table entries
                out.append(int.__repr__(item))
            else:
                _write_json(item, inner, out)
        out.append("\n" + pad + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = pad + "  "
        out.append("{\n" + inner)
        sep = ",\n" + inner
        first = True
        for key, value in sorted(o.items()):
            if first:
                first = False
            else:
                out.append(sep)
            out.append(encode_basestring_ascii(key) + ": ")
            _write_json(value, inner, out)
        out.append("\n" + pad + "}")
    else:
        out.append(json.dumps(o))


def _emit(args, command: str, payload, text_lines: Sequence[str]) -> None:
    if args.json:
        out: list[str] = []
        _write_json({"command": command, "payload": payload}, "", out)
        out.append("\n")
        sys.stdout.write("".join(out))
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _class_name(triangular: bool, block: bool) -> str:
    if triangular and block:
        return "both"
    if triangular:
        return "triangular"
    if block:
        return "block diagonal"
    return "neither"


def _grid_inline(s: Subset) -> str:
    return " / ".join(s.to_text().splitlines())


def _table_inline(entries) -> str:
    return " / ".join(",".join(str(e) for e in row) for row in entries)


def _cmd_classify(args) -> int:
    s = _load_subset(args.subset)
    res = classify_oracle(s) if args.oracle else classify(s)
    lines = []
    if res.triangular is not None:
        w = res.triangular
        lines.append(
            f"triangular: yes  row_perm={list(w.row_perm)} col_perm={list(w.col_perm)}"
        )
    else:
        lines.append("triangular: no")
    if res.block_diagonal is not None:
        b = res.block_diagonal
        lines.append(f"block diagonal: yes  r={b.r} c={b.c}")
    else:
        lines.append("block diagonal: no")
    lines.append(
        f"class: {_class_name(res.triangular is not None, res.block_diagonal is not None)}"
    )
    _emit(args, "classify", res.to_json_dict(), lines)
    return 0


def _cmd_gens(args) -> int:
    s = _load_subset(args.subset)
    gset = build_generators(s)
    lines = [f"generators: {len(gset)}"]
    if not args.json:
        # Under the bottom-row lex order the antidiagonal always leads.
        lines += [
            f"  {q.as_tuple}  x{q.i}{q.ell}*x{q.j}{q.k}-x{q.i}{q.k}*x{q.j}{q.ell}"
            for q in gset
        ]
    payload = {
        "count": len(gset),
        "generators": [list(q.as_tuple) for q in gset],
    }
    _emit(args, "gens", payload, lines)
    return 0


def _cmd_check_gb(args) -> int:
    s = _load_subset(args.subset)
    order = MonomialOrder(s.shape)
    # Under this order the antidiagonal leads every move.
    report = quadratic_gb_check(s, move_keys(build_generators(s), order), order)
    lines = [
        f"pass: {'true' if report.passed else 'false'}",
        f"checked_pairs: {report.checked_pairs}",
        f"skipped_coprime: {report.skipped_coprime}",
    ]
    if report.failure is not None:
        f = report.failure
        lines.append(f"failure: pair ({f.i},{f.j}) remainder {f.remainder}")
    _emit(args, "check-gb", report.to_json_dict(), lines)
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    s = _load_subset(args.subset)
    rep = verify_subset(s, args.degree)
    tri = rep.classification.triangular is not None
    blk = rep.classification.block_diagonal is not None
    lines = [f"class: {_class_name(tri, blk)}"]
    if rep.canonical is not None:
        lines.append(f"canonical form: {_grid_inline(rep.canonical)}")
    if rep.gb is not None:
        lines.append(
            f"gb: pass (checked {rep.gb.checked_pairs} pairs, "
            f"skipped {rep.gb.skipped_coprime} coprime)"
        )
    if rep.census is not None:
        for r in rep.census:
            tag = "balanced" if r.balanced else "unbalanced"
            lines.append(
                f"census degree {r.degree}: standard {r.standard_count} "
                f"fiber {r.fiber_count} {tag}"
            )
    if rep.block_reduction is not None:
        br = rep.block_reduction
        lines.append(
            f"block reduction: {_grid_inline(br.reduced)}  "
            f"generators_match={br.generators_match} fibers_match={br.fibers_match}"
        )
    if rep.neither_witness is not None:
        w = rep.neither_witness
        lines.append(
            f"disconnected fiber at degree {w.key.degree}: "
            f"rows={list(w.key.row_sums)} cols={list(w.key.col_sums)} "
            f"s_sum={w.key.in_sum} size={w.size}"
        )
    elif not (tri or blk):
        lines.append(
            f"no disconnected fiber found up to degree {rep.max_degree}"
        )
    _emit(args, "verify", rep.to_json_dict(), lines)
    return 0


def _cmd_fiber(args) -> int:
    s = _load_subset(args.subset)
    key = Margins.from_json_dict(_load_json(args.key))
    fiber = enumerate_fiber(s, key)
    if args.json:
        _emit(args, "fiber", fiber.to_json_dict(), ())
    else:
        lines = [f"size: {fiber.size}"]
        lines += [f"  {_table_inline(rows)}" for rows in fiber.table_rows()]
        _emit(args, "fiber", None, lines)
    return 0


def _cmd_walk(args) -> int:
    s = _load_subset(args.subset)
    start = table_from_csv(_read_text(args.start))
    moves = build_generators(s)
    fiber = None
    if args.tv:
        # An over-budget fiber is refused before the first step, after
        # the step count.
        check_walk_steps(args.steps)
        fiber = enumerate_fiber(s, margins(s, start))
    trace = random_walk(s, start, moves, args.steps, args.seed)
    payload = trace.to_json_dict()
    lines = [
        f"seed: {trace.seed}",
        f"steps: {trace.steps}",
        f"distinct tables: {len(trace.flat_counts)}",
        f"final: {_table_inline(trace.final.entries)}",
    ]
    if fiber is not None:
        tv = walk_tv(fiber, trace)
        payload["tv"] = tv
        lines.append(f"tv: {tv:.6f}")
    _emit(args, "walk", payload, lines)
    return 0


def _cmd_census(args) -> int:
    s = _load_subset(args.subset)
    order = MonomialOrder(s.shape)
    rows = initial_ideal_census(s, build_generators(s), order, args.degree)
    lines = []
    for r in rows:
        tag = "balanced" if r.balanced else "unbalanced"
        lines.append(
            f"degree {r.degree}: standard {r.standard_count} "
            f"fiber {r.fiber_count} {tag}"
        )
    _emit(args, "census", [r.to_json_dict() for r in rows], lines)
    return 0


_HANDLERS = {
    "classify": _cmd_classify,
    "gens": _cmd_gens,
    "check-gb": _cmd_check_gb,
    "verify": _cmd_verify,
    "fiber": _cmd_fiber,
    "walk": _cmd_walk,
    "census": _cmd_census,
}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="subtoric",
        description="Classify subset patterns of two-way tables and certify "
        "their quadratic move bases, fibers, and walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument(
            "subset",
            help="subset file (grid of 0/1 lines, or JSON), - for stdin",
        )
        sp.add_argument(
            "--json", action="store_true", help="emit a JSON envelope"
        )
        return sp

    c = add("classify", "recognize triangular / block-diagonal patterns")
    c.add_argument(
        "--oracle",
        action="store_true",
        help="use the exhaustive permutation oracle instead of fast recognition",
    )
    add("gens", "list the quadratic move generators")
    add("check-gb", "run Buchberger's criterion on the raw generators")
    v = add("verify", "classify and certify everything the class promises")
    v.add_argument("--degree", type=int, default=4, help="fiber degree bound")
    f = add("fiber", "enumerate one fiber")
    f.add_argument(
        "--key",
        required=True,
        help='margin key JSON, e.g. {"rows":[1,1],"cols":[1,1],"s_sum":2}',
    )
    w = add("walk", "random-walk a fiber with the generator moves")
    w.add_argument("--start", required=True, help="CSV table file, - for stdin")
    w.add_argument("--steps", type=int, default=1000)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument(
        "--tv",
        action="store_true",
        help="also report total-variation distance from uniform",
    )
    ce = add("census", "standard monomials versus fibers, per degree")
    ce.add_argument("--degree", type=int, default=4, help="census degree bound")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        return _HANDLERS[args.command](args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        print(
            f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr
        )


if __name__ == "__main__":
    sys.exit(main())
