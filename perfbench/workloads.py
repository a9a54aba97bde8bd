"""The four benchmark workloads: seeded inputs, one op each, and checks.

A workload hands out passes.  A pass is a list of items drawn from one
seeded generator; the runner times ``run(api, item)`` for each item and
then, untimed, calls ``check(item, output, seen)``, which returns the
op's correctness fingerprint and a list of problems (empty when the
output is right).  ``seen`` is shared by the items of one pass.

Op costs depend strongly on the input, so inputs are stratified by
their number of kept quadratic moves (counted by ``checks``, not by the
package): each pass draws one pattern per stratum, a stratum holding
every pattern whose count equals a fixed target.  The seed picks the
pattern within each stratum, its row/column permutation and the order,
so every pass costs nearly the same whatever the seed.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import checks


def pass_rng(seed: int, k: int) -> random.Random:
    return random.Random(f"subtoric-bench:{seed}:{k}")


def permute_mask(mask, rng: random.Random):
    m, n = len(mask), len(mask[0])
    rows, cols = list(range(m)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    out = [[False] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            out[rows[i]][cols[j]] = mask[i][j]
    return tuple(tuple(r) for r in out)


def staircase_catalog(m: int, n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(kept move count, row lengths) of every m x n staircase, ascending."""
    out = []

    def rec(prev: int, lengths: tuple[int, ...]) -> None:
        if len(lengths) == m:
            out.append((checks.staircase_generator_count(lengths, n), lengths))
            return
        for w in range(prev, -1, -1):
            rec(w, lengths + (w,))

    rec(n, ())
    out.sort()
    return out


def strata(catalog: list, quantiles) -> list[list]:
    """For each quantile q of a catalog sorted by kept move count, every
    entry sharing the count found at rank q."""
    out = []
    for q in quantiles:
        g = catalog[min(len(catalog) - 1, int(q * len(catalog)))][0]
        out.append([entry for entry in catalog if entry[0] == g])
    return out


def block_mask(m: int, n: int, r: int, c: int):
    return tuple(
        tuple((i < r and j < c) or (i >= r and j >= c) for j in range(n)) for i in range(m)
    )


def make_subset(st, mask):
    return st.Subset(st.TableShape(len(mask), len(mask[0])), mask)


def flags_of(cls) -> tuple[bool, bool]:
    return cls.triangular is not None, cls.block_diagonal is not None


@lru_cache(maxsize=None)
def _standard_counts(mask, max_degree: int) -> list[int]:
    return checks.standard_counts(mask, max_degree)


@lru_cache(maxsize=None)
def _fiber_size(mask, key) -> int:
    return checks.fiber_size(mask, *key)


def check_certified(rep, max_degree: int, problems: list[str]):
    """Checks on the Buchberger and census parts of a report for a
    classified subset; returns their fingerprint."""
    canon = rep.canonical.mask if rep.canonical is not None else None
    if canon is None or not checks.is_staircase(canon):
        problems.append("certified form is not a staircase in place")
        return None
    gb = rep.gb
    kept = len(checks.kept_quads(canon))
    if not gb.passed or gb.failure is not None:
        problems.append("Buchberger check failed on a staircase")
    if gb.checked_pairs + gb.skipped_coprime != comb(kept, 2):
        problems.append(
            f"pairs {gb.checked_pairs}+{gb.skipped_coprime} != C({kept},2)"
        )
    rows = tuple((r.degree, r.standard_count, r.fiber_count) for r in rep.census)
    expect = _standard_counts(canon, max_degree)
    if [r[0] for r in rows] != list(range(max_degree + 1)):
        problems.append(f"census degrees {[r[0] for r in rows]}")
    for d, std, fib in rows:
        if std != fib:
            problems.append(f"census degree {d} unbalanced: {std} vs {fib}")
        elif d < len(expect) and std != expect[d]:
            problems.append(f"census degree {d}: {std} standard, expected {expect[d]}")
    return (gb.passed, gb.checked_pairs, gb.skipped_coprime, rows)


def check_report(mask, rep, max_degree: int, flags, problems: list[str]):
    """Checks on a verify_subset report whose class flags are known."""
    if flags_of(rep.classification) != flags:
        problems.append(f"class flags {flags_of(rep.classification)}, expected {flags}")
        return None
    tri, blk = flags
    certified = witness = None
    if tri or blk:
        certified = check_certified(rep, max_degree, problems)
        if rep.neither_witness is not None:
            problems.append("classified subset reported a disconnected fiber")
    if blk:
        br = rep.block_reduction
        if br is None or not (br.generators_match and br.fibers_match):
            problems.append("block reduction missing or mismatched")
    if not (tri or blk) and rep.neither_witness is not None:
        w = rep.neither_witness
        key = (tuple(w.key.row_sums), tuple(w.key.col_sums), w.key.in_sum)
        tables = [t.entries for t in w.tables]
        if w.key.degree > max_degree or w.size < 2:
            problems.append(f"witness of degree {w.key.degree} and size {w.size}")
        if any(checks.table_margins(mask, t) != key for t in tables):
            problems.append("witness table outside its fiber")
        if len(set(tables)) != w.size or w.size != _fiber_size(mask, key):
            problems.append("witness fiber is not the whole fiber")
        if checks.component_count(mask, tables) < 2:
            problems.append("witness fiber is connected")
        witness = (key, w.size)
    return (flags, certified, witness)


@dataclass(frozen=True)
class Item:
    subset: object
    mask: tuple
    flags: tuple[bool, bool] = (False, False)


class VerifyWorkload:
    """Ops that call verify_subset on subsets of known class."""

    max_degree: int

    def prepare(self, env) -> None:
        pass

    def run(self, api, item: Item):
        return api.verify_subset(item.subset, max_degree=self.max_degree)

    def check(self, item: Item, out, seen):
        problems: list[str] = []
        return check_report(item.mask, out, self.max_degree, item.flags, problems), problems


def staircase_item(st, lengths, n: int, rng: random.Random) -> Item:
    mask = permute_mask(checks.staircase_mask(lengths, n), rng)
    return Item(make_subset(st, mask), mask, (True, checks.is_two_block(mask)))


@dataclass(frozen=True)
class Certify(VerifyWorkload):
    """Permuted staircases and two-block patterns on one square grid."""

    name: str = "certify"
    side: int = 5
    max_degree: int = 4
    staircase_quantiles: tuple = (0.125, 0.375, 0.625, 0.875)
    block_quantiles: tuple = (0.125, 0.625)

    @property
    def warm(self):
        return ((self.side, self.side, self.max_degree),)

    def make_pass(self, env, rng: random.Random) -> list[Item]:
        n = self.side
        items = [
            staircase_item(env.st, rng.choice(stratum)[1], n, rng)
            for stratum in strata(staircase_catalog(n, n), self.staircase_quantiles)
        ]
        blocks = sorted(
            (len(checks.kept_quads(block_mask(n, n, r, c))), r, c)
            for r in range(1, n)
            for c in range(1, n)
        )
        for stratum in strata(blocks, self.block_quantiles):
            _g, r, c = rng.choice(stratum)
            mask = permute_mask(block_mask(n, n, r, c), rng)
            items.append(
                Item(make_subset(env.st, mask), mask, (checks.is_triangular(mask), True))
            )
        rng.shuffle(items)
        return items


@dataclass(frozen=True)
class Groebner(VerifyWorkload):
    """Permuted large staircases at shallow degree, from the light end of
    each size's catalog so that one op stays near a few seconds."""

    name: str = "groebner"
    max_degree: int = 2
    sizes: tuple = ((6, (0.02, 0.1, 0.2)), (7, (0.02, 0.06)))  # (side, quantiles)

    @property
    def warm(self):
        return tuple((n, n, self.max_degree) for n, _q in self.sizes)

    def make_pass(self, env, rng: random.Random) -> list[Item]:
        items = [
            staircase_item(env.st, rng.choice(stratum)[1], n, rng)
            for n, quantiles in self.sizes
            for stratum in strata(staircase_catalog(n, n), quantiles)
        ]
        rng.shuffle(items)
        return items


# Kept move counts drawn once per pass, per side: the midpoints of eight
# equal bands below the 70th percentile of density-0.5 subsets.  Above
# it the hunt's cost swings tenfold with where the witness fiber sits in
# key order, and a run holds too few such ops to average that out.
EXPLORE_TARGETS = {
    3: (2, 3, 5),
    4: (9, 10, 11, 12, 12, 13, 14, 15),
    5: (29, 31, 32, 33, 35, 36, 37, 38),
}


@dataclass(frozen=True)
class Explore:
    """classify, the oracle, then verify_subset on random subsets."""

    name: str = "explore"
    sides: tuple = (4, 5)
    density: float = 0.5
    max_degree: int = 3
    targets: tuple = (EXPLORE_TARGETS[4], EXPLORE_TARGETS[5])

    @property
    def warm(self):
        return tuple((n, n, self.max_degree) for n in self.sides)

    def prepare(self, env) -> None:
        pass

    def draw(self, n: int, kept: int, rng: random.Random):
        """A density-p subset with exactly `kept` kept moves."""
        for _ in range(100_000):
            mask = tuple(
                tuple(rng.random() < self.density for _ in range(n)) for _ in range(n)
            )
            if len(checks.kept_quads(mask)) == kept:
                return mask
        raise ValueError(f"no {n}x{n} subset with {kept} kept moves drawn")

    def make_pass(self, env, rng: random.Random) -> list[Item]:
        by_side = []
        for n, targets in zip(self.sides, self.targets):
            masks = [self.draw(n, kept, rng) for kept in targets]
            rng.shuffle(masks)
            by_side.append(masks)
        # Alternate the sides: 4x4, 5x5, 4x4, ...
        return [
            Item(make_subset(env.st, mask), mask)
            for group in zip(*by_side)
            for mask in group
        ]

    def run(self, api, item: Item):
        return (
            api.classify(item.subset),
            api.classify_oracle(item.subset),
            api.verify_subset(item.subset, max_degree=self.max_degree),
        )

    def check(self, item: Item, out, seen):
        problems: list[str] = []
        cls, oracle, rep = out
        flags = flags_of(cls)
        if flags_of(oracle) != flags:
            problems.append(f"oracle flags {flags_of(oracle)} != classify flags {flags}")
        return check_report(item.mask, rep, self.max_degree, flags, problems), problems


@dataclass(frozen=True)
class Start:
    """A start table on a subset pattern, both as row tuples."""

    label: str
    mask: tuple
    table: tuple


def _full(n: int):
    return tuple(tuple(True for _ in range(n)) for _ in range(n))


SAMPLE_STARTS = (
    Start(
        "full4",
        _full(4),
        ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0)),
    ),
    Start(
        "stair5",
        checks.staircase_mask((4, 3, 2, 1, 0), 5),
        ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 0, 0, 0, 1)),
    ),
)


@dataclass(frozen=True)
class CliItem:
    start: Start
    kind: str  # "walk", "walk-tv" or "fiber"
    argv: tuple
    walk_seed: int = 0


def parse_table(text: str) -> tuple:
    return tuple(tuple(int(v) for v in row.split(",")) for row in text.split(" / "))


@dataclass(frozen=True)
class Sample:
    """subtoric.cli.main in-process: walk, walk --tv and fiber --json."""

    name: str = "sample"
    steps: int = 4000
    starts: tuple = SAMPLE_STARTS
    warm: tuple = ()

    def prepare(self, env) -> None:
        """Write each start's subset grid and table CSV for the argv."""
        work_dir = env.work_dir
        work_dir.mkdir(parents=True, exist_ok=True)
        for s in self.starts:
            grid = "\n".join("".join("1" if v else "0" for v in row) for row in s.mask)
            (work_dir / f"{s.label}.subset").write_text(grid + "\n", encoding="utf-8")
            csv = "".join(",".join(str(e) for e in row) + "\n" for row in s.table)
            (work_dir / f"{s.label}.csv").write_text(csv, encoding="utf-8")

    def make_pass(self, env, rng: random.Random) -> list[CliItem]:
        work_dir = env.work_dir
        items = []
        for s in self.starts:
            subset, start = str(work_dir / f"{s.label}.subset"), str(work_dir / f"{s.label}.csv")
            seed = rng.randrange(2**31)
            walk = ("walk", subset, "--start", start, "--steps", str(self.steps), "--seed", str(seed))
            rows, cols, s_sum = checks.table_margins(s.mask, s.table)
            key = json.dumps({"rows": list(rows), "cols": list(cols), "s_sum": s_sum})
            items += [
                CliItem(s, "walk", walk, seed),
                CliItem(s, "walk-tv", walk + ("--tv",), seed),
                CliItem(s, "fiber", ("fiber", subset, "--key", key, "--json")),
            ]
        return items

    def run(self, api, item: CliItem):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = api.cli_main(list(item.argv))
        return code, out.getvalue()

    def check(self, item: CliItem, out, seen):
        problems: list[str] = []
        code, text = out
        if code != 0:
            return None, [f"exit code {code}"]
        s = item.start
        key = checks.table_margins(s.mask, s.table)
        size = _fiber_size(s.mask, key)
        if item.kind == "fiber":
            payload = json.loads(text)["payload"]
            tables = [tuple(tuple(r) for r in t) for t in payload["tables"]]
            if not payload["size"] == len(tables) == size:
                problems.append(f"fiber size {payload['size']}, expected {size}")
            if any(checks.table_margins(s.mask, t) != key for t in tables):
                problems.append("fiber table with other margins")
            if tables != sorted(set(tables)) or s.table not in tables:
                problems.append("fiber tables unsorted, repeated or missing the start")
            return (payload["size"],), problems
        fields = dict(line.split(": ", 1) for line in text.splitlines())
        final = parse_table(fields["final"])
        distinct = int(fields["distinct tables"])
        if int(fields["seed"]) != item.walk_seed or int(fields["steps"]) != self.steps:
            problems.append("walk echoed another seed or step count")
        if checks.table_margins(s.mask, final) != key:
            problems.append("walk left the fiber")
        if not 1 <= distinct <= size:
            problems.append(f"walk visited {distinct} tables of a fiber of {size}")
        tv = None
        if item.kind == "walk-tv":
            tv = float(fields["tv"])
            if not 0.0 <= tv <= 1.0:
                problems.append(f"tv {tv} outside [0, 1]")
        walk = (final, distinct)
        first = seen.setdefault((s.label, item.walk_seed), walk)
        if first != walk:
            problems.append("walk and walk --tv disagree under one seed")
        return (final, distinct, tv), problems

    def stdout_bytes(self, out) -> int:
        return len(out[1].encode("utf-8"))


WORKLOADS = {w.name: w for w in (Certify(), Groebner(), Explore(), Sample())}

# The same workloads at a size that finishes in well under a second; the
# self-tests run these.
TINY = {
    "certify": Certify(side=3, max_degree=2, staircase_quantiles=(0.5,), block_quantiles=(0.5,)),
    "groebner": Groebner(sizes=((3, (0.5,)), (4, (0.1,)))),
    "explore": Explore(sides=(3, 4), max_degree=2, targets=(EXPLORE_TARGETS[3], (10, 12, 14))),
    "sample": Sample(steps=50),
}
