"""Fibers of the margin map: enumeration, connectivity, census, sampling.

A fiber is the set of all nonnegative integer tables sharing one margin
value (row sums, column sums, subset sum).  Differences of two tables in
one fiber are exactly the binomials the ideal must explain, so bounded
fiber searches give finite, exact oracles for generation questions.
Everything here enumerates honestly within hard budgets; nothing is
sampled where exactness is claimed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from subtoric.binomials import MonomialOrder
from subtoric.ideal import GeneratorSet, QuadGen
from subtoric.tables import (
    BudgetError,
    CellTable,
    Margins,
    ShapeMismatchError,
    Subset,
    TableShape,
    margins,
)


@dataclass(frozen=True)
class Budget:
    """Hard ceilings for exhaustive work.  Exceeding one raises, never
    truncates."""

    max_degree: int = 6
    max_fiber_size: int = 200_000
    max_tables_per_degree: int = 200_000


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class Fiber:
    key: Margins
    tables: tuple[CellTable, ...]

    @property
    def size(self) -> int:
        return len(self.tables)

    def to_json_dict(self) -> dict:
        return {
            "key": self.key.to_json_dict(),
            "size": self.size,
            "tables": [t.to_json_dict() for t in self.tables],
        }


def enumerate_fiber(
    s: Subset, key: Margins, budget: Budget = DEFAULT_BUDGET
) -> Fiber:
    """All tables with the given margins, by row-major backtracking.

    The last cell of each row is forced by the remaining row sum; other
    cells range over what the row, column, and subset-sum budgets allow.
    """
    m, n = s.shape.m, s.shape.n
    if len(key.row_sums) != m or len(key.col_sums) != n:
        raise ShapeMismatchError(f"margin key does not fit {s.shape}")
    if key.degree > budget.max_degree:
        raise BudgetError(
            f"fiber degree {key.degree} exceeds budget {budget.max_degree}"
        )

    col_rem = list(key.col_sums)
    flat = [0] * (m * n)
    found: list[tuple[int, ...]] = []

    def place(i: int, j: int, row_rem: int, in_rem: int, out_rem: int) -> None:
        if j == n:
            if i + 1 == m:
                if all(c == 0 for c in col_rem) and in_rem == 0 and out_rem == 0:
                    if len(found) >= budget.max_fiber_size:
                        raise BudgetError(
                            f"fiber exceeds budget size {budget.max_fiber_size}"
                        )
                    found.append(tuple(flat))
            else:
                place(i + 1, 0, key.row_sums[i + 1], in_rem, out_rem)
            return
        pool = in_rem if s.mask[i][j] else out_rem
        cap = min(row_rem, col_rem[j], pool)
        if j == n - 1:
            # Last cell of the row is forced by the remaining row sum.
            candidates = (row_rem,) if row_rem <= cap else ()
        else:
            candidates = range(cap + 1)
        for e in candidates:
            flat[i * n + j] = e
            col_rem[j] -= e
            if s.mask[i][j]:
                place(i, j + 1, row_rem - e, in_rem - e, out_rem)
            else:
                place(i, j + 1, row_rem - e, in_rem, out_rem - e)
            col_rem[j] += e
            flat[i * n + j] = 0

    place(0, 0, key.row_sums[0], key.in_sum, key.out_sum)
    found.sort()
    tables = tuple(
        CellTable(s.shape, tuple(f[r * n : (r + 1) * n] for r in range(m)))
        for f in found
    )
    return Fiber(key, tables)


@lru_cache(maxsize=None)
def _tables_of_degree(m: int, n: int, d: int) -> tuple[CellTable, ...]:
    """Every nonnegative m x n table of total sum d, ascending by flat
    entries.  Cached; callers must budget-check first."""
    shape = TableShape(m, n)
    out: list[CellTable] = []
    flat = [0] * (m * n)

    def rec(pos: int, left: int) -> None:
        if pos == m * n - 1:
            flat[pos] = left
            out.append(
                CellTable(
                    shape, tuple(tuple(flat[r * n : (r + 1) * n]) for r in range(m))
                )
            )
            flat[pos] = 0
            return
        for e in range(left + 1):
            flat[pos] = e
            rec(pos + 1, left - e)
            flat[pos] = 0

    if m * n == 1:
        return (CellTable(shape, ((d,),)),)
    rec(0, d)
    return tuple(out)


@lru_cache(maxsize=None)
def _margin_parts(
    m: int, n: int, d: int
) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
    """(flat, row_sums, col_sums) for every degree-d table; the subset
    sum is the only margin component that depends on S."""
    parts = []
    for t in _tables_of_degree(m, n, d):
        rows = tuple(sum(r) for r in t.entries)
        cols = tuple(sum(t.entries[i][j] for i in range(m)) for j in range(n))
        parts.append((t.flat, rows, cols))
    return tuple(parts)


def _check_degree_budget(shape: TableShape, d: int, budget: Budget) -> None:
    if d > budget.max_degree:
        raise BudgetError(f"degree {d} exceeds budget {budget.max_degree}")
    count = math.comb(d + shape.m * shape.n - 1, shape.m * shape.n - 1)
    if count > budget.max_tables_per_degree:
        raise BudgetError(
            f"{count} degree-{d} tables on {shape} exceed budget "
            f"{budget.max_tables_per_degree}"
        )


def fibers_of_degree(
    s: Subset, d: int, budget: Budget = DEFAULT_BUDGET
) -> list[Fiber]:
    """Partition all degree-d tables into fibers, sorted by margin key."""
    m, n = s.shape.m, s.shape.n
    _check_degree_budget(s.shape, d, budget)
    s_idx = [i * n + j for i in range(m) for j in range(n) if s.mask[i][j]]
    groups: dict[tuple, list[CellTable]] = {}
    tables = _tables_of_degree(m, n, d)
    for t, (flat, rows, cols) in zip(tables, _margin_parts(m, n, d)):
        in_sum = sum(flat[idx] for idx in s_idx)
        groups.setdefault((rows, cols, in_sum), []).append(t)
    out = []
    for rows, cols, in_sum in sorted(groups):
        key = Margins(rows, cols, in_sum, d - in_sum)
        out.append(Fiber(key, tuple(groups[(rows, cols, in_sum)])))
    return out


# ---------------------------------------------------------------------------
# Moves and connectivity


@dataclass(frozen=True)
class MoveSet:
    """Quadruples acting as table moves: +1 on the diagonal cells
    (i,k),(j,ell) and -1 on the antidiagonal cells, or the reverse."""

    moves: tuple[QuadGen, ...]

    @classmethod
    def from_generators(cls, gens: GeneratorSet) -> "MoveSet":
        return cls(tuple(gens))

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self) -> Iterator[QuadGen]:
        return iter(self.moves)


def apply_move(t: CellTable, q: QuadGen, sign: int) -> Optional[CellTable]:
    """The moved table, or None when an entry would go negative."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    rows = [list(r) for r in t.entries]
    for i, j in q.diagonal_cells:
        rows[i - 1][j - 1] += sign
    for i, j in q.antidiagonal_cells:
        rows[i - 1][j - 1] -= sign
    if any(e < 0 for r in rows for e in r):
        return None
    return CellTable(t.shape, tuple(tuple(r) for r in rows))


def fiber_components(
    fiber: Fiber, moves: MoveSet
) -> list[tuple[CellTable, ...]]:
    """Connected components of the fiber under the moves, largest first;
    ties broken by the smallest flat entry sequence."""
    index = {t.flat: pos for pos, t in enumerate(fiber.tables)}
    parent = list(range(len(fiber.tables)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for pos, t in enumerate(fiber.tables):
        for q in moves:
            for sign in (1, -1):
                moved = apply_move(t, q, sign)
                if moved is None:
                    continue
                other = index.get(moved.flat)
                if other is not None:
                    union(pos, other)

    buckets: dict[int, list[CellTable]] = {}
    for pos, t in enumerate(fiber.tables):
        buckets.setdefault(find(pos), []).append(t)
    comps = [tuple(ts) for ts in buckets.values()]
    comps.sort(key=lambda c: (-len(c), c[0].flat))
    return comps


@dataclass(frozen=True)
class GenerationCheck:
    passed: bool
    max_degree: int
    witness: Optional[Fiber]

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "max_degree": self.max_degree,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
        }


def generation_check(
    s: Subset,
    gens: GeneratorSet,
    max_degree: int = 4,
    budget: Budget = DEFAULT_BUDGET,
) -> GenerationCheck:
    """Are all fibers of degree <= max_degree connected under the moves?

    Fails with the first disconnected fiber, scanning degrees upward and
    fibers in margin-key order.
    """
    moves = MoveSet.from_generators(gens)
    for d in range(max_degree + 1):
        for fiber in fibers_of_degree(s, d, budget):
            if fiber.size == 1:
                continue
            if len(fiber_components(fiber, moves)) > 1:
                return GenerationCheck(False, max_degree, fiber)
    return GenerationCheck(True, max_degree, None)


# ---------------------------------------------------------------------------
# Standard-monomial census


@dataclass(frozen=True)
class CensusRow:
    """Degree-d monomials untouched by the leading terms, versus distinct
    margin values.  standard_count >= fiber_count always; equality in
    every row up to d certifies the basis property up to d."""

    degree: int
    standard_count: int
    fiber_count: int

    @property
    def balanced(self) -> bool:
        return self.standard_count == self.fiber_count

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "standard_count": self.standard_count,
            "fiber_count": self.fiber_count,
        }


def _independent_set_counts(adjacent: Sequence[int], size: int) -> list[int]:
    """a[k] for k = 0..size: the number of k-vertex independent sets of
    the graph in which vertex v is adjacent to the bits of adjacent[v].

    Iterative DFS over bitmasks, each set grown in ascending vertex
    order; the last level is counted by popcount, not visited.
    """
    counts = [1] + [0] * size
    if size == 0:
        return counts
    stack = [((1 << len(adjacent)) - 1, 0)]
    while stack:
        free, k = stack.pop()
        counts[k + 1] += free.bit_count()
        if k + 1 == size:
            continue
        while free:
            low = free & -free
            free ^= low
            nxt = free & ~adjacent[low.bit_length() - 1]
            if nxt:
                stack.append((nxt, k + 1))
    return counts


def _margin_value_counts(s: Subset, size: int) -> list[int]:
    """Number of distinct margin values of degree d, for d = 0..size.

    Each cell becomes one integer packing its row, column and subset
    indicator in base size + 1, so no field carries and a sum of d cells
    packs exactly the margins of the degree-d table they form.
    """
    m, n = s.shape.m, s.shape.n
    base = size + 1
    cells = [
        base**i + base ** (m + j) + (base ** (m + n) if s.mask[i][j] else 0)
        for i in range(m)
        for j in range(n)
    ]
    reach = {0}
    counts = [1]
    for _ in range(size):
        reach = {p + c for p in reach for c in cells}
        counts.append(len(reach))
    return counts


def initial_ideal_census(
    s: Subset,
    gens: GeneratorSet,
    order: MonomialOrder,
    max_degree: int = 4,
    budget: Budget = DEFAULT_BUDGET,
) -> list[CensusRow]:
    """Standard monomials of the leading terms against fibers, for every
    degree 0..max_degree, counted without listing any table.

    Every kept move touches four distinct cells, so on any subset each
    leading term is a squarefree product of two cells, and a monomial is
    standard exactly when its support holds no leading-term pair.  With
    a_k the number of such k-cell supports (independent sets of the graph
    on cells whose edges are the leading terms), and C(d-1, k-1)
    monomials of degree d on each k-cell support,

        standard_count(d) = sum_{k=1..d} a_k * C(d-1, k-1),  1 at d = 0.

    A fiber is one margin value, and the margin of a table is the sum of
    the margins of its cells, so

        fiber_count(d) = |{c_1 + ... + c_d : c_i cells}|,

    with each cell packed as one integer (see _margin_value_counts).

    The table budget still applies: every degree is checked before any
    counting, and the first one over budget raises BudgetError.
    """
    if max_degree < 0:
        raise ValueError(f"degree bound must be nonnegative, got {max_degree}")
    for d in range(max_degree + 1):
        _check_degree_budget(s.shape, d, budget)
    adjacent = [0] * (s.shape.m * s.shape.n)
    for g in gens.binomials(order):
        a, b = (idx for idx, e in enumerate(g.plus.flat) if e)
        adjacent[a] |= 1 << b
        adjacent[b] |= 1 << a
    supports = _independent_set_counts(adjacent, max_degree)
    fibers = _margin_value_counts(s, max_degree)
    rows = [CensusRow(0, 1, fibers[0])]
    for d in range(1, max_degree + 1):
        standard = sum(
            supports[k] * math.comb(d - 1, k - 1) for k in range(1, d + 1)
        )
        rows.append(CensusRow(d, standard, fibers[d]))
    return rows


# ---------------------------------------------------------------------------
# Random walks


@dataclass(frozen=True, eq=True)
class WalkTrace:
    seed: int
    steps: int
    visit_counts: dict
    final: CellTable

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "steps": self.steps,
            "distinct_tables": len(self.visit_counts),
            "final": self.final.to_json_dict(),
        }


def random_walk(
    s: Subset, start: CellTable, moves: MoveSet, steps: int, seed: int
) -> WalkTrace:
    """Lazy symmetric walk: pick a move and a sign uniformly, apply when
    the result stays nonnegative, otherwise stay put.

    Identical seed and inputs give an identical trace; the generator is
    consumed as one randrange plus one choice per step.  Visit counts
    include the start, so they total steps + 1.
    """
    if steps < 0:
        raise ValueError(f"walk length must be nonnegative, got {steps}")
    start_key = margins(s, start)
    pool = moves.moves
    rng = random.Random(seed)
    counts: dict[CellTable, int] = {start: 1}
    current = start
    for _ in range(steps):
        if pool:
            q = pool[rng.randrange(len(pool))]
            sign = rng.choice((1, -1))
            moved = apply_move(current, q, sign)
            if moved is not None:
                if margins(s, moved) != start_key:
                    raise ValueError(f"move {q.as_tuple} left the fiber")
                current = moved
        counts[current] = counts.get(current, 0) + 1
    return WalkTrace(seed, steps, counts, current)


def walk_vs_exact(
    s: Subset,
    start: CellTable,
    moves: MoveSet,
    steps: int,
    seed: int,
    budget: Budget = DEFAULT_BUDGET,
) -> float:
    """Total-variation distance between the walk's empirical law and the
    uniform law on the enumerated fiber of the start table."""
    fiber = enumerate_fiber(s, margins(s, start), budget)
    trace = random_walk(s, start, moves, steps, seed)
    total = steps + 1
    target = 1.0 / fiber.size
    return 0.5 * sum(
        abs(trace.visit_counts.get(t, 0) / total - target)
        for t in fiber.tables
    )


# ---------------------------------------------------------------------------
# Table CSV


def table_to_csv(t: CellTable) -> str:
    return "".join(",".join(str(e) for e in row) + "\n" for row in t.entries)


def table_from_csv(text: str) -> CellTable:
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        try:
            rows.append([int(v) for v in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"bad CSV table line {line!r}") from exc
    if not rows:
        raise ValueError("no CSV rows found")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("CSV rows have unequal lengths")
    return CellTable.from_rows(rows)
