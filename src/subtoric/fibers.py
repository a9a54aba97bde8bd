"""Fibers of the margin map: enumeration, connectivity, census, sampling.

A fiber is the set of all nonnegative integer tables sharing one margin
value (row sums, column sums, subset sum).  Differences of two tables in
one fiber are exactly the binomials the ideal must explain, so bounded
fiber searches give finite, exact oracles for generation questions.
Everything here enumerates honestly within the hard ceilings of
subtoric.tables (MAX_DEGREE, MAX_FIBER_SIZE, MAX_TABLES_PER_DEGREE,
MAX_WALK_STEPS), each read there at its check; past one, the work raises
BudgetError.  Nothing is sampled where exactness is claimed.

fibers_of_degree and generation_check share one cached listing,
_margin_classes, of each table as a sparse cell tuple: its cells' flat
indices, ascending, each repeated by its entry.  Ascending sparse order
is descending flat order; every fiber and witness keeps its tables in
ascending flat order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Collection, Iterable, Optional, Sequence

from subtoric import tables
from subtoric.binomials import MonomialOrder
from subtoric.ideal import GeneratorSet, QuadGen, _check_fits
from subtoric.tables import (
    BudgetError,
    CellTable,
    Margins,
    ShapeMismatchError,
    Subset,
    TableShape,
    _rows,
    margins,
)


@dataclass(frozen=True)
class Fiber:
    """The tables sharing one margin key, kept as their row-major flat
    entry tuples in ascending order, as CellTable stores them.
    ``tables`` builds the CellTables on first read; size and the JSON
    form read the flat tuples."""

    key: Margins
    flats: tuple[tuple[int, ...], ...]

    @cached_property
    def tables(self) -> tuple[CellTable, ...]:
        shape = TableShape(len(self.key.row_sums), len(self.key.col_sums))
        return tuple(CellTable(shape, f) for f in self.flats)

    @property
    def size(self) -> int:
        return len(self.flats)

    def table_rows(self) -> list[list[list[int]]]:
        """Each table's rows as lists, as CellTable.to_json_dict gives
        them, without building the CellTable."""
        n = len(self.key.col_sums)
        return [list(map(list, _rows(f, n))) for f in self.flats]

    def to_json_dict(self) -> dict:
        return {
            "key": self.key.to_json_dict(),
            "size": self.size,
            "tables": self.table_rows(),
        }


def enumerate_fiber(s: Subset, key: Margins) -> Fiber:
    """All tables with the given margins, by row-major backtracking.

    The last cell of each row is forced by the remaining row sum; other
    cells range over what the row, column, and subset-sum budgets allow.
    """
    m, n = s.shape.m, s.shape.n
    if len(key.row_sums) != m or len(key.col_sums) != n:
        raise ShapeMismatchError(f"margin key does not fit {s.shape}")
    if key.degree > tables.MAX_DEGREE:
        raise BudgetError(
            f"fiber degree {key.degree} exceeds budget {tables.MAX_DEGREE}"
        )
    max_size = tables.MAX_FIBER_SIZE

    size = m * n
    inside = [int(hit) for row in s.mask for hit in row]
    # (row, column, inside S, last in its row) per flat position.
    cells = [(p // n, p % n, inside[p], p % n == n - 1) for p in range(size)]
    row_rem = list(key.row_sums)
    col_rem = list(key.col_sums)
    pool_rem = [key.out_sum, key.in_sum]  # indexed by inside[p]
    flat = [0] * size
    top = [0] * size
    found: list[tuple[int, ...]] = []
    # An odometer over the cells: descending places a cell's smallest
    # value, and coming back raises it by one until it reaches its top.
    pos, descending = 0, True
    while pos >= 0:
        i, j, k, last = cells[pos]
        if descending:
            e = row_rem[i]
            cap = min(e, col_rem[j], pool_rem[k])
            if not last:
                e = 0
            elif e > cap:
                # The last cell of the row is forced by the remaining row
                # sum, and that sum does not fit.
                pos, descending = pos - 1, False
                continue
            else:
                cap = e
            top[pos] = cap
            flat[pos] = e
            row_rem[i] -= e
            col_rem[j] -= e
            pool_rem[k] -= e
        elif flat[pos] < top[pos]:
            flat[pos] += 1
            row_rem[i] -= 1
            col_rem[j] -= 1
            pool_rem[k] -= 1
        else:
            e = flat[pos]
            row_rem[i] += e
            col_rem[j] += e
            pool_rem[k] += e
            flat[pos] = 0
            pos -= 1
            continue
        if pos + 1 < size:
            pos, descending = pos + 1, True
            continue
        if not any(col_rem) and not any(pool_rem):
            if len(found) >= max_size:
                raise BudgetError(f"fiber exceeds budget size {max_size}")
            found.append(tuple(flat))
        descending = False
    found.sort()
    return Fiber(key, tuple(found))


def _check_degree_budget(shape: TableShape, d: int) -> None:
    """Refuse a negative degree d, then d past MAX_DEGREE, then a shape
    with more than MAX_TABLES_PER_DEGREE tables of degree d."""
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    if d > tables.MAX_DEGREE:
        raise BudgetError(f"degree {d} exceeds budget {tables.MAX_DEGREE}")
    count = math.comb(d + shape.m * shape.n - 1, shape.m * shape.n - 1)
    if count > tables.MAX_TABLES_PER_DEGREE:
        raise BudgetError(
            f"{count} degree-{d} tables on {shape} exceed budget "
            f"{tables.MAX_TABLES_PER_DEGREE}"
        )


def fibers_of_degree(s: Subset, d: int) -> list[Fiber]:
    """Partition all degree-d tables into fibers, sorted by margin key:
    each (row sums, column sums) class of _margin_classes split by its
    subset sum."""
    m, n = s.shape.m, s.shape.n
    _check_degree_budget(s.shape, d)
    size = m * n
    inside = [int(hit) for row in s.mask for hit in row]
    return [
        Fiber(Margins(rows, cols, in_sum), tuple(_flat(t, size) for t in fiber))
        for rows, cols, tables in _margin_classes(m, n, d)
        for in_sum, fiber in sorted(_by_subset_sum(tables, inside).items())
    ]


@lru_cache(maxsize=None)
def _margin_classes(m: int, n: int, d: int) -> tuple[tuple[tuple, tuple, tuple], ...]:
    """(row_sums, col_sums, tables) for every pair of row and column sums
    that degree-d tables take, in key order; each table is a sparse cell
    tuple (see _sparse), in ascending flat order within its class.
    Cached; callers must budget-check first.

    combinations_with_replacement lists every table once in ascending
    sparse order, which is descending flat order, so each class is
    reversed.  A table's row and column sums pack into one int, cell
    (i, j) adding base**i + base**(m + j) in base d + 1 as in
    _margin_values; each class key is decoded once.
    """
    base = d + 1
    packs = [base**i + base ** (m + j) for i in range(m) for j in range(n)]
    classes: dict[int, list[tuple[int, ...]]] = {}
    for t in combinations_with_replacement(range(m * n), d):
        classes.setdefault(sum(map(packs.__getitem__, t)), []).append(t)
    out = []
    for packed, ts in classes.items():
        sums = [packed // base**k % base for k in range(m + n)]
        ts.reverse()
        out.append((tuple(sums[:m]), tuple(sums[m:]), tuple(ts)))
    # The (row_sums, col_sums) pairs are distinct, so no tables are compared.
    out.sort()
    return tuple(out)


def _by_subset_sum(
    tables: Iterable[tuple[int, ...]], inside: Sequence[int]
) -> dict[int, list[tuple[int, ...]]]:
    """The fibers of one margin class keyed by subset sum, each fiber's
    tables in class order.  A sparse table's subset sum is the subset
    indicator summed over its cells."""
    fibers: dict[int, list[tuple[int, ...]]] = {}
    for t in tables:
        fibers.setdefault(sum(map(inside.__getitem__, t)), []).append(t)
    return fibers


def _flat(t: Sequence[int], size: int) -> tuple[int, ...]:
    """The row-major flat entries of the sparse cell tuple t on size
    cells; the inverse of _sparse."""
    flat = [0] * size
    for c in t:
        flat[c] += 1
    return tuple(flat)


# ---------------------------------------------------------------------------
# Moves and connectivity


def apply_move(t: CellTable, q: QuadGen, sign: int) -> Optional[CellTable]:
    """The moved table, or None when an entry would go negative."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    _check_fits(t.shape, q)
    n = t.shape.n
    flat = list(t.flat)
    for i, j in q.diagonal_cells:
        flat[(i - 1) * n + j - 1] += sign
    for i, j in q.antidiagonal_cells:
        flat[(i - 1) * n + j - 1] -= sign
    if min(flat) < 0:
        return None
    return CellTable(t.shape, tuple(flat))


_Step = tuple[tuple[int, int], tuple[int, int]]


def _signed_steps(shape: TableShape, moves: Iterable[QuadGen]) -> list[tuple[_Step, _Step]]:
    """Each move as its steps at sign +1 and -1.  A step is a pair of
    flat (up, down) cell indices: it adds one to both up cells and takes
    one from both down cells.  At sign +1 the diagonal goes up."""
    n = shape.n
    signed = []
    for q in moves:
        _check_fits(shape, q)
        diag = tuple((i - 1) * n + j - 1 for i, j in q.diagonal_cells)
        anti = tuple((i - 1) * n + j - 1 for i, j in q.antidiagonal_cells)
        signed.append(((diag, anti), (anti, diag)))
    return signed


def fiber_components(
    fiber: Fiber, moves: Iterable[QuadGen]
) -> list[tuple[CellTable, ...]]:
    """Connected components of the fiber under the moves, largest first;
    ties broken by the smallest flat entry sequence.  The tables are
    hunted as sparse cell tuples, like generation_check's."""
    shape = TableShape(len(fiber.key.row_sums), len(fiber.key.col_sums))
    roots = _component_roots(
        list(map(_sparse, fiber.flats)), _steps_by_down(shape, moves)
    )
    buckets: dict[int, list[int]] = {}
    for pos, root in enumerate(roots):
        buckets.setdefault(root, []).append(pos)
    # A bucket's first position holds its smallest flat entry sequence.
    order = sorted(buckets.values(), key=lambda c: (-len(c), fiber.flats[c[0]]))
    tables = fiber.tables
    return [tuple(tables[pos] for pos in c) for c in order]


def _sparse(flat: Sequence[int]) -> tuple[int, ...]:
    """A table as its sparse cell tuple: the ascending flat indices of
    its cells, each repeated as often as its entry."""
    return tuple(c for c, e in enumerate(flat) for _ in range(e))


def _steps_by_down(shape: TableShape, moves: Iterable[QuadGen]) -> dict[tuple[int, int], tuple[int, int]]:
    """Each signed step's up cells, keyed by its two down cells.  A down
    pair fixes the 2x2 minor and the sign, so it names at most one step;
    both pairs of a move are ascending flat indices, as row i < row j."""
    return {
        down: up
        for signed in _signed_steps(shape, moves)
        for up, down in signed
    }


def _component_roots(
    tables: Sequence[tuple[int, ...]], steps: dict[tuple[int, int], tuple[int, int]]
) -> list[int]:
    """Union-find over the sparse cell tuples of one fiber: for each
    table, the position of the first table in its component under the
    steps.  A step applies only when both its down cells are in the
    table's support, so only the pairs of distinct support cells are
    looked up."""
    index = {t: pos for pos, t in enumerate(tables)}
    parent = list(range(len(tables)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for pos, t in enumerate(tables):
        for a, b in combinations(dict.fromkeys(t), 2):
            up = steps.get((a, b))
            if up is None:
                continue
            moved = list(t)
            moved.remove(a)
            moved.remove(b)
            moved += up
            moved.sort()
            other = index.get(tuple(moved))
            if other is not None:
                ra, rb = find(pos), find(other)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    return [find(pos) for pos in range(len(tables))]


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
) -> GenerationCheck:
    """Are all fibers of degree <= max_degree connected under the moves?

    Fails with the first disconnected fiber, scanning degrees upward and
    fibers in margin-key order: each _margin_classes class of two or
    more sparse tables, split by subset sum.  The moves are keyed by
    their down cells at the first fiber of more than one table, and each
    table looks up only the pairs of distinct cells in its support.  No
    CellTable is built: the witness keeps its tables as flat tuples.
    """
    if max_degree < 0:
        raise ValueError(f"degree bound must be nonnegative, got {max_degree}")
    m, n = s.shape.m, s.shape.n
    inside = [int(hit) for row in s.mask for hit in row]
    steps = None
    for d in range(max_degree + 1):
        _check_degree_budget(s.shape, d)
        for rows, cols, tables in _margin_classes(m, n, d):
            if len(tables) == 1:
                continue
            fibers = _by_subset_sum(tables, inside)
            for in_sum in sorted(fibers):
                fiber = fibers[in_sum]
                if len(fiber) == 1:
                    continue
                if steps is None:
                    steps = _steps_by_down(s.shape, gens)
                if any(_component_roots(fiber, steps)):
                    flats = tuple(_flat(t, m * n) for t in fiber)
                    witness = Fiber(Margins(rows, cols, in_sum), flats)
                    return GenerationCheck(False, max_degree, witness)
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
    order; the last level is counted by popcount, never pushed.
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
        last = k + 2 == size
        while free:
            low = free & -free
            free ^= low
            nxt = free & ~adjacent[low.bit_length() - 1]
            if last:
                counts[size] += nxt.bit_count()
            elif nxt:
                stack.append((nxt, k + 1))
    return counts


def _margin_values(s: Subset, size: int) -> list[set[int]]:
    """The distinct values of degree d, for d = 0..size, of the map
    sending a table to its row sums, column sums and its sum over s.

    Each cell becomes one integer packing its row, column and indicator
    in base size + 1, so no field carries and a sum of d cells packs
    exactly the value of the degree-d table they form.  One pass over
    the cells builds every degree: the sums S(d, k) of d cells among the
    first k are S(d, k-1) | (c_k + S(d-1, k)), degrees taken ascending.
    """
    m, n = s.shape.m, s.shape.n
    base = size + 1
    reach = [{0}] + [set() for _ in range(size)]
    for i in range(m):
        for j in range(n):
            c = base**i + base ** (m + j) + s.mask[i][j] * base ** (m + n)
            for low, high in zip(reach, reach[1:]):
                high.update([c + p for p in low])
    return reach


def initial_ideal_census(
    s: Subset,
    gens: GeneratorSet,
    order: MonomialOrder,
    max_degree: int = 4,
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

    the size of degree d's set of packed cell sums from _margin_values,
    which builds every degree's set in one pass over the cells, by
    S(d, k) = S(d, k-1) | (c_k + S(d-1, k)).

    Each leading term is read off its move unexpanded: the order reads
    the bottom row first and each row from the left, and in a move's
    lower row the antidiagonal cell is the left one, so it leads.

    The listing ceilings still apply: every degree is checked against
    MAX_DEGREE and MAX_TABLES_PER_DEGREE before any counting, and the
    first one over raises BudgetError.
    """
    if max_degree < 0:
        raise ValueError(f"degree bound must be nonnegative, got {max_degree}")
    for d in range(max_degree + 1):
        _check_degree_budget(s.shape, d)
    if order.shape != s.shape:
        raise ShapeMismatchError(f"subset on {s.shape}, order on {order.shape}")
    n = s.shape.n
    adjacent = [0] * (s.shape.m * n)
    for q in gens:
        _check_fits(s.shape, q)
        # The antidiagonal cells (i, ell) and (j, k), as flat indices.
        a = (q.i - 1) * n + q.ell - 1
        b = (q.j - 1) * n + q.k - 1
        adjacent[a] |= 1 << b
        adjacent[b] |= 1 << a
    supports = _independent_set_counts(adjacent, max_degree)
    fibers = [len(v) for v in _margin_values(s, max_degree)]
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
    """A walk's visits per table (the start included, so they total
    steps + 1), its final table, and how many proposals it applied.

    The visits are kept as ``flat_counts``, keyed by each table's
    row-major flat entry tuple in order of first visit; ``visit_counts``
    builds the same dict keyed by CellTables on first read."""

    seed: int
    steps: int
    flat_counts: dict
    final: CellTable
    accepted: int

    @cached_property
    def visit_counts(self) -> dict:
        shape = self.final.shape
        return {CellTable(shape, f): c for f, c in self.flat_counts.items()}

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "steps": self.steps,
            "distinct_tables": len(self.flat_counts),
            "final": self.final.to_json_dict(),
        }


def check_walk_steps(steps: int) -> None:
    """Refuse a negative walk length, then one past MAX_WALK_STEPS."""
    if steps < 0:
        raise ValueError(f"walk length must be nonnegative, got {steps}")
    if steps > tables.MAX_WALK_STEPS:
        raise BudgetError(
            f"walk of {steps} steps exceeds budget {tables.MAX_WALK_STEPS}"
        )


def random_walk(
    s: Subset, start: CellTable, moves: Collection[QuadGen], steps: int, seed: int
) -> WalkTrace:
    """Lazy symmetric walk: pick a move and a sign uniformly, apply when
    the result stays nonnegative, otherwise stay put.

    Identical seed and inputs give an identical trace.  Each step draws
    through getrandbits exactly as one randrange plus one choice of sign
    would; tests pin this against random_walk_by_apply, which calls both.
    check_walk_steps refuses the step count first.  Every move is checked
    once, before the first step: it must fit the shape and meet the
    subset as often on its diagonal as on its antidiagonal, or the walk
    raises ValueError.
    """
    check_walk_steps(steps)
    if start.shape != s.shape:
        raise ShapeMismatchError(f"shape mismatch: {s.shape} vs {start.shape}")
    inside = [hit for row in s.mask for hit in row]
    pool = _signed_steps(s.shape, moves)
    for q, ((up, down), _) in zip(moves, pool):
        if sum(inside[c] for c in up) != sum(inside[c] for c in down):
            raise ValueError(f"move {q.as_tuple} left the fiber")
    if not pool:
        return WalkTrace(seed, steps, {start.flat: steps + 1}, start, 0)
    getrandbits = random.Random(seed).getrandbits
    count = len(pool)
    bits = count.bit_length()
    current = list(start.flat)
    state = start.flat
    # Visits are added a run at a time, when the walk leaves a table and
    # after the last step, so first visits keep the dict's order.
    counts: dict[tuple[int, ...], int] = {}
    run = 1
    accepted = 0
    for _ in range(steps):
        i = getrandbits(bits)
        while i >= count:
            i = getrandbits(bits)
        sign = getrandbits(2)
        while sign >= 2:
            sign = getrandbits(2)
        (u1, u2), (d1, d2) = pool[i][sign]
        if current[d1] and current[d2]:
            counts[state] = counts.get(state, 0) + run
            run = 1
            current[u1] += 1
            current[u2] += 1
            current[d1] -= 1
            current[d2] -= 1
            state = tuple(current)
            accepted += 1
        else:
            run += 1
    counts[state] = counts.get(state, 0) + run
    return WalkTrace(seed, steps, counts, CellTable(s.shape, state), accepted)


def walk_tv(fiber: Fiber, trace: WalkTrace) -> float:
    """Total-variation distance between the walk's empirical law and the
    uniform law on the fiber."""
    total = trace.steps + 1
    target = 1.0 / fiber.size
    counts = trace.flat_counts
    # Added left to right, as sum() added floats before Python 3.12
    # compensated its float sums, so every version gives the same float.
    tv = 0.0
    for f in fiber.flats:
        tv += abs(counts.get(f, 0) / total - target)
    return 0.5 * tv


def walk_vs_exact(
    s: Subset,
    start: CellTable,
    moves: Collection[QuadGen],
    steps: int,
    seed: int,
) -> float:
    """Total-variation distance between the walk's empirical law and the
    uniform law on the start table's fiber, enumerated once the step
    count passes."""
    check_walk_steps(steps)
    fiber = enumerate_fiber(s, margins(s, start))
    return walk_tv(fiber, random_walk(s, start, moves, steps, seed))


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
