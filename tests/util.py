"""Shared helpers for the test suite: seeded random subsets and patterns,
a table-scanning census oracle, a fiber-listing partition oracle, a move
expansion by products of cell variables, a division and Buchberger
oracle that works on CellTables with a linear divisor scan, the dense
exponent-tuple key the sparse monomial keys replace, walk and
component oracles that move CellTables one ``apply_move`` at a time, a
two-block test and a permutation oracle that check cell by cell, a
fiber hunt over ``fibers_of_degree``, and a neither-class test by 2x3
and 3x2 sub-patterns that works at any shape."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import chain, combinations, permutations, product
from typing import Collection, Iterable, Optional, Sequence

from subtoric.binomials import (
    Binomial,
    BuchbergerFailure,
    BuchbergerReport,
    MonomialOrder,
    ReductionStep,
    orient,
    s_polynomial,
)
import subtoric.tables as tables_mod
from subtoric.fibers import (
    CensusRow,
    Fiber,
    GenerationCheck,
    WalkTrace,
    _check_degree_budget,
    _flat,
    _margin_classes,
    apply_move,
    fiber_components,
    fibers_of_degree,
    generation_check,
)
from subtoric.ideal import GeneratorSet, QuadGen, build_generators
from subtoric.tables import (
    BlockWitness,
    BudgetError,
    CellTable,
    Classification,
    PermPair,
    Subset,
    TableShape,
    _packed_blocks,
    classify,
    margins,
)


def random_subset(rng: random.Random, m: int, n: int, p: float = 0.5) -> Subset:
    cells = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1) if rng.random() < p]
    return Subset.from_cells(m, n, cells)


def random_staircase(rng: random.Random, m: int, n: int) -> Subset:
    """A downward-closed pattern: nonincreasing row lengths."""
    lengths = sorted((rng.randint(0, n) for _ in range(m)), reverse=True)
    cells = [(i + 1, j + 1) for i, w in enumerate(lengths) for j in range(w)]
    return Subset.from_cells(m, n, cells)


def random_block(rng: random.Random, m: int, n: int) -> Subset:
    """A two-block pattern in place: top-left r x c plus bottom-right rest."""
    r, c = rng.randint(0, m), rng.randint(0, n)
    cells = [(i, j) for i in range(1, r + 1) for j in range(1, c + 1)]
    cells += [(i, j) for i in range(r + 1, m + 1) for j in range(c + 1, n + 1)]
    return Subset.from_cells(m, n, cells)


def staircases(m: int, n: int) -> list[Subset]:
    """All downward-closed subsets of an m x n table."""
    out = []

    def rec(prev, rows):
        if len(rows) == m:
            cells = [(i + 1, j + 1) for i, w in enumerate(rows) for j in range(w)]
            out.append(Subset.from_cells(m, n, cells))
            return
        for w in range(prev, -1, -1):
            rec(w, rows + [w])

    rec(n, [])
    return out


def random_perm_pair(rng: random.Random, m: int, n: int) -> PermPair:
    rows = list(range(1, m + 1))
    cols = list(range(1, n + 1))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return PermPair(tuple(rows), tuple(cols))


def random_table(rng: random.Random, m: int, n: int, degree: int) -> CellTable:
    """A random monomial of the given total degree."""
    entries = [[0] * n for _ in range(m)]
    for _ in range(degree):
        entries[rng.randrange(m)][rng.randrange(n)] += 1
    return CellTable.from_rows(entries)


def dense_key(t: CellTable) -> tuple[int, ...]:
    """t's exponents in precedence order, bottom row first and each row
    left to right; lex comparison of these tuples is the monomial order."""
    return tuple(e for row in reversed(t.entries) for e in row)


def census_by_scan(
    s: Subset,
    gens: GeneratorSet,
    order: MonomialOrder,
    max_degree: int = 4,
) -> list[CensusRow]:
    """The census by brute force: test every degree-d table against every
    leading term, and collect the margin keys of all of them."""
    m, n = s.shape.m, s.shape.n
    lead_reqs = [
        [(idx, e) for idx, e in enumerate(g.plus.flat) if e]
        for g in gens.binomials(order)
    ]
    s_idx = [i * n + j for i in range(m) for j in range(n) if s.mask[i][j]]
    rows = []
    for d in range(max_degree + 1):
        _check_degree_budget(s.shape, d)
        standard = 0
        keys = set()
        for rsums, csums, listed in _margin_classes(m, n, d):
            for flat in (_flat(t, m * n) for t in listed):
                if not any(
                    all(flat[idx] >= e for idx, e in req) for req in lead_reqs
                ):
                    standard += 1
                keys.add((rsums, csums, sum(flat[idx] for idx in s_idx)))
        rows.append(CensusRow(d, standard, len(keys)))
    return rows


def partition_of_degree(s: Subset, d: int) -> list[tuple]:
    """The fibers of degree d as sorted lists of flat tables, by listing
    every degree-d table; two subsets split the tables alike exactly
    when these agree."""
    return sorted(
        tuple(t.flat for t in f.tables) for f in fibers_of_degree(s, d)
    )


def expand_by_variables(q: QuadGen, shape: TableShape) -> Binomial:
    """The move as antidiagonal minus diagonal, each side a product of
    two ``CellTable.variable`` monomials."""
    (a1, a2), (d1, d2) = q.antidiagonal_cells, q.diagonal_cells
    anti = CellTable.variable(shape, *a1) * CellTable.variable(shape, *a2)
    diag = CellTable.variable(shape, *d1) * CellTable.variable(shape, *d2)
    return Binomial(anti, diag)


def _first_divisor_by_scan(
    target: CellTable, gens: Sequence[Binomial]
) -> Optional[int]:
    for idx, g in enumerate(gens):
        if g.plus.divides(target):
            return idx
    return None


def normal_form_by_scan(
    f: Optional[Binomial], gens: Sequence[Binomial], order: MonomialOrder
) -> tuple[Optional[Binomial], list[ReductionStep]]:
    """Division on CellTables, trying every generator in list order for
    each step: leading term first, then trailing term."""
    trace: list[ReductionStep] = []
    if f is None:
        return None, trace
    assert f.is_oriented(order)
    current = f
    while True:
        idx = _first_divisor_by_scan(current.plus, gens)
        if idx is None:
            break
        g = gens[idx]
        replaced = (current.plus // g.plus) * g.minus
        if replaced == current.minus:
            trace.append(ReductionStep(idx, current, None))
            return None, trace
        nxt = orient(Binomial(replaced, current.minus), order)
        trace.append(ReductionStep(idx, current, nxt))
        current = nxt
    while True:
        idx = _first_divisor_by_scan(current.minus, gens)
        if idx is None:
            break
        g = gens[idx]
        replaced = (current.minus // g.plus) * g.minus
        if replaced == current.plus:
            trace.append(ReductionStep(idx, current, None))
            return None, trace
        nxt = Binomial(current.plus, replaced)
        trace.append(ReductionStep(idx, current, nxt))
        current = nxt
    return current, trace


def buchberger_by_scan(
    gens: Sequence[Binomial], order: MonomialOrder
) -> BuchbergerReport:
    """Buchberger's criterion pair by pair with ``s_polynomial`` and
    ``normal_form_by_scan``, skipping coprime leading terms."""
    checked = skipped = 0
    failure: Optional[BuchbergerFailure] = None
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if gens[i].plus.coprime(gens[j].plus):
                skipped += 1
                continue
            checked += 1
            f = s_polynomial(gens[i], gens[j], order)
            remainder, _ = normal_form_by_scan(f, gens, order)
            if remainder is not None and failure is None:
                failure = BuchbergerFailure(i, j, remainder)
    return BuchbergerReport(failure is None, checked, skipped, failure)


def random_walk_by_apply(
    s: Subset, start: CellTable, moves: Collection[QuadGen], steps: int, seed: int
) -> WalkTrace:
    """The lazy walk on CellTables: ``apply_move`` per proposal and a
    margin re-check after every applied move, drawing one randrange and
    one choice of sign per step."""
    start_key = margins(s, start)
    pool = tuple(moves)
    rng = random.Random(seed)
    counts: dict[CellTable, int] = {start: 1}
    current = start
    accepted = 0
    for _ in range(steps):
        if pool:
            q = pool[rng.randrange(len(pool))]
            sign = rng.choice((1, -1))
            moved = apply_move(current, q, sign)
            if moved is not None:
                if margins(s, moved) != start_key:
                    raise ValueError(f"move {q.as_tuple} left the fiber")
                current = moved
                accepted += 1
        counts[current] = counts.get(current, 0) + 1
    flat_counts = {t.flat: c for t, c in counts.items()}
    return WalkTrace(seed, steps, flat_counts, current, accepted)


def fiber_components_by_apply(
    fiber: Fiber, moves: Iterable[QuadGen]
) -> list[tuple[CellTable, ...]]:
    """Components by ``apply_move`` on every table, move and sign, joined
    by union-find; largest first, ties by the smallest flat entries."""
    index = {t.flat: pos for pos, t in enumerate(fiber.tables)}
    parent = list(range(len(fiber.tables)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for pos, t in enumerate(fiber.tables):
        for q in moves:
            for sign in (1, -1):
                moved = apply_move(t, q, sign)
                if moved is None:
                    continue
                other = index.get(moved.flat)
                if other is not None:
                    ra, rb = find(pos), find(other)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)

    buckets: dict[int, list[CellTable]] = {}
    for pos, t in enumerate(fiber.tables):
        buckets.setdefault(find(pos), []).append(t)
    comps = [tuple(ts) for ts in buckets.values()]
    comps.sort(key=lambda c: (-len(c), c[0].flat))
    return comps


def is_block_diagonal_in_place_by_cells(s: Subset) -> Optional[tuple[int, int]]:
    """The two-block test cell by cell: every (r, c), largest top-left
    block first, against every cell of the mask."""
    m, n = s.shape.m, s.shape.n
    for r in range(m, -1, -1):
        for c in range(n, -1, -1):
            ok = True
            for i in range(m):
                for j in range(n):
                    want = (i < r and j < c) or (i >= r and j >= c)
                    if s.mask[i][j] != want:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return (r, c)
    return None


def _packed_tri_masks(m: int, n: int) -> tuple[int, int]:
    rows2 = cols2 = 0
    for i in range(m):
        for j in range(n):
            b = 1 << (i * n + j)
            if i >= 1:
                rows2 |= b
            if j >= 1:
                cols2 |= b
    return rows2, cols2


def classify_oracle_by_cells(s: Subset) -> Classification:
    """The permutation oracle packing each pair's mask one cell bit at a
    time: rows outer, columns inner, first witness kept for each class."""
    m, n = s.shape.m, s.shape.n
    side = tables_mod.ORACLE_MAX_SIDE
    if m > side or n > side:
        raise BudgetError(f"oracle budget is {side}x{side}, got {s.shape}")
    cells0 = [(i - 1, j - 1) for i, j in s.cells]
    rows2, cols2 = _packed_tri_masks(m, n)
    blocks = _packed_blocks(m, n)
    tri: Optional[PermPair] = None
    blk: Optional[BlockWitness] = None
    for rp in permutations(range(m)):
        for cp in permutations(range(n)):
            bits = 0
            for i, j in cells0:
                bits |= 1 << (rp[i] * n + cp[j])
            if tri is None:
                if not (bits & rows2 & ~(bits << n)) and not (
                    bits & cols2 & ~(bits << 1)
                ):
                    tri = PermPair(
                        tuple(v + 1 for v in rp), tuple(v + 1 for v in cp)
                    )
            if blk is None:
                hit = blocks.get(bits)
                if hit is not None:
                    blk = BlockWitness(
                        hit[0],
                        hit[1],
                        PermPair(
                            tuple(v + 1 for v in rp), tuple(v + 1 for v in cp)
                        ),
                    )
            if tri is not None and blk is not None:
                return Classification(tri, blk)
    return Classification(tri, blk)


def generation_check_by_listing(
    s: Subset,
    gens: GeneratorSet,
    max_degree: int = 4,
) -> GenerationCheck:
    """The fiber hunt over ``fibers_of_degree``: every fiber of every
    degree in margin-key order, each of more than one table split into
    components by ``fiber_components``."""
    for d in range(max_degree + 1):
        for fiber in fibers_of_degree(s, d):
            if fiber.size > 1 and len(fiber_components(fiber, gens)) > 1:
                return GenerationCheck(False, max_degree, fiber)
    return GenerationCheck(True, max_degree, None)


@lru_cache(maxsize=None)
def _neither_patterns() -> dict[tuple, Fiber]:
    """Every 2x3 and 3x2 pattern in neither class, by mask, with its
    first disconnected fiber up to degree 4."""
    out = {}
    for m, n in ((2, 3), (3, 2)):
        for bits in range(1 << (m * n)):
            p = Subset.from_cells(
                m, n, [(k // n + 1, k % n + 1) for k in range(m * n) if bits >> k & 1]
            )
            if classify(p).is_neither:
                out[p.mask] = generation_check(p, build_generators(p), 4).witness
    return out


def neither_by_local_scan(s: Subset) -> Optional[Fiber]:
    """A disconnected fiber of s lifted from the first 2x3 or 3x2
    sub-pattern (chosen rows x chosen columns) in neither class, or None
    when no sub-pattern is.  Margins that vanish outside the chosen rows
    and columns keep every table of the fiber inside them, and a move is
    kept by its own 2x2 minor alone, so the small witness stays one."""
    m, n = s.shape.m, s.shape.n
    patterns = _neither_patterns()
    for rows, cols in chain(
        product(combinations(range(m), 2), combinations(range(n), 3)),
        product(combinations(range(m), 3), combinations(range(n), 2)),
    ):
        w = patterns.get(tuple(tuple(s.mask[i][j] for j in cols) for i in rows))
        if w is None:
            continue
        tables = []
        for t in w.tables:
            entries = [[0] * n for _ in range(m)]
            for i, row in zip(rows, t.entries):
                for j, e in zip(cols, row):
                    entries[i][j] = e
            tables.append(CellTable.from_rows(entries))
        tables.sort(key=lambda t: t.flat)
        return Fiber(margins(s, tables[0]), tuple(t.flat for t in tables))
    return None
