"""Shared helpers for the test suite: seeded random subsets and patterns,
and a table-scanning census oracle."""

from __future__ import annotations

import random

from subtoric.binomials import MonomialOrder
from subtoric.fibers import DEFAULT_BUDGET, CensusRow, _check_degree_budget, _margin_parts
from subtoric.ideal import GeneratorSet
from subtoric.tables import CellTable, PermPair, Subset


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
        _check_degree_budget(s.shape, d, DEFAULT_BUDGET)
        standard = 0
        keys = set()
        for flat, rsums, csums in _margin_parts(m, n, d):
            if not any(
                all(flat[idx] >= e for idx, e in req) for req in lead_reqs
            ):
                standard += 1
            keys.add((rsums, csums, sum(flat[idx] for idx in s_idx)))
        rows.append(CensusRow(d, standard, len(keys)))
    return rows
