"""Quadratic moves attached to a subset pattern.

For rows i<j and columns k<l, the move swaps mass between the diagonal
cells (i,k),(j,l) and the antidiagonal cells (i,l),(j,k) of the 2x2
submatrix.  Such a move respects the subset-sum constraint exactly when
the two cell pairs meet the subset equally often; those quadruples form
the generating set studied here.  Also provides the exclusion rule that
characterizes the missing quadruples on staircase patterns, the
reduction of a block-diagonal pattern to its top-left block, and the
Buchberger check of the moves read from their 3x3 restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, compress
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from subtoric import tables
from subtoric.binomials import (
    Binomial,
    BuchbergerReport,
    MonomialOrder,
    Pair,
    _s_pair_count,
    buchberger_check_keys,
    orient,
)
from subtoric.tables import (
    BlockWitness,
    BudgetError,
    CellTable,
    Subset,
    TableShape,
    block_pattern,
    margins,
    restrictions,
)


@dataclass(frozen=True)
class QuadGen:
    """Row pair i<j and column pair k<ell naming one quadratic move."""

    i: int
    j: int
    k: int
    ell: int

    def __post_init__(self) -> None:
        if not (1 <= self.i < self.j and 1 <= self.k < self.ell):
            raise ValueError(
                f"need 1 <= i < j and 1 <= k < ell, got {self.as_tuple}"
            )

    @property
    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.i, self.j, self.k, self.ell)

    @property
    def antidiagonal_cells(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.i, self.ell), (self.j, self.k))

    @property
    def diagonal_cells(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.i, self.k), (self.j, self.ell))

    def expand(self, shape: TableShape) -> Binomial:
        """The move as a binomial: antidiagonal product minus diagonal."""
        _check_fits(shape, self)
        sides = []
        for cells in (self.antidiagonal_cells, self.diagonal_cells):
            flat = [0] * (shape.m * shape.n)
            for i, j in cells:
                flat[(i - 1) * shape.n + j - 1] = 1
            sides.append(CellTable(shape, tuple(flat)))
        return Binomial(*sides)


def _check_fits(shape: TableShape, q: QuadGen) -> None:
    """Refuse a move whose rows or columns lie outside the shape."""
    if q.j > shape.m or q.ell > shape.n:
        raise ValueError(f"move {q.as_tuple} does not fit in {shape}")


def move_keys(moves: Iterable[QuadGen], order: MonomialOrder) -> list[Pair]:
    """Each move's (antidiagonal, diagonal) sides of ``expand`` as order
    keys; not oriented, no CellTable built.  Cell (a, b) sits at position
    (a - m)*n + 1 - b, as ``cells_key`` writes it, and row j > i comes
    first, so each key is written in descending order with no sort."""
    m, n = order.shape.m, order.shape.n
    base = 1 - m * n
    out = []
    for q in moves:
        i, j, k, ell = q.i, q.j, q.k, q.ell
        if j > m or ell > n:
            # The first antidiagonal cell outside, as ``cells_key`` names it.
            a, b = (i, ell) if i > m or ell > n else (j, k)
            raise ValueError(f"cell ({a},{b}) outside {order.shape}")
        top, bottom = i * n + base, j * n + base
        out.append(((bottom - k, top - ell), (bottom - ell, top - k)))
    return out


def _check_quad_budget(shape: TableShape) -> None:
    """Refuse a shape with more than MAX_QUADS candidate moves."""
    count = shape.m * (shape.m - 1) * shape.n * (shape.n - 1) // 4
    if count > tables.MAX_QUADS:
        raise BudgetError(
            f"{count} candidate moves on {shape} exceed budget {tables.MAX_QUADS}"
        )


@lru_cache(maxsize=None)
def _quad_blocks(m: int, n: int) -> tuple[tuple[QuadGen, ...], ...]:
    """Every candidate move on m x n, one block per row pair i < j, each
    block in column-pair order, so the blocks in turn are all_quads order.
    Cached: C(m,2)*C(n,2) frozen moves per shape asked for (441 on 7x7),
    at most MAX_QUADS; callers must budget-check first."""
    cols = list(combinations(range(1, n + 1), 2))
    return tuple(
        tuple(QuadGen(i, j, k, ell) for k, ell in cols)
        for i in range(1, m + 1)
        for j in range(i + 1, m + 1)
    )


def all_quads(shape: TableShape) -> list[QuadGen]:
    """Every row pair and column pair; past MAX_QUADS, none is built."""
    _check_quad_budget(shape)
    return list(chain.from_iterable(_quad_blocks(shape.m, shape.n)))


@dataclass(frozen=True)
class GeneratorSet:
    subset: Subset
    quads: tuple[QuadGen, ...]

    @property
    def index_set(self) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(q.as_tuple for q in self.quads)

    def binomials(self, order: MonomialOrder) -> list[Binomial]:
        return [orient(q.expand(self.subset.shape), order) for q in self.quads]

    def __iter__(self) -> Iterator[QuadGen]:
        return iter(self.quads)

    def __len__(self) -> int:
        return len(self.quads)

    def __contains__(self, q: QuadGen) -> bool:
        return q in self.quads


def build_generators(s: Subset) -> GeneratorSet:
    """Every quadruple whose two cell pairs meet the subset equally often,
    in all_quads order; past MAX_QUADS, none is built.

    Row and column margins of the two products always agree; only the
    subset-sum coordinate can tell them apart.  The antidiagonal (i,l),
    (j,k) and the diagonal (i,k), (j,l) meet S equally often exactly
    when the row pair's indicator differences S(i,c) - S(j,c) are equal
    at columns k and l, so each row pair keeps those moves of its block
    in ``_quad_blocks``.
    """
    _check_quad_budget(s.shape)
    mask, n = s.mask, s.shape.n
    blocks = iter(_quad_blocks(s.shape.m, n))
    cols = list(combinations(range(n), 2))
    kept: list[QuadGen] = []
    for i, upper in enumerate(mask):
        for lower in mask[i + 1 :]:
            diff = [a - b for a, b in zip(upper, lower)]
            kept += compress(next(blocks), [diff[k] == diff[ell] for k, ell in cols])
    return GeneratorSet(s, tuple(kept))


# Pass verdicts of the kept moves on small patterns, keyed (r, c, bits)
# as ``restrictions`` packs them and filled on first use: at most
# 2^(r*c) entries under each r, c <= 3.
_LOCAL_VERDICTS: dict[tuple[int, int, int], bool] = {}


def _local_verdict(r: int, c: int, bits: int) -> bool:
    """Do the kept moves of the packed r x c pattern pass the pair loop?"""
    cells = [(k // c + 1, k % c + 1) for k in range(r * c) if bits >> k & 1]
    s = Subset.from_cells(r, c, cells)
    order = MonomialOrder(s.shape)
    # Under this order the antidiagonal leads every move.
    return buchberger_check_keys(move_keys(build_generators(s), order), order).passed


def quadratic_gb_check(
    s: Subset, gens: Sequence[Pair], order: MonomialOrder
) -> BuchbergerReport:
    """``buchberger_check_keys`` on gens, the oriented move keys of
    ``build_generators(s)``, with its pass verdict read from the
    restrictions of s to min(m,3) rows and min(n,3) columns.

    Locality: whether a move is kept depends on its own 2x2 minor only,
    and restricting rows and columns keeps the order on the cells left,
    so the kept moves inside a restriction are the restriction's own, in
    the same order.  Two leading terms that share a cell span at most 3
    rows and 3 columns; their S-pair and every move that divides it
    along the way lie in those rows and columns.  So every S-pair
    reduces to zero exactly when each restriction passes: a staircase
    passes when all its restrictions, themselves staircases, do.

    The S-pair count and the MAX_S_PAIRS refusal come first.  When a
    restriction fails, the pair loop runs to name the first failing pair.
    """
    # A move's leading term is two distinct cells, its own support.
    checked = _s_pair_count([lt for lt, _ in gens], order.shape)
    r, c = min(s.shape.m, 3), min(s.shape.n, 3)
    for bits in set(map(itemgetter(2), restrictions(s, r, c))):
        verdict = _LOCAL_VERDICTS.get((r, c, bits))
        if verdict is None:
            verdict = _LOCAL_VERDICTS[r, c, bits] = _local_verdict(r, c, bits)
        if not verdict:
            return buchberger_check_keys(gens, order)
    k = len(gens)
    return BuchbergerReport(True, checked, k * (k - 1) // 2 - checked, None)


def minor_excluded(s: Subset, q: QuadGen) -> bool:
    """The staircase exclusion rule: the quadruple's 2x2 submatrix meets
    the subset in exactly the low corner, or in everything except the
    high corner."""
    _check_fits(s.shape, q)
    cells = {
        (q.i, q.k): (q.i, q.k) in s,
        (q.i, q.ell): (q.i, q.ell) in s,
        (q.j, q.k): (q.j, q.k) in s,
        (q.j, q.ell): (q.j, q.ell) in s,
    }
    inside = {c for c, hit in cells.items() if hit}
    low = (q.i, q.k)
    return inside == {low} or inside == {low, (q.i, q.ell), (q.j, q.k)}


def quad_membership(s: Subset, q: QuadGen) -> bool:
    """Does the expanded move respect the subset-sum constraint?

    Decided by comparing margins of the two monomials, independently of
    the counting rule in build_generators.
    """
    f = q.expand(s.shape)
    return margins(s, f.plus) == margins(s, f.minus)


def block_reduce(s: Subset, witness: BlockWitness) -> Subset:
    """Drop the second block: the returned pattern is the top-left r x c
    block alone, in the frame the witness permutes the subset into."""
    moved = s.permuted(witness.perms)
    if moved != block_pattern(s.shape, witness.r, witness.c):
        raise ValueError("witness does not carry the subset onto a block pattern")
    return Subset.from_cells(
        s.shape.m,
        s.shape.n,
        [
            (i, j)
            for i in range(1, witness.r + 1)
            for j in range(1, witness.c + 1)
        ],
    )
