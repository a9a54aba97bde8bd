"""Table shapes, subset patterns, margins, and pattern classification.

A subset S of the m x n index set marks the cells whose entries share a
common sum constraint.  Monomials in the cell variables are stored as
exponent tables.  The margin map sends an exponent table to its row sums,
column sums, and the split of its total degree into the part supported on
S and the part outside S.  Two pattern classes matter downstream: subsets
that are triangular (downward closed after permuting rows and columns)
and subsets that are 2x2 block diagonal up to permutation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations, repeat
from operator import add, getitem, le, sub
from typing import Iterable, Iterator, Optional, Sequence


class ShapeMismatchError(ValueError):
    """Operands live on different table shapes."""


class BudgetError(RuntimeError):
    """An exhaustive computation would pass one of the ceilings below."""


# Hard ceilings on exhaustive work.  Each check reads its ceiling here, as
# tables.NAME, so lowering one constant lowers it for every caller.  Past
# a ceiling the work raises BudgetError (exit 3 on the CLI), never
# truncates; MAX_JSON_CELLS alone is bad input (exit 2).
#
# The highest degree any fiber, listing, census or verification may reach.
MAX_DEGREE = 6
# The most tables one enumerated fiber may hold.
MAX_FIBER_SIZE = 200_000
# The most tables, C(d + mn - 1, mn - 1), one degree may have on a shape.
MAX_TABLES_PER_DEGREE = 200_000
# The most cells a JSON subset may name; its mask is allocated cell by cell.
MAX_JSON_CELLS = 10_000
# The most candidate moves, C(m, 2) * C(n, 2), a shape may build one by one.
MAX_QUADS = 1_000_000
# The most S-pairs (leading terms that share a cell) one Buchberger check reduces.
MAX_S_PAIRS = 1_000_000
# The most steps one random walk may take.
MAX_WALK_STEPS = 10_000_000
# The largest table side classify_oracle takes; it is exponential in the sides.
ORACLE_MAX_SIDE = 5


@dataclass(frozen=True, order=True)
class TableShape:
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"shape sides must be positive, got {self.m}x{self.n}")

    def cells(self) -> list[tuple[int, int]]:
        """All (i, j) positions, 1-based, row-major."""
        return [(i, j) for i in range(1, self.m + 1) for j in range(1, self.n + 1)]

    def __str__(self) -> str:
        return f"{self.m}x{self.n}"


def _load_json(text: str | bytes):
    """json.loads, with nesting past the recursion limit refused as bad
    input; the decoder raises RecursionError there, not ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _check_same_shape(a: TableShape, b: TableShape) -> None:
    if a != b:
        raise ShapeMismatchError(f"shape mismatch: {a} vs {b}")


@dataclass(frozen=True)
class PermPair:
    """A pair of permutations acting on rows and columns.

    row_perm[i-1] is the destination row of original row i, and likewise
    for columns.  Both are 1-based.
    """

    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]

    def __post_init__(self) -> None:
        for name, p in (("row_perm", self.row_perm), ("col_perm", self.col_perm)):
            if sorted(p) != list(range(1, len(p) + 1)):
                raise ValueError(f"{name} is not a permutation of 1..{len(p)}: {p}")

    @classmethod
    def identity(cls, shape: TableShape) -> "PermPair":
        return cls(tuple(range(1, shape.m + 1)), tuple(range(1, shape.n + 1)))

    @classmethod
    def from_orders(
        cls, row_order: Sequence[int], col_order: Sequence[int]
    ) -> "PermPair":
        """Build from target orders: row_order[k] is the original index of
        the row that ends up in position k+1."""
        row_perm = [0] * len(row_order)
        col_perm = [0] * len(col_order)
        for new, old in enumerate(row_order, start=1):
            row_perm[old - 1] = new
        for new, old in enumerate(col_order, start=1):
            col_perm[old - 1] = new
        return cls(tuple(row_perm), tuple(col_perm))

    def inverse(self) -> "PermPair":
        row = [0] * len(self.row_perm)
        col = [0] * len(self.col_perm)
        for old, new in enumerate(self.row_perm, start=1):
            row[new - 1] = old
        for old, new in enumerate(self.col_perm, start=1):
            col[new - 1] = old
        return PermPair(tuple(row), tuple(col))

    def to_json_dict(self) -> dict:
        return {"rows": list(self.row_perm), "cols": list(self.col_perm)}


def _permute_rows(
    rows: Sequence[Sequence], perms: PermPair
) -> tuple[tuple, ...]:
    m = len(rows)
    n = len(rows[0]) if m else 0
    out = [[None] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            out[perms.row_perm[i] - 1][perms.col_perm[j] - 1] = rows[i][j]
    return tuple(tuple(r) for r in out)


@dataclass(frozen=True)
class Subset:
    """A subset of the cells of an m x n table, stored as a 0/1 mask."""

    shape: TableShape
    mask: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        if len(self.mask) != self.shape.m or any(
            len(row) != self.shape.n for row in self.mask
        ):
            raise ValueError("mask dimensions do not match shape")

    @classmethod
    def from_cells(
        cls, m: int, n: int, cells: Iterable[tuple[int, int]]
    ) -> "Subset":
        shape = TableShape(m, n)
        mask = [[False] * n for _ in range(m)]
        for i, j in cells:
            if not (1 <= i <= m and 1 <= j <= n):
                raise ValueError(f"cell ({i},{j}) outside {shape}")
            mask[i - 1][j - 1] = True
        return cls(shape, tuple(tuple(r) for r in mask))

    @classmethod
    def empty(cls, m: int, n: int) -> "Subset":
        return cls.from_cells(m, n, [])

    @classmethod
    def full(cls, m: int, n: int) -> "Subset":
        return cls.from_cells(m, n, TableShape(m, n).cells())

    @classmethod
    def from_text(cls, text: str) -> "Subset":
        """Parse the grid format: one line of '0'/'1' per row.

        Blank lines and lines starting with '#' are skipped.
        """
        rows = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if set(line) - {"0", "1"}:
                raise ValueError(f"grid line has characters other than 0/1: {line!r}")
            rows.append(tuple(ch == "1" for ch in line))
        if not rows:
            raise ValueError("no grid rows found")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("grid rows have unequal lengths")
        shape = TableShape(len(rows), len(rows[0]))
        return cls(shape, tuple(rows))

    @classmethod
    def from_json(cls, data) -> "Subset":
        """Parse {"m": int, "n": int, "cells": [[i, j], ...]}, 1-based;
        strings, floats and booleans are not integers here.  A subset is
        a set of cells, so a cell listed twice counts once."""
        if isinstance(data, (str, bytes)):
            data = _load_json(data)
        try:
            m, n, cells = data["m"], data["n"], [tuple(c) for c in data["cells"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed subset JSON: {exc}") from exc
        # type() rather than isinstance(): JSON true and false are not indices.
        if any(len(c) != 2 for c in cells) or not all(
            type(v) is int for v in [m, n, *chain.from_iterable(cells)]
        ):
            raise ValueError("malformed subset JSON: m, n and cells [i, j] must be integers")
        if m * n > MAX_JSON_CELLS:
            raise ValueError(f"subset JSON shape {m}x{n} exceeds {MAX_JSON_CELLS} cells")
        return cls.from_cells(m, n, cells)

    @property
    def cells(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i + 1, j + 1)
            for i in range(self.shape.m)
            for j in range(self.shape.n)
            if self.mask[i][j]
        )

    @property
    def size(self) -> int:
        return sum(sum(row) for row in self.mask)

    def __contains__(self, cell: tuple[int, int]) -> bool:
        i, j = cell
        return 1 <= i <= self.shape.m and 1 <= j <= self.shape.n and self.mask[i - 1][j - 1]

    def row_support(self, i: int) -> frozenset[int]:
        return frozenset(j + 1 for j, hit in enumerate(self.mask[i - 1]) if hit)

    def col_support(self, j: int) -> frozenset[int]:
        return frozenset(
            i + 1 for i in range(self.shape.m) if self.mask[i][j - 1]
        )

    def complement(self) -> "Subset":
        return Subset(
            self.shape, tuple(tuple(not v for v in row) for row in self.mask)
        )

    def permuted(self, perms: PermPair) -> "Subset":
        if len(perms.row_perm) != self.shape.m or len(perms.col_perm) != self.shape.n:
            raise ShapeMismatchError("permutation sizes do not match shape")
        return Subset(self.shape, _permute_rows(self.mask, perms))

    def to_text(self) -> str:
        return "\n".join(
            "".join("1" if v else "0" for v in row) for row in self.mask
        )

    def to_json_dict(self) -> dict:
        return {
            "m": self.shape.m,
            "n": self.shape.n,
            "cells": [[i, j] for i, j in self.cells],
        }


def _rows(flat: Sequence[int], n: int) -> list:
    """The row-major flat entries cut into their rows of n, as slices."""
    return [flat[c : c + n] for c in range(0, len(flat), n)]


def _cell_index(shape: TableShape, i: int, j: int) -> int:
    """The row-major flat index of cell (i, j), 1-based."""
    if not (1 <= i <= shape.m and 1 <= j <= shape.n):
        raise ValueError(f"cell ({i},{j}) outside {shape}")
    return (i - 1) * shape.n + j - 1


@dataclass(frozen=True, slots=True)
class CellTable:
    """A monomial in the cell variables: one nonnegative exponent per
    cell, stored as the row-major flat tuple of the entries; ``entries``
    is the row view."""

    shape: TableShape
    flat: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.flat) != self.shape.m * self.shape.n:
            raise ValueError("entry dimensions do not match shape")
        if min(self.flat) < 0:
            raise ValueError("exponents must be nonnegative")

    def __repr__(self) -> str:
        return f"CellTable(shape={self.shape!r}, entries={self.entries!r})"

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "CellTable":
        shape = TableShape(len(rows), len(rows[0]) if rows else 0)
        if any(len(row) != shape.n for row in rows):
            raise ValueError("entry dimensions do not match shape")
        return cls(shape, tuple(int(e) for row in rows for e in row))

    @classmethod
    def zero(cls, shape: TableShape) -> "CellTable":
        return cls(shape, (0,) * (shape.m * shape.n))

    @classmethod
    def variable(cls, shape: TableShape, i: int, j: int) -> "CellTable":
        flat = [0] * (shape.m * shape.n)
        flat[_cell_index(shape, i, j)] = 1
        return cls(shape, tuple(flat))

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_rows(self.flat, self.shape.n))

    @property
    def degree(self) -> int:
        return sum(self.flat)

    def entry(self, i: int, j: int) -> int:
        return self.flat[_cell_index(self.shape, i, j)]

    @property
    def support_cells(self) -> tuple[tuple[int, int], ...]:
        n = self.shape.n
        return tuple((p // n + 1, p % n + 1) for p, e in enumerate(self.flat) if e)

    @property
    def is_squarefree(self) -> bool:
        return max(self.flat) <= 1

    def _zip(self, other: "CellTable", op) -> "CellTable":
        _check_same_shape(self.shape, other.shape)
        return CellTable(self.shape, tuple(map(op, self.flat, other.flat)))

    def __mul__(self, other: "CellTable") -> "CellTable":
        return self._zip(other, add)

    def divides(self, other: "CellTable") -> bool:
        _check_same_shape(self.shape, other.shape)
        return all(map(le, self.flat, other.flat))

    def __floordiv__(self, other: "CellTable") -> "CellTable":
        if not other.divides(self):
            raise ValueError("quotient would have negative exponents")
        return self._zip(other, sub)

    def lcm(self, other: "CellTable") -> "CellTable":
        return self._zip(other, max)

    def gcd(self, other: "CellTable") -> "CellTable":
        return self._zip(other, min)

    def coprime(self, other: "CellTable") -> bool:
        _check_same_shape(self.shape, other.shape)
        # Exponents are nonnegative: a cell is shared iff its min is positive.
        return not any(map(min, self.flat, other.flat))

    def permuted(self, perms: PermPair) -> "CellTable":
        if len(perms.row_perm) != self.shape.m or len(perms.col_perm) != self.shape.n:
            raise ShapeMismatchError("permutation sizes do not match shape")
        rows = _permute_rows(self.entries, perms)
        return CellTable(self.shape, tuple(chain.from_iterable(rows)))

    def to_json_dict(self) -> list[list[int]]:
        return [list(row) for row in _rows(self.flat, self.shape.n)]

    def __str__(self) -> str:
        n = self.shape.n
        parts = [
            f"x{p // n + 1}{p % n + 1}" + (f"^{e}" if e > 1 else "")
            for p, e in enumerate(self.flat)
            if e
        ]
        return "*".join(parts) or "1"


@dataclass(frozen=True)
class Margins:
    """Row sums, column sums, and the in/out degree split of a monomial.

    in_sum counts the exponents on cells inside the subset, out_sum the
    rest.  Row totals and column totals both equal the monomial degree,
    and in_sum lies in 0..degree.
    """

    row_sums: tuple[int, ...]
    col_sums: tuple[int, ...]
    in_sum: int

    def __post_init__(self) -> None:
        total = sum(self.row_sums)
        if total != sum(self.col_sums) or not 0 <= self.in_sum <= total:
            raise ValueError("margin totals disagree")

    @property
    def degree(self) -> int:
        return sum(self.row_sums)

    @property
    def out_sum(self) -> int:
        return self.degree - self.in_sum

    def __add__(self, other: "Margins") -> "Margins":
        if len(self.row_sums) != len(other.row_sums) or len(self.col_sums) != len(
            other.col_sums
        ):
            raise ShapeMismatchError("margin vectors have different lengths")
        return Margins(
            tuple(a + b for a, b in zip(self.row_sums, other.row_sums)),
            tuple(a + b for a, b in zip(self.col_sums, other.col_sums)),
            self.in_sum + other.in_sum,
        )

    def sort_key(self) -> tuple:
        return (self.row_sums, self.col_sums, self.in_sum)

    def to_json_dict(self) -> dict:
        return {
            "rows": list(self.row_sums),
            "cols": list(self.col_sums),
            "s_sum": self.in_sum,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Margins":
        """Parse a margin key, refusing one no table can have: missing or
        non-integer fields, negative sums, or s_sum outside 0..total."""
        if not isinstance(data, dict):
            raise ValueError(f"margin key must be a JSON object, got {data!r}")
        missing = [f for f in ("rows", "cols", "s_sum") if f not in data]
        if missing:
            raise ValueError(f"margin key lacks {', '.join(missing)}")
        rows, cols, s_sum = data["rows"], data["cols"], data["s_sum"]
        if not (isinstance(rows, list) and isinstance(cols, list)):
            raise ValueError("margin key rows and cols must be lists")
        # type() rather than isinstance(): JSON true and false are not sums.
        if not all(type(v) is int for v in rows + cols + [s_sum]):
            raise ValueError("margin key sums must be integers")
        if any(v < 0 for v in rows + cols):
            raise ValueError("margin key has a negative row or column sum")
        total = sum(rows)
        if not 0 <= s_sum <= total:
            raise ValueError(f"margin key s_sum {s_sum} is outside 0..{total}")
        return cls(tuple(rows), tuple(cols), s_sum)


def margins(subset: Subset, table: CellTable) -> Margins:
    """Margins of a monomial relative to a subset pattern."""
    _check_same_shape(subset.shape, table.shape)
    flat, n = table.flat, table.shape.n
    row_sums = tuple(map(sum, _rows(flat, n)))
    col_sums = tuple(sum(flat[j::n]) for j in range(n))
    in_sum = sum(e for hit, e in zip(chain.from_iterable(subset.mask), flat) if hit)
    return Margins(row_sums, col_sums, in_sum)


# ---------------------------------------------------------------------------
# Pattern classification


@dataclass(frozen=True)
class BlockWitness:
    """Permutations carrying S onto a top-left r x c block plus the
    complementary bottom-right block."""

    r: int
    c: int
    perms: PermPair

    def to_json_dict(self) -> dict:
        return {"r": self.r, "c": self.c, "perms": self.perms.to_json_dict()}


@dataclass(frozen=True)
class Classification:
    """Which of the two pattern classes S falls into, with witnesses.

    Either field is None when S is not in that class; both present and
    both absent are possible.
    """

    triangular: Optional[PermPair] = None
    block_diagonal: Optional[BlockWitness] = None

    @property
    def is_neither(self) -> bool:
        return self.triangular is None and self.block_diagonal is None

    def to_json_dict(self) -> dict:
        return {
            "triangular": None
            if self.triangular is None
            else self.triangular.to_json_dict(),
            "block_diagonal": None
            if self.block_diagonal is None
            else self.block_diagonal.to_json_dict(),
        }


def is_triangular_in_place(s: Subset) -> bool:
    """True iff S is downward closed as it sits: (i,j) in S forces every
    (i',j') with i' <= i, j' <= j into S."""
    for i in range(s.shape.m):
        for j in range(s.shape.n):
            if not s.mask[i][j]:
                continue
            if i > 0 and not s.mask[i - 1][j]:
                return False
            if j > 0 and not s.mask[i][j - 1]:
                return False
    return True


def restrictions(
    s: Subset, r: int, c: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Every restriction of s to r of its rows and c of its columns, each
    kept in order, as (rows, cols, bits): 0-based ascending indices and
    the r x c mask with its cell (a, b) at bit a*c + b."""
    col_sets = list(combinations(range(s.shape.n), c))
    packed = [
        [sum(row[j] << b for b, j in enumerate(cols)) for cols in col_sets] for row in s.mask
    ]
    # Each row's bits on every column choice, moved up to restriction row a.
    shifted = [[[p << a * c for p in ps] for ps in packed] for a in range(r)]
    for rows in combinations(range(s.shape.m), r):
        lanes = zip(*(shifted[a][i] for a, i in enumerate(rows)))
        yield from zip(repeat(rows), col_sets, map(sum, lanes))


def block_pattern(shape: TableShape, r: int, c: int) -> Subset:
    """The literal two-block subset: full r x c top-left block plus full
    bottom-right complement block."""
    if not (0 <= r <= shape.m and 0 <= c <= shape.n):
        raise ValueError(f"block sizes ({r},{c}) outside {shape}")
    cells = [(i, j) for i in range(1, r + 1) for j in range(1, c + 1)]
    cells += [
        (i, j)
        for i in range(r + 1, shape.m + 1)
        for j in range(c + 1, shape.n + 1)
    ]
    return Subset.from_cells(shape.m, shape.n, cells)


@lru_cache(maxsize=None)
def _packed_blocks(m: int, n: int) -> dict[int, tuple[int, int]]:
    """Each two-block pattern's mask (cell (i, j) at bit i*n + j) mapped to
    its first (r, c), largest top-left block first.  Cached; read only."""
    full = (1 << n) - 1
    table: dict[int, tuple[int, int]] = {}
    for r in range(m, -1, -1):
        for c in range(n, -1, -1):
            left = (1 << c) - 1
            bits = sum((left if i < r else full ^ left) << (i * n) for i in range(m))
            table.setdefault(bits, (r, c))
    return table


def is_block_diagonal_in_place(s: Subset) -> Optional[tuple[int, int]]:
    """The first (r, c) realizing the two-block pattern without moving
    anything, or None.  Larger top-left blocks are preferred, so the full
    subset reports (m, n) and the empty subset (m, 0)."""
    bits = sum(1 << p for p, hit in enumerate(chain.from_iterable(s.mask)) if hit)
    return _packed_blocks(s.shape.m, s.shape.n).get(bits)


def _triangular_witness(s: Subset, sups: list[frozenset[int]]) -> Optional[PermPair]:
    m, n = s.shape.m, s.shape.n
    row_order = sorted(range(1, m + 1), key=lambda i: (-len(sups[i - 1]), i))
    # Triangular up to permutation iff the row supports form a chain under
    # inclusion; with supports sorted by size it suffices to nest neighbors.
    for a, b in zip(row_order, row_order[1:]):
        if not sups[b - 1] <= sups[a - 1]:
            return None
    col_sums = [len(s.col_support(j)) for j in range(1, n + 1)]
    col_order = sorted(range(1, n + 1), key=lambda j: (-col_sums[j - 1], j))
    return PermPair.from_orders(row_order, col_order)


def _block_witness(s: Subset, sups: list[frozenset[int]]) -> Optional[BlockWitness]:
    m, n = s.shape.m, s.shape.n
    distinct = set(sups)
    all_cols = frozenset(range(1, n + 1))
    if len(distinct) > 2:
        return None
    if len(distinct) == 1:
        # Every row looks the same: one block holds all rows and the
        # support columns, the other block is empty.
        top_cols = sups[0]
        top_rows = list(range(1, m + 1))
    else:
        p, q = distinct
        if p & q or (p | q) != all_cols:
            return None
        # The first row's class goes on top, except an all-empty class
        # always goes to the bottom block.
        if not p or not q:
            top_cols = p or q
        else:
            top_cols = sups[0]
        top_rows = [i for i in range(1, m + 1) if sups[i - 1] == top_cols]
    bottom_rows = [i for i in range(1, m + 1) if sups[i - 1] != top_cols]
    col_order = sorted(top_cols) + sorted(all_cols - top_cols)
    perms = PermPair.from_orders(top_rows + bottom_rows, col_order)
    return BlockWitness(len(top_rows), len(top_cols), perms)


def classify(s: Subset) -> Classification:
    """Fast recognition of both pattern classes, with witnesses."""
    sups = [s.row_support(i) for i in range(1, s.shape.m + 1)]
    return Classification(_triangular_witness(s, sups), _block_witness(s, sups))


# ---------------------------------------------------------------------------
# Permutation oracle: each class checked from its definition, one
# permutation axis at a time where the definition splits


def classify_oracle(s: Subset) -> Classification:
    """Definition-checking oracle over every row/column permutation pair,
    rows outer and columns inner, keeping the first witness of each class.

    S is a staircase after (rp, cp) iff each target row lies inside the
    row above it, which only rp decides, and each row is a left-justified
    run, which only cp decides; so the triangular witness pairs the first
    such rp with the first such cp.  Sorted row and column sums survive
    every permutation, so the pair loop for the two-block class runs only
    when they equal those of some block pattern.  Exponential in the table
    sides; refuses shapes beyond ORACLE_MAX_SIDE.  Witnesses may differ from
    classify's, the flags never do.
    """
    m, n = s.shape.m, s.shape.n
    if m > ORACLE_MAX_SIDE or n > ORACLE_MAX_SIDE:
        raise BudgetError(
            f"oracle budget is {ORACLE_MAX_SIDE}x{ORACLE_MAX_SIDE}, got {s.shape}"
        )
    hits = [[j for j, hit in enumerate(row) if hit] for row in s.mask]
    masks = [sum(1 << j for j in h) for h in hits]

    def nests(rp: tuple[int, ...]) -> bool:
        # rp sends source row i to target row rp[i]; read S's rows in
        # target order, each inside the one above it.
        target = [masks[i] for i in sorted(range(m), key=rp.__getitem__)]
        return not any(b & ~a for a, b in zip(target, target[1:]))

    tri_rp = next(filter(nests, permutations(range(m))), None)
    sums = (sorted(map(len, hits)), sorted(map(sum, zip(*s.mask))))
    sums_match_block = sums in [
        (sorted([c] * r + [n - c] * (m - r)), sorted([r] * c + [m - r] * (n - c)))
        for r in range(m + 1)
        for c in range(n + 1)
    ]
    if tri_rp is None and not sums_match_block:
        return Classification()
    col_perms = list(permutations(range(n)))
    # permuted[c][i]: row i of S with columns permuted by col_perms[c].
    permuted = []
    for cp in col_perms:
        col_bits = [1 << c for c in cp]
        permuted.append([sum(map(col_bits.__getitem__, h)) for h in hits])

    def pair(rp: tuple[int, ...], cp: tuple[int, ...]) -> PermPair:
        return PermPair(tuple(v + 1 for v in rp), tuple(v + 1 for v in cp))

    tri: Optional[PermPair] = None
    if tri_rp is not None:
        for cp, rows in zip(col_perms, permuted):
            if not any(r & (r + 1) for r in rows):
                tri = pair(tri_rp, cp)
                break
    if sums_match_block:
        blocks = _packed_blocks(m, n)
        # Each row pre-shifted to every target row; rows are disjoint, so
        # summing one shifted row per source row packs the permuted subset.
        shifts = [r * n for r in range(m)]
        shifted = [
            [tuple(map(b.__lshift__, shifts)) for b in rows] for rows in permuted
        ]
        for rp in permutations(range(m)):
            for cp, per_row in zip(col_perms, shifted):
                bits = sum(map(getitem, per_row, rp))
                if bits in blocks:
                    blk = BlockWitness(*blocks[bits], pair(rp, cp))
                    return Classification(tri, blk)
    return Classification(tri)
