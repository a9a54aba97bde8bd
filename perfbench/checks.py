"""Independent checks on subtoric's outputs.

Nothing here imports the package.  Subsets are 0/1 masks (tuples of
tuples of bools), tables are tuples of row tuples, and every cell index
is 0-based.  The checks restate the mathematics from scratch so that a
change inside the package that alters a result is caught even when the
package stays self-consistent.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb


def quads(m: int, n: int) -> list[tuple[int, int, int, int]]:
    """Every 2x2 minor position (i, j, k, l) with i < j and k < l."""
    return [
        (i, j, k, l)
        for i, j in combinations(range(m), 2)
        for k, l in combinations(range(n), 2)
    ]


def kept_quads(mask) -> list[tuple[int, int, int, int]]:
    """Minors whose antidiagonal and diagonal cell pairs meet S equally
    often: the quadratic moves that keep the subset sum."""
    m, n = len(mask), len(mask[0])
    return [
        (i, j, k, l)
        for i, j, k, l in quads(m, n)
        if mask[i][l] + mask[j][k] == mask[i][k] + mask[j][l]
    ]


def staircase_mask(lengths, n: int):
    """The downward-closed mask whose row i holds its first lengths[i] cells."""
    return tuple(tuple(c < w for c in range(n)) for w in lengths)


@lru_cache(maxsize=None)
def _row_pair_kept(n: int) -> tuple[tuple[int, ...], ...]:
    """kept[a][b]: kept column pairs for two staircase rows of lengths a, b."""
    return tuple(
        tuple(
            sum(
                (l < a) + (k < b) == (k < a) + (l < b)
                for k, l in combinations(range(n), 2)
            )
            for b in range(n + 1)
        )
        for a in range(n + 1)
    )


def staircase_generator_count(lengths, n: int) -> int:
    """len(kept_quads) of a staircase, summed over row pairs."""
    table = _row_pair_kept(n)
    return sum(table[a][b] for a, b in combinations(lengths, 2))


def is_staircase(mask) -> bool:
    """Downward closed as it sits."""
    m, n = len(mask), len(mask[0])
    return all(
        not mask[i][j]
        or ((i == 0 or mask[i - 1][j]) and (j == 0 or mask[i][j - 1]))
        for i in range(m)
        for j in range(n)
    )


def _row_supports(mask) -> list[frozenset]:
    return [frozenset(j for j, hit in enumerate(row) if hit) for row in mask]


def is_triangular(mask) -> bool:
    """Some row/column permutation makes S a staircase exactly when the
    row supports are totally ordered by inclusion."""
    sups = sorted(_row_supports(mask), key=len)
    return all(a <= b for a, b in zip(sups, sups[1:]))


def is_two_block(mask) -> bool:
    """S = A x B plus its complement block exactly when every row's
    support is B or the complement of B, for B the first row's support."""
    sups = _row_supports(mask)
    first = sups[0]
    other = frozenset(range(len(mask[0]))) - first
    return all(s == first or s == other for s in sups)


def _independent_set_counts(size: int, edges, kmax: int) -> list[int]:
    """counts[k]: k-sets of vertices containing no edge, for k <= kmax."""
    adj = [0] * size
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    counts = [0] * (kmax + 1)
    stack = [(0, 0, 0)]
    while stack:
        start, k, banned = stack.pop()
        counts[k] += 1
        if k == kmax:
            continue
        for v in range(start, size):
            if not banned >> v & 1:
                stack.append((v + 1, k + 1, banned | adj[v]))
    return counts


def standard_counts(mask, max_degree: int) -> list[int]:
    """Standard monomials per degree 0..max_degree of a staircase in place.

    Every kept move's leading term is its squarefree antidiagonal, so a
    monomial is standard exactly when its support holds no antidiagonal
    pair; a k-cell support carries C(d-1, k-1) monomials of degree d.
    """
    m, n = len(mask), len(mask[0])
    edges = [(i * n + l, j * n + k) for i, j, k, l in kept_quads(mask)]
    a = _independent_set_counts(m * n, edges, max_degree)
    return [1] + [
        sum(a[k] * comb(d - 1, k - 1) for k in range(1, d + 1))
        for d in range(1, max_degree + 1)
    ]


def table_margins(mask, rows) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(row sums, column sums, subset sum) of a table."""
    cols = tuple(sum(col) for col in zip(*rows))
    s_sum = sum(e for mrow, row in zip(mask, rows) for hit, e in zip(mrow, row) if hit)
    return tuple(sum(r) for r in rows), cols, s_sum


def fiber_size(mask, row_sums, col_sums, s_sum: int) -> int:
    """Number of nonnegative tables with these margins, counted by a
    memoized scan over cells rather than by listing tables."""
    m, n = len(mask), len(mask[0])

    @lru_cache(maxsize=None)
    def count(pos: int, row_left: int, cols_left: tuple, s_left: int) -> int:
        i, j = divmod(pos, n)
        if i == m:
            return int(s_left == 0 and not any(cols_left))
        if j == n - 1:
            choices = (row_left,)
        else:
            choices = range(row_left + 1)
        total = 0
        for e in choices:
            if e > cols_left[j] or (mask[i][j] and e > s_left):
                continue
            left = cols_left[:j] + (cols_left[j] - e,) + cols_left[j + 1 :]
            nxt_row = row_left - e
            if j == n - 1:
                nxt_row = row_sums[i + 1] if i + 1 < m else 0
            total += count(pos + 1, nxt_row, left, s_left - e if mask[i][j] else s_left)
        return total

    return count(0, row_sums[0], tuple(col_sums), s_sum)


def component_count(mask, tables) -> int:
    """Connected components of a set of tables under the kept moves."""
    n = len(mask[0])
    flats = [tuple(e for row in t for e in row) for t in tables]
    index = {f: p for p, f in enumerate(flats)}
    parent = list(range(len(flats)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    deltas = []
    for i, j, k, l in kept_quads(mask):
        d = {i * n + k: 1, j * n + l: 1, i * n + l: -1, j * n + k: -1}
        deltas.append(d)
        deltas.append({c: -v for c, v in d.items()})
    for p, f in enumerate(flats):
        for d in deltas:
            moved = list(f)
            for c, v in d.items():
                moved[c] += v
            q = index.get(tuple(moved))
            if q is not None:
                parent[find(p)] = find(q)
    return len({find(p) for p in range(len(flats))})
