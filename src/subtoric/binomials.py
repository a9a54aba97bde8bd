"""Pure-difference binomial arithmetic under a bottom-row lex order.

Everything here works with two-term polynomials whose coefficients are
+1 and -1, which is all a toric ideal ever needs.  The zero polynomial
is represented by None.  The monomial order ranks the variables of the
bottom table row highest, reading each row left to right and the rows
from the bottom up; comparison is plain lex on that variable sequence.

Division and Buchberger's criterion run on sparse keys: a monomial is the
tuple of its variables' negated precedence positions, one entry per unit
of exponent, in descending order, so comparing two monomials is comparing
two tuples, whatever their degrees.  A leading term divides a monomial
exactly when it is one of the monomial's sub-multisets, so the first
divisor is found by dictionary lookups of those sub-multisets, and an
S-pair is formed only for leading terms that share a cell.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Optional, Sequence

from subtoric import tables
from subtoric.tables import (
    BudgetError,
    CellTable,
    PermPair,
    ShapeMismatchError,
    TableShape,
    _rows,
)

# A monomial as MonomialOrder.key gives it, and an oriented binomial of two.
Key = tuple[int, ...]
Pair = tuple[Key, Key]


@dataclass(frozen=True)
class MonomialOrder:
    shape: TableShape

    def key(self, t: CellTable) -> Key:
        """Each variable's negated precedence position (row m first,
        columns ascending, from 0), repeated by its exponent, descending."""
        if t.shape != self.shape:
            raise ShapeMismatchError(f"monomial on {t.shape}, order on {self.shape}")
        flat = chain.from_iterable(reversed(_rows(t.flat, self.shape.n)))
        return tuple(-p for p, e in enumerate(flat) for _ in range(e))

    def cells_key(self, cells: Iterable[tuple[int, int]]) -> Key:
        """The key of a product of cell variables, with no CellTable built."""
        m, n = self.shape.m, self.shape.n
        out = []
        for i, j in cells:
            if not (1 <= i <= m and 1 <= j <= n):
                raise ValueError(f"cell ({i},{j}) outside {self.shape}")
            out.append((i - m) * n + 1 - j)
        return tuple(sorted(out, reverse=True))


def lex_compare(a: CellTable, b: CellTable, order: MonomialOrder) -> int:
    """-1, 0, or 1 as a is smaller than, equal to, or greater than b."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


@dataclass(frozen=True)
class Binomial:
    """plus - minus with unit coefficients; the two monomials differ."""

    plus: CellTable
    minus: CellTable

    def __post_init__(self) -> None:
        if self.plus.shape != self.minus.shape:
            raise ShapeMismatchError("binomial sides on different shapes")
        if self.plus == self.minus:
            raise ValueError("plus and minus coincide; use None for zero")

    @property
    def shape(self) -> TableShape:
        return self.plus.shape

    def swapped(self) -> "Binomial":
        return Binomial(self.minus, self.plus)

    def is_oriented(self, order: MonomialOrder) -> bool:
        return lex_compare(self.plus, self.minus, order) > 0

    def permuted(self, perms: PermPair) -> "Binomial":
        return Binomial(self.plus.permuted(perms), self.minus.permuted(perms))

    def __str__(self) -> str:
        return f"{self.plus}-{self.minus}"


def orient(f: Binomial, order: MonomialOrder) -> Binomial:
    """Put the order-larger monomial in front.  Idempotent."""
    return f if f.is_oriented(order) else f.swapped()


def _oriented_keys(f: Binomial, order: MonomialOrder, who: str) -> Pair:
    plus, minus = order.key(f.plus), order.key(f.minus)
    if not plus > minus:
        raise ValueError(f"{who} requires oriented input, got {f}")
    return plus, minus


def s_polynomial(
    g1: Binomial, g2: Binomial, order: MonomialOrder
) -> Optional[Binomial]:
    """The lcm cancellation of two oriented binomials, returned oriented.

    None when the combination collapses, e.g. for equal inputs.
    """
    _oriented_keys(g1, order, "s_polynomial")
    _oriented_keys(g2, order, "s_polynomial")
    big = g1.plus.lcm(g2.plus)
    a = (big // g2.plus) * g2.minus
    b = (big // g1.plus) * g1.minus
    if a == b:
        return None
    return orient(Binomial(a, b), order)


@dataclass(frozen=True)
class ReductionStep:
    """One rewrite: generator lt divided a term, the cofactor of its
    trailing monomial replaced it."""

    generator_index: int
    before: Binomial
    after: Optional[Binomial]

    def to_json_dict(self) -> dict:
        return {
            "generator_index": self.generator_index,
            "before": str(self.before),
            "after": None if self.after is None else str(self.after),
        }


def _replaced(t: Key, old: Key, new: Key) -> Key:
    """t with one copy of each entry of old removed, where present (old
    need not divide an S-pair's term), and new's entries added, in key order."""
    out = list(t)
    for p in old:
        if p in out:
            out.remove(p)
    out += new
    out.sort(reverse=True)
    return tuple(out)


class _Divider:
    """Oriented (leading, trailing) generators prepared for division on
    ``MonomialOrder.key`` tuples: each distinct leading term maps to the
    smallest index that has it.
    """

    def __init__(self, gens: Sequence[Pair], shape: TableShape) -> None:
        self.shape = shape
        self.lead = [lt for lt, _ in gens]
        self.trail = [tt for _, tt in gens]
        self._first: dict[Key, int] = {}
        for idx, lt in enumerate(self.lead):
            self._first.setdefault(lt, idx)
        self._degrees = sorted({len(lt) for lt in self._first})

    def reduce(
        self, plus: Key, minus: Key
    ) -> tuple[Optional[Pair], list[tuple[int, Optional[Pair]]]]:
        """Divide the leading term until no leading term of a generator
        divides it, then the trailing term likewise.  The divisor is the
        smallest index found among the term's sub-multisets.

        Returns the remainder (None when everything cancels) and the steps
        as (generator index, oriented binomial after the step) pairs.
        """
        steps: list[tuple[int, Optional[Pair]]] = []
        get, degrees, lead, trail = self._first.get, self._degrees, self.lead, self.trail
        none = len(lead)
        pair = (plus, minus)
        # Oriented generators only shrink a term, so the trailing one stays behind.
        for side in (0, 1):
            while True:
                t, other = pair[side], pair[1 - side]
                idx = none
                for d in degrees:
                    for sub in combinations(t, d):
                        found = get(sub, none)
                        if found < idx:
                            idx = found
                if idx == none:
                    break
                # The divisor's leading term is a sub-multiset of t.
                out = list(t)
                for p in lead[idx]:
                    out.remove(p)
                out += trail[idx]
                out.sort(reverse=True)
                t = tuple(out)
                if t == other:
                    steps.append((idx, None))
                    return None, steps
                pair = (t, other) if t > other else (other, t)
                steps.append((idx, pair))
        return pair, steps

    def binomial(self, pair: Pair) -> Binomial:
        """The inverse of ``MonomialOrder.key`` on both sides."""
        m, n = self.shape.m, self.shape.n
        sides = []
        for t in pair:
            flat = [0] * (m * n)
            for q in t:
                r, c = divmod(-q, n)
                flat[(m - 1 - r) * n + c] += 1
            sides.append(CellTable(self.shape, tuple(flat)))
        return Binomial(*sides)


def normal_form(
    f: Optional[Binomial], gens: Sequence[Binomial], order: MonomialOrder
) -> tuple[Optional[Binomial], list[ReductionStep]]:
    """Deterministic division: reduce the leading term until no generator's
    leading term divides it, then the trailing term likewise.

    Generators must be oriented.  They are tried in list order, first
    divisor wins.  Each step replaces a monomial by a strictly smaller
    one, so the loop ends.  Returns the irreducible remainder (None when
    everything cancels) and the full step trace.
    """
    trace: list[ReductionStep] = []
    if f is None:
        return None, trace
    plus, minus = _oriented_keys(f, order, "normal_form")
    div = _Divider([_oriented_keys(g, order, "normal_form") for g in gens], order.shape)
    _, steps = div.reduce(plus, minus)
    current: Optional[Binomial] = f
    for idx, after in steps:
        nxt = None if after is None else div.binomial(after)
        trace.append(ReductionStep(idx, current, nxt))
        current = nxt
    # The state after the last step is the remainder.
    return current, trace


@dataclass(frozen=True)
class BuchbergerFailure:
    i: int
    j: int
    remainder: Binomial

    def to_json_dict(self) -> dict:
        return {"pair": [self.i, self.j], "remainder": str(self.remainder)}


@dataclass(frozen=True)
class BuchbergerReport:
    passed: bool
    checked_pairs: int
    skipped_coprime: int
    failure: Optional[BuchbergerFailure]

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "checked_pairs": self.checked_pairs,
            "skipped_coprime": self.skipped_coprime,
            "failure": None if self.failure is None else self.failure.to_json_dict(),
        }


def buchberger_check(
    gens: Sequence[Binomial], order: MonomialOrder
) -> BuchbergerReport:
    """Does every S-polynomial of a generator pair reduce to zero?

    Pairs whose leading monomials share no variable are skipped; their
    S-polynomials always reduce to zero.  All pairs are visited even
    after a failure, so the counts are complete, and the reported
    failure is the first one in pair order.
    """
    keyed = [_oriented_keys(g, order, "buchberger_check") for g in gens]
    return buchberger_check_keys(keyed, order)


def _s_pair_count(supports: Sequence[Key], shape: TableShape) -> int:
    """How many pairs of leading terms share a cell, given each one's
    distinct cells: inclusion-exclusion over each support's 2^s - 1
    nonempty cell sets.  A set of 2 or more cells that only one support
    holds adds 0, so those sets are counted only when some support has
    more than 2 cells or repeats.  More than MAX_S_PAIRS raise BudgetError."""
    count = sum(k * (k - 1) // 2 for k in Counter(chain.from_iterable(supports)).values())
    if any(len(sup) > 2 for sup in supports) or len(set(supports)) < len(supports):
        shared = Counter(
            cells for sup in supports for r in range(2, len(sup) + 1)
            for cells in combinations(sup, r)
        )
        count += sum((-1) ** (len(c) + 1) * k * (k - 1) // 2 for c, k in shared.items())
    if count > tables.MAX_S_PAIRS:
        raise BudgetError(f"{count} S-pairs on {shape} exceed budget {tables.MAX_S_PAIRS}")
    return count


def buchberger_check_keys(gens: Sequence[Pair], order: MonomialOrder) -> BuchbergerReport:
    """``buchberger_check`` on oriented (leading, trailing) key pairs.

    Generators are filed under their leading terms' cells, and the pairs
    to check are read off those lists.  Their number comes first, from
    ``_s_pair_count``, so a refusal comes before any reduction.
    """
    div = _Divider(gens, order.shape)
    supports = [tuple(dict.fromkeys(lt)) for lt in div.lead]
    checked = _s_pair_count(supports, order.shape)
    by_cell: defaultdict[int, list[int]] = defaultdict(list)
    for idx, sup in enumerate(supports):
        for p in sup:
            by_cell[p].append(idx)
    lead, trail = div.lead, div.trail
    failure: Optional[BuchbergerFailure] = None
    for i, sup in enumerate(supports):
        li, ti = lead[i], trail[i]
        later: set[int] = set()
        for p in sup:
            row = by_cell[p]
            later.update(row[bisect_right(row, i) :])
        for j in sorted(later):
            # Each trailing term times lcm(lead i, lead j) / its own lead;
            # the same terms as ``s_polynomial``.
            a, b = _replaced(li, lead[j], trail[j]), _replaced(lead[j], li, ti)
            if a == b:
                continue
            remainder, _ = div.reduce(*((a, b) if a > b else (b, a)))
            if remainder is not None and failure is None:
                failure = BuchbergerFailure(i, j, div.binomial(remainder))
    k = len(supports)
    return BuchbergerReport(failure is None, checked, k * (k - 1) // 2 - checked, failure)
