"""Pure-difference binomial arithmetic under a bottom-row lex order.

Everything here works with two-term polynomials whose coefficients are
+1 and -1, which is all a toric ideal ever needs.  The zero polynomial
is represented by None.  The monomial order ranks the variables of the
bottom table row highest, reading each row left to right and the rows
from the bottom up; comparison is plain lex on that variable sequence.

Division and Buchberger's criterion run on flat exponent tuples laid out
in that precedence order, so comparing two monomials is comparing two
tuples.  Each generator's leading term also carries its support as an
int bitmask, and generators are indexed under the lowest cell of that
support; the first divisor of a monomial is then found by scanning only
the index lists of the cells the monomial uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence

from subtoric.tables import CellTable, PermPair, ShapeMismatchError, TableShape

# A monomial as MonomialOrder.key gives it, and an oriented binomial of two.
Key = tuple[int, ...]
Pair = tuple[Key, Key]


@dataclass(frozen=True)
class MonomialOrder:
    shape: TableShape

    def key(self, t: CellTable) -> Key:
        """Exponents in precedence order: row m first, columns ascending."""
        if t.shape != self.shape:
            raise ShapeMismatchError(f"monomial on {t.shape}, order on {self.shape}")
        return tuple(e for row in reversed(t.entries) for e in row)

    def cells_key(self, cells: Iterable[tuple[int, int]]) -> Key:
        """The key of a product of cell variables, with no CellTable built."""
        m, n = self.shape.m, self.shape.n
        out = [0] * (m * n)
        for i, j in cells:
            if not (1 <= i <= m and 1 <= j <= n):
                raise ValueError(f"cell ({i},{j}) outside {self.shape}")
            out[(m - i) * n + j - 1] += 1
        return tuple(out)


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


class _Divider:
    """Oriented (leading, trailing) generators prepared for division on
    ``MonomialOrder.key`` tuples.  For generator ``idx`` it holds the
    leading term's support as a bitmask, its exponents above 1 (the only
    ones the bitmask cannot check), the nonzero entries of trailing minus
    leading, and, under the lowest set bit of the support, ``idx`` in an
    ascending list.
    """

    def __init__(self, gens: Sequence[Pair], shape: TableShape) -> None:
        self.shape = shape
        self.lead = [lt for lt, _ in gens]
        self.trail = [tt for _, tt in gens]
        self._cells = range(shape.m * shape.n)
        self._bit = tuple(1 << p for p in self._cells)
        self.bits = [self.support_bits(lt) for lt in self.lead]
        self.support = [
            tuple((p, e) for p, e in enumerate(lt) if e) for lt in self.lead
        ]
        self._high = [tuple((p, e) for p, e in sup if e > 1) for sup in self.support]
        self._delta = [
            tuple((p, b - a) for p, (a, b) in enumerate(zip(lt, tt)) if a != b)
            for lt, tt in gens
        ]
        self._by_low: list[list[int]] = [[] for _ in self._cells]
        for idx, b in enumerate(self.bits):
            self._by_low[(b & -b).bit_length() - 1].append(idx)

    def support_bits(self, t: Key) -> int:
        return sum(compress(self._bit, t))

    def first_divisor(self, t: Key) -> Optional[int]:
        """The smallest generator index whose leading term divides t.

        A leading term lives in the list of its lowest support cell, and
        that cell must be in t's support, so only those lists can hold a
        divisor.  Each list is ascending, so its scan stops at the best
        hit found so far.
        """
        tbits = self.support_bits(t)
        bits, high, by_low = self.bits, self._high, self._by_low
        best = len(bits)
        for p in compress(self._cells, t):
            for idx in by_low[p]:
                if idx >= best:
                    break
                if not bits[idx] & ~tbits and (
                    not high[idx] or all(t[q] >= e for q, e in high[idx])
                ):
                    best = idx
                    break
        return best if best < len(bits) else None

    def rewrite(self, t: Key, idx: int) -> Key:
        """t with generator idx's leading term replaced by its trailing term."""
        out = list(t)
        for p, d in self._delta[idx]:
            out[p] += d
        return tuple(out)

    def _lifted_trail(self, i: int, j: int) -> Key:
        """Generator j's trailing term times lcm(lead i, lead j) / lead j."""
        lj = self.lead[j]
        out = list(self.trail[j])
        for p, e in self.support[i]:
            if e > lj[p]:
                out[p] += e - lj[p]
        return tuple(out)

    def s_pair(self, i: int, j: int) -> Optional[Pair]:
        """The S-polynomial of generators i and j, oriented; None when it
        collapses.  Same terms as ``s_polynomial`` on the binomials."""
        a, b = self._lifted_trail(i, j), self._lifted_trail(j, i)
        if a == b:
            return None
        return (a, b) if a > b else (b, a)

    def reduce(
        self, plus: Key, minus: Key
    ) -> tuple[Optional[Pair], list[tuple[int, Optional[Pair]]]]:
        """Divide the leading term until no leading term of a generator
        divides it, then the trailing term likewise.

        Returns the remainder (None when everything cancels) and the steps
        as (generator index, oriented binomial after the step) pairs.
        """
        steps: list[tuple[int, Optional[Pair]]] = []
        first, rewrite = self.first_divisor, self.rewrite
        while (idx := first(plus)) is not None:
            replaced = rewrite(plus, idx)
            if replaced == minus:
                steps.append((idx, None))
                return None, steps
            plus, minus = (replaced, minus) if replaced > minus else (minus, replaced)
            steps.append((idx, (plus, minus)))
        # Oriented generators only shrink a term, so plus stays in front.
        while (idx := first(minus)) is not None:
            minus = rewrite(minus, idx)
            steps.append((idx, (plus, minus)))
        return (plus, minus), steps

    def table(self, t: Key) -> CellTable:
        """The inverse of ``MonomialOrder.key``."""
        n = self.shape.n
        rows = [t[r : r + n] for r in range(0, len(t), n)]
        return CellTable(self.shape, tuple(reversed(rows)))

    def binomial(self, pair: Pair) -> Binomial:
        return Binomial(self.table(pair[0]), self.table(pair[1]))


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


def buchberger_check_keys(gens: Sequence[Pair], order: MonomialOrder) -> BuchbergerReport:
    """``buchberger_check`` on oriented (leading, trailing) key pairs."""
    div = _Divider(gens, order.shape)
    bits = div.bits
    checked = skipped = 0
    failure: Optional[BuchbergerFailure] = None
    for i in range(len(bits)):
        bits_i = bits[i]
        for j in range(i + 1, len(bits)):
            if not bits_i & bits[j]:
                skipped += 1
                continue
            checked += 1
            f = div.s_pair(i, j)
            if f is None:
                continue
            remainder, _ = div.reduce(*f)
            if remainder is not None and failure is None:
                failure = BuchbergerFailure(i, j, div.binomial(remainder))
    return BuchbergerReport(failure is None, checked, skipped, failure)
