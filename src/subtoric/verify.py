"""One-subset verification pipeline.

Classifies the subset, then certifies one staircase: a triangular
pattern's canonical form, or a block-diagonal pattern's top-left block.
A subset in both classes is a full rectangle, its own block reduction,
and is certified once.  Everything else is searched for a disconnected
fiber that explains why quadratic moves cannot suffice.  A failed
certification on a classified pattern is impossible unless the
implementation is wrong, and raises VerificationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from subtoric import tables
from subtoric.binomials import BuchbergerReport, MonomialOrder
from subtoric.fibers import (
    CensusRow,
    Fiber,
    _check_degree_budget,
    generation_check,
    initial_ideal_census,
)
from subtoric.ideal import (
    GeneratorSet,
    _check_quad_budget,
    block_reduce,
    build_generators,
    move_keys,
    quadratic_gb_check,
)
from subtoric.tables import (
    BudgetError,
    Classification,
    Subset,
    classify,
    is_triangular_in_place,
)


class VerificationError(RuntimeError):
    """A certified property failed; signals a bug, never expected input."""


@dataclass(frozen=True)
class BlockReduction:
    """Outcome of dropping the second block: the reduced pattern, whether
    it keeps the original's moves, and whether it splits the tables of
    every degree into the original's fibers."""

    reduced: Subset
    generators_match: bool
    fibers_match: bool

    def to_json_dict(self) -> dict:
        return {
            "reduced": self.reduced.to_json_dict(),
            "generators_match": self.generators_match,
            "fibers_match": self.fibers_match,
        }


@dataclass(frozen=True)
class VerificationReport:
    classification: Classification
    max_degree: int
    gb: Optional[BuchbergerReport] = None
    census: Optional[list[CensusRow]] = None
    block_reduction: Optional[BlockReduction] = None
    neither_witness: Optional[Fiber] = None
    canonical: Optional[Subset] = None

    def to_json_dict(self) -> dict:
        return {
            "classification": self.classification.to_json_dict(),
            "gb": None if self.gb is None else self.gb.to_json_dict(),
            "census": None
            if self.census is None
            else [r.to_json_dict() for r in self.census],
            "block_reduction": None
            if self.block_reduction is None
            else self.block_reduction.to_json_dict(),
            "neither_witness": None
            if self.neither_witness is None
            else self.neither_witness.to_json_dict(),
        }


def _same_fibers(a: Subset, b: Subset) -> bool:
    """Do the sums over a and over b split the tables of every degree
    into the same fibers?  The adjacent 2x2 moves span the tables with
    zero row and column sums (Diaconis-Sturmfels), and a subset's sum
    over such a move is its contrast S(i,k) - S(i,k+1) - S(i+1,k) +
    S(i+1,k+1).  So the answer is yes exactly when the two contrast
    vectors are both zero, or both nonzero and proportional: every
    cross product with a's first nonzero contrast matches."""
    pairs = [
        (ta[k] - ta[k + 1] - la[k] + la[k + 1], tb[k] - tb[k + 1] - lb[k] + lb[k + 1])
        for ta, la, tb, lb in zip(a.mask, a.mask[1:], b.mask, b.mask[1:])
        for k in range(a.shape.n - 1)
    ]
    px, py = next(((x, y) for x, y in pairs if x), (0, 0))
    b_nonzero = any(y for _, y in pairs)
    return b_nonzero == bool(px) and all(px * y == py * x for x, y in pairs)


def _certify_staircase(
    s: Subset, gset: GeneratorSet, max_degree: int
) -> tuple[BuchbergerReport, list[CensusRow]]:
    """Balanced census, squarefree antidiagonal leading terms, GB pass.
    The pattern must already sit in its staircase corner, and gset must
    be its generator set."""
    if not is_triangular_in_place(s):
        raise VerificationError("certification target is not a staircase in place")
    order = MonomialOrder(s.shape)
    # The census checks every degree's table budget first, so a refusal
    # comes before any move is keyed or any S-pair reduced.
    census = initial_ideal_census(s, gset, order, max_degree)
    bad = [r for r in census if not r.balanced]
    if bad:
        raise VerificationError(f"census unbalanced on staircase: {bad[0]}")
    gens = move_keys(gset, order)
    for q, (anti, diag) in zip(gset, gens):
        if not anti > diag:
            raise VerificationError(
                f"leading term of {q.as_tuple} is not the squarefree antidiagonal"
            )
    gb = quadratic_gb_check(s, gens, order)
    if not gb.passed:
        raise VerificationError(f"Buchberger failed on staircase: {gb.failure}")
    return gb, census


def verify_subset(s: Subset, max_degree: int = 4) -> VerificationReport:
    """Classify, then certify the one staircase the classification names:
    the canonical form if triangular, else the block reduction, once it
    is shown to keep the generators and, by its 2x2 contrasts (see
    _same_fibers), the fibers of every degree.  In both classes the
    subset is a full rectangle, its own reduction, so nothing is compared.
    A classified subset meets the move-count and every degree's table
    budget before any move is built.  Neither: hunt for a disconnected
    fiber, degree by degree; finding none up to the bound is reported
    as witness None, not as success of any generation claim.
    """
    if max_degree < 0:
        raise ValueError(f"degree bound must be nonnegative, got {max_degree}")
    if max_degree > tables.MAX_DEGREE:
        raise BudgetError(
            f"degree bound {max_degree} exceeds budget {tables.MAX_DEGREE}"
        )
    cls = classify(s)
    target = gset = gb = census = block = witness = None
    if not cls.is_neither:
        # Both refusals depend only on the shape and the degree, so a
        # classified subset meets them before any move is built.
        _check_quad_budget(s.shape)
        for d in range(max_degree + 1):
            _check_degree_budget(s.shape, d)

    if cls.triangular is not None:
        target = s.permuted(cls.triangular)
        gset = build_generators(target)

    if cls.block_diagonal is not None:
        moved = s.permuted(cls.block_diagonal.perms)
        reduced = block_reduce(s, cls.block_diagonal)
        if target is None:
            gset = build_generators(reduced)
            generators_match = build_generators(moved).index_set == gset.index_set
            fibers_match = _same_fibers(moved, reduced)
            if not (generators_match and fibers_match):
                raise VerificationError(
                    f"block reduction mismatch: generators_match={generators_match}, "
                    f"fibers_match={fibers_match}"
                )
            target = reduced
        elif not moved == reduced == target:
            raise VerificationError(
                "block reduction of a triangular subset is not the subset "
                f"itself in staircase form: {reduced.cells}"
            )
        block = BlockReduction(reduced, True, True)

    if target is not None:
        gb, census = _certify_staircase(target, gset, max_degree)
    else:
        witness = generation_check(s, build_generators(s), max_degree).witness

    return VerificationReport(
        classification=cls,
        max_degree=max_degree,
        gb=gb,
        census=census,
        block_reduction=block,
        neither_witness=witness,
        canonical=target,
    )
