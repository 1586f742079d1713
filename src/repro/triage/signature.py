"""Identity of one observed inconsistency, and canonical orderings.

A triggering program diverges in one or more cells of the (compiler pair,
optimization level) matrix.  Triage names each divergence by an
:class:`InconsistencySignature` — the pair, the level, and the
inconsistency *kind* (the paper's §3.3 category pair, or ``print-count``
when the two runs printed different numbers of values and no value pair
can be classified).  The reducer's interesting-predicate is "the candidate
still exhibits the *same* signature"; the clusterer keys on the set of
divergent cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.difftest.classify import kind_label
from repro.difftest.record import ComparisonRecord, ProgramOutcome
from repro.toolchains.optlevels import ALL_LEVELS, OptLevel

__all__ = [
    "PRINT_COUNT_KIND",
    "InconsistencySignature",
    "signature_of",
    "signatures_of",
    "canonical_signature",
    "divergence_cells",
    "level_order",
]

#: Kind label for divergences with no classifiable value pair (the two
#: runs printed different numbers of values).
PRINT_COUNT_KIND = "print-count"


def level_order(level: OptLevel) -> int:
    """Table 1 position of ``level`` (the canonical level ordering)."""
    return ALL_LEVELS.index(level)


@dataclass(frozen=True)
class InconsistencySignature:
    """One divergent cell: compiler pair, level, inconsistency kind."""

    compiler_a: str
    compiler_b: str
    level: OptLevel
    kind: str  # kind_label(...) or PRINT_COUNT_KIND

    @property
    def pair(self) -> tuple[str, str]:
        return (self.compiler_a, self.compiler_b)

    @property
    def cell(self) -> str:
        """The matrix cell alone, without the kind."""
        return f"{self.compiler_a}-{self.compiler_b}@{self.level}"

    def label(self) -> str:
        return f"{self.cell} {self.kind}"

    def sort_key(self) -> tuple:
        """Least-aggressive-configuration-first ordering: level (Table 1
        order), then pair, then kind."""
        return (level_order(self.level), self.compiler_a, self.compiler_b, self.kind)


def signature_of(record: ComparisonRecord) -> InconsistencySignature:
    """The signature of one inconsistent :class:`ComparisonRecord`.

    A structural kind — any divergence-tier tag from :mod:`repro.tiers`
    (``vector-reduction``, ``masked-lane``, ``vec-libm``, ...) — takes
    precedence over the value-class pair: it carries strictly more
    information about the root cause, so triage clusters structural
    divergences separately from same-class environmental ones.  Every
    tier in :data:`repro.tiers.TIERS` flows through here (and hence into
    :func:`repro.corpus.signature_key`) with no per-tag code.  The triage
    oracle names its candidates' divergences by this rule too.
    """
    if record.consistent:
        raise ValueError("comparison is consistent; it has no signature")
    if record.tag is not None:
        kind = record.tag
    else:
        cls = record.kind
        kind = kind_label(cls) if cls is not None else PRINT_COUNT_KIND
    return InconsistencySignature(
        compiler_a=record.compiler_a,
        compiler_b=record.compiler_b,
        level=record.level,
        kind=kind,
    )


def signatures_of(outcome: ProgramOutcome) -> tuple[InconsistencySignature, ...]:
    """All divergent cells of one outcome, in canonical order."""
    sigs = {signature_of(c) for c in outcome.inconsistent_comparisons}
    return tuple(sorted(sigs, key=InconsistencySignature.sort_key))


def canonical_signature(outcome: ProgramOutcome) -> InconsistencySignature:
    """The trigger's canonical divergence: the least aggressive
    configuration that exhibits it (lowest level, first pair).  This is the
    cell the reducer preserves."""
    sigs = signatures_of(outcome)
    if not sigs:
        raise ValueError(f"program {outcome.index} triggered no inconsistency")
    return sigs[0]


def divergence_cells(outcome: ProgramOutcome) -> tuple[str, ...]:
    """The divergent-pair signature used for clustering: every divergent
    (pair, level) cell, canonically ordered, kinds dropped."""
    cells = {s.cell: s.sort_key()[:3] for s in signatures_of(outcome)}
    return tuple(sorted(cells, key=cells.__getitem__))
