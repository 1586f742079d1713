"""Campaign-wide trigger clustering and the ranked triage report.

A budget-N campaign can produce dozens of triggering programs that all
boil down to a handful of root causes.  The clusterer triages each
trigger — bisect every divergent cell to a responsible pass / environment
delta, optionally reduce the program — and dedupes by

    (inconsistency kinds, responsible passes, divergent-cell pattern)

so a nightly run reads as "3 findings" instead of "41 triggering
programs".  Clusters are ranked by size (ties broken by key), each is
represented by its smallest reduced member, and rendering avoids
timestamps, timings and machine paths, so two triage runs over the same
campaign produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.difftest.record import CampaignResult, ProgramOutcome
from repro.errors import TriageError
from repro.execution.limits import DEFAULT_MAX_STEPS
from repro.toolchains import default_compilers
from repro.toolchains.base import Compiler
from repro.triage.bisect import BisectionResult, bisect_signature
from repro.triage.oracle import compilers_by_name
from repro.triage.reduce import DEFAULT_MAX_TESTS, ReductionResult, reduce_program
from repro.triage.signature import (
    InconsistencySignature,
    canonical_signature,
    divergence_cells,
    signatures_of,
)
from repro.utils.tables import TextTable

__all__ = [
    "TriageEntry",
    "TriageCluster",
    "TriageReport",
    "outcome_signature",
    "triage_outcomes",
    "cluster_entries",
    "triage_campaign",
    "triage_results",
    "triage_single",
]


def outcome_signature(
    outcome: ProgramOutcome,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The cheap part of a trigger's cluster identity: (kinds, cells).

    The full :attr:`TriageEntry.cluster_key` needs per-cell bisection;
    this bisection-free projection — the same ``kinds`` and ``cells`` a
    full triage computes — is what island fitness scores signature
    novelty against, so scoring stays cheap enough to run inline during
    generation.
    """
    sigs = signatures_of(outcome)
    kinds = tuple(sorted({s.kind for s in sigs}))
    return kinds, divergence_cells(outcome)


@dataclass(frozen=True)
class TriageEntry:
    """One triggering program, fully triaged."""

    source_label: str  # campaign/checkpoint this trigger came from
    index: int  # budget index within that campaign
    program_source: str
    inputs: tuple
    canonical: InconsistencySignature
    cells: tuple[str, ...]  # divergent-pair signature across the matrix
    kinds: tuple[str, ...]  # distinct inconsistency kinds, sorted
    bisections: tuple[BisectionResult, ...]  # one per divergent cell
    reduction: ReductionResult | None  # None when reduction was skipped

    @property
    def responsibles(self) -> tuple[str, ...]:
        """Distinct responsible-pass/environment labels, sorted."""
        return tuple(sorted({b.responsible for b in self.bisections}))

    @property
    def env_deltas(self) -> tuple[str, ...]:
        """Distinct observable environment deltas, sorted."""
        return tuple(
            sorted({b.env_delta.label() for b in self.bisections if b.env_delta})
        )

    @property
    def reduced_source(self) -> str:
        return (
            self.reduction.reduced_source
            if self.reduction is not None
            else self.program_source
        )

    @property
    def cluster_key(self) -> tuple:
        return (self.kinds, self.responsibles, self.cells)


@dataclass
class TriageCluster:
    """All triggers sharing one (kinds, responsibles, cells) root cause."""

    key: tuple
    entries: list[TriageEntry] = field(default_factory=list)

    @property
    def kinds(self) -> tuple[str, ...]:
        return self.key[0]

    @property
    def responsibles(self) -> tuple[str, ...]:
        return self.key[1]

    @property
    def cells(self) -> tuple[str, ...]:
        return self.key[2]

    @property
    def count(self) -> int:
        return len(self.entries)

    @property
    def representative(self) -> TriageEntry:
        """Smallest reduced member (ties: source text, then origin)."""
        return min(
            self.entries,
            key=lambda e: (
                len(e.reduced_source),
                e.reduced_source,
                e.source_label,
                e.index,
            ),
        )


def _triage_one(
    outcome: ProgramOutcome,
    compilers: list[Compiler],
    source_label: str,
    reduce: bool,
    max_steps: int,
    max_reduce_tests: int,
    bisect_cache: dict,
) -> TriageEntry:
    sigs = signatures_of(outcome)
    canonical = canonical_signature(outcome)
    by_name = compilers_by_name(compilers)
    program = outcome.program
    bisections = []
    for sig in sigs:
        # Levels with identical (pipeline, environment) classes on both
        # sides bisect identically; memoize by cache token.
        ca, cb = by_name.get(sig.compiler_a), by_name.get(sig.compiler_b)
        if ca is None or cb is None:
            missing = sig.compiler_a if ca is None else sig.compiler_b
            raise TriageError(
                f"campaign names compiler {missing!r} but it was not provided"
            )
        key = (
            program.source,
            sig.compiler_a,
            sig.compiler_b,
            ca.cache_token(sig.level),
            cb.cache_token(sig.level),
            sig.kind,
        )
        if key not in bisect_cache:
            bisect_cache[key] = bisect_signature(
                program.source, program.inputs, sig, compilers, max_steps=max_steps
            )
        cached = bisect_cache[key]
        bisections.append(
            cached if cached.target == sig else BisectionResult(
                target=sig,
                responsible_pass=cached.responsible_pass,
                env_delta=cached.env_delta,
                env_deltas=cached.env_deltas,
                trace=cached.trace,
            )
        )
    reduction = None
    if reduce:
        reduction = reduce_program(
            program.source,
            program.inputs,
            canonical,
            compilers,
            max_steps=max_steps,
            max_tests=max_reduce_tests,
        )
    return TriageEntry(
        source_label=source_label,
        index=outcome.index,
        program_source=program.source,
        inputs=program.inputs,
        canonical=canonical,
        cells=divergence_cells(outcome),
        kinds=tuple(sorted({s.kind for s in sigs})),
        bisections=tuple(bisections),
        reduction=reduction,
    )


def triage_outcomes(
    outcomes: list[ProgramOutcome],
    compilers: list[Compiler] | None = None,
    source_label: str = "",
    reduce: bool = True,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_reduce_tests: int = DEFAULT_MAX_TESTS,
    _bisect_cache: dict | None = None,
) -> list[TriageEntry]:
    """Triage every triggering outcome (non-triggering ones are skipped)."""
    compilers = compilers if compilers is not None else default_compilers()
    cache = _bisect_cache if _bisect_cache is not None else {}
    entries = []
    for outcome in outcomes:
        if not outcome.triggered:
            continue
        entries.append(
            _triage_one(
                outcome,
                compilers,
                source_label,
                reduce,
                max_steps,
                max_reduce_tests,
                cache,
            )
        )
    return entries


def cluster_entries(entries: list[TriageEntry]) -> list[TriageCluster]:
    """Group by root-cause key; rank by size desc, then key."""
    clusters: dict[tuple, TriageCluster] = {}
    for entry in sorted(entries, key=lambda e: (e.source_label, e.index)):
        clusters.setdefault(entry.cluster_key, TriageCluster(entry.cluster_key))
        clusters[entry.cluster_key].entries.append(entry)
    return sorted(clusters.values(), key=lambda c: (-c.count, c.key))


@dataclass
class TriageReport:
    """The ranked, deduplicated output of a triage run.

    One :class:`TriageCluster` per distinct root cause — triggers that
    share (inconsistency kinds, responsible passes, divergent-cell
    pattern) — ranked by cluster size, each represented by its smallest
    reduced member.  :meth:`render` is deterministic: no timestamps,
    timings or machine paths, so two runs over the same campaign emit
    byte-identical reports (the property CI diffs rely on).  Produced by
    :func:`triage_results` / :func:`triage_campaign` / :func:`triage_single`
    or the ``llm4fp triage`` CLI.
    """

    clusters: list[TriageCluster]
    campaigns: tuple[str, ...]  # labels of the triaged campaigns
    programs_seen: int  # outcomes examined (all programs)
    triggers: int  # triggering programs triaged

    def render(self, show_traces: bool = True) -> str:
        """Deterministic human-readable report (byte-identical per input)."""
        lines = [
            "TRIAGE REPORT",
            f"campaigns:           {', '.join(self.campaigns) or '-'}",
            f"programs examined:   {self.programs_seen}",
            f"triggering programs: {self.triggers}",
            f"distinct findings:   {len(self.clusters)}",
            "",
        ]
        table = TextTable(
            ["#", "count", "kinds", "responsible", "env deltas", "divergent cells"],
            title="ranked findings (one row per root cause):",
        )
        for rank, cluster in enumerate(self.clusters, 1):
            rep = cluster.representative
            table.add_row(
                [
                    rank,
                    cluster.count,
                    " ".join(cluster.kinds),
                    ", ".join(cluster.responsibles),
                    ", ".join(rep.env_deltas) or "-",
                    f"{len(cluster.cells)} cells",
                ]
            )
        lines.append(table.render())
        for rank, cluster in enumerate(self.clusters, 1):
            rep = cluster.representative
            lines.append("")
            lines.append("=" * 72)
            lines.append(
                f"finding #{rank}: {cluster.count} trigger(s), "
                f"kinds {' '.join(cluster.kinds)}"
            )
            lines.append(f"responsible:      {', '.join(cluster.responsibles)}")
            lines.append(f"env deltas:       {', '.join(rep.env_deltas) or '-'}")
            lines.append(f"divergent cells:  {', '.join(cluster.cells)}")
            lines.append(
                f"representative:   {rep.source_label or 'campaign'}"
                f" program #{rep.index}, inputs {rep.inputs!r}"
            )
            if rep.reduction is not None:
                r = rep.reduction
                lines.append(
                    f"reduction:        {r.original_nodes} -> {r.reduced_nodes} AST "
                    f"nodes in {r.accepted_edits} edits ({r.tests} oracle tests)"
                )
            lines.append("")
            lines.append(rep.reduced_source.rstrip("\n"))
            if show_traces:
                canonical_bisection = rep.bisections[0]
                lines.append("")
                lines.append(
                    f"bisection of {canonical_bisection.target.cell}:"
                )
                lines.extend(f"  {t}" for t in canonical_bisection.trace)
        lines.append("")
        return "\n".join(lines)


def triage_results(
    results: list[tuple[str, CampaignResult]],
    compilers: list[Compiler] | None = None,
    reduce: bool = True,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_reduce_tests: int = DEFAULT_MAX_TESTS,
) -> TriageReport:
    """Triage several labelled campaign results into one ranked report.

    This is the multi-checkpoint entry point behind ``llm4fp triage``:
    triggers from every campaign are clustered *together*, so the same
    root cause found by different approaches, shards or backends appears
    as one finding.

    When ``compilers`` is omitted they are rebuilt under the divergence-
    tier profile the campaigns recorded, so replay-based reduction and
    bisection observe the same matrix the campaign did.
    """
    if compilers is None:
        profiles = {result.tiers for _, result in results}
        if len(profiles) > 1:
            raise ValueError(
                "checkpoints disagree on the divergence-tier profile "
                f"({', '.join(sorted(profiles))}); triage them separately "
                "or pass explicit compilers"
            )
        compilers = default_compilers(tiers=profiles.pop()) if profiles else None
    entries: list[TriageEntry] = []
    cache: dict = {}
    programs_seen = 0
    for label, result in results:
        programs_seen += len(result.outcomes)
        entries.extend(
            triage_outcomes(
                result.outcomes,
                compilers,
                source_label=label,
                reduce=reduce,
                max_steps=max_steps,
                max_reduce_tests=max_reduce_tests,
                _bisect_cache=cache,
            )
        )
    return TriageReport(
        clusters=cluster_entries(entries),
        campaigns=tuple(label for label, _ in results),
        programs_seen=programs_seen,
        triggers=len(entries),
    )


def triage_single(
    outcome: ProgramOutcome,
    compilers: list[Compiler] | None = None,
    label: str = "program",
    reduce: bool = True,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_reduce_tests: int = DEFAULT_MAX_TESTS,
) -> TriageReport:
    """Triage one already-tested outcome into a one-campaign report.

    The single-trigger path behind ``llm4fp triage --demo`` / ``--program``
    and the triage example: test the program through the matrix first
    (``CampaignEngine.test_program``), then hand the outcome here.
    """
    entries = triage_outcomes(
        [outcome],
        compilers,
        source_label=label,
        reduce=reduce,
        max_steps=max_steps,
        max_reduce_tests=max_reduce_tests,
    )
    return TriageReport(
        clusters=cluster_entries(entries),
        campaigns=(label,),
        programs_seen=1,
        triggers=len(entries),
    )


def triage_campaign(
    result: CampaignResult,
    compilers: list[Compiler] | None = None,
    reduce: bool = True,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_reduce_tests: int = DEFAULT_MAX_TESTS,
) -> TriageReport:
    """Triage one campaign result into a ranked report."""
    return triage_results(
        [(result.approach, result)],
        compilers,
        reduce=reduce,
        max_steps=max_steps,
        max_reduce_tests=max_reduce_tests,
    )
