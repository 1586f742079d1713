"""Result records produced by a campaign."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.difftest.classify import inconsistency_kind
from repro.fp.classify import FPClass
from repro.generation.program import GeneratedProgram
from repro.toolchains.optlevels import OptLevel

__all__ = ["ComparisonRecord", "ProgramOutcome", "CampaignResult"]


@dataclass(frozen=True)
class ComparisonRecord:
    """One pairwise output comparison at one optimization level.

    ``tag`` carries a structural inconsistency kind when one applies —
    the tag of a divergence tier in :data:`repro.tiers.TIERS`
    (``vec-libm``, ``mixed-precision``, ``masked-int-guard``,
    ``masked-lane``, ``vector-reduction``) — set by
    :func:`repro.tiers.structural_tag` when the two sides' optimized
    kernels extract different tier shapes under observationally equal FP
    environments.  It complements (never
    replaces) the value-class ``kind``: Figure 3 taxonomies stay
    value-based, while triage keys on the structural kind when present.
    """

    program_index: int
    compiler_a: str
    compiler_b: str
    level: OptLevel
    consistent: bool
    value_a: float | None = None
    value_b: float | None = None
    digit_diff: int = 0
    tag: str | None = None

    @property
    def pair(self) -> tuple[str, str]:
        return (self.compiler_a, self.compiler_b)

    @property
    def kind(self) -> frozenset[FPClass] | None:
        if self.consistent or self.value_a is None or self.value_b is None:
            return None
        return inconsistency_kind(self.value_a, self.value_b)


@dataclass
class ProgramOutcome:
    """Everything observed for one generated program."""

    index: int
    program: GeneratedProgram
    compiled: dict[str, bool] = field(default_factory=dict)  # "gcc/O2" -> ok
    ran: dict[str, bool] = field(default_factory=dict)
    comparisons: list[ComparisonRecord] = field(default_factory=list)
    triggered: bool = False  # at least one inconsistency -> successful set
    #: per-binary outputs ("gcc/O2" -> hex signature / final value), kept for
    #: the within-compiler RQ4 analysis (each level vs O0_nofma).
    signatures: dict[str, str] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)

    @property
    def inconsistent_comparisons(self) -> list[ComparisonRecord]:
        return [c for c in self.comparisons if not c.consistent]


@dataclass
class CampaignResult:
    """Aggregate of one approach's full campaign.

    Time cost is attributed to the engine's five stages (generate /
    frontend / compile / execute / compare) plus simulated LLM latency;
    the run-sharing counters record how much of the execute matrix was
    deduplicated rather than recomputed.
    """

    approach: str
    budget: int
    levels: tuple[OptLevel, ...]
    compilers: tuple[str, ...]
    outcomes: list[ProgramOutcome] = field(default_factory=list)
    generation_seconds: float = 0.0
    frontend_seconds: float = 0.0
    compile_seconds: float = 0.0
    execute_seconds: float = 0.0
    compare_seconds: float = 0.0
    llm_latency_seconds: float = 0.0
    #: always 0: the engine keeps no cross-program compile cache; the
    #: fields stay because external benchmark readers still report them
    cache_hits: int = 0
    cache_misses: int = 0
    #: executions served by an identical binary's run / total executions
    shared_runs: int = 0
    total_runs: int = 0
    #: which slice of the budget this result covers (``index % shard_count
    #: == shard_index``); the default 0/1 is a complete, unsharded run.
    #: ``budget`` always records the *full* campaign budget, so merged
    #: shards and unsharded runs agree on every denominator.
    shard_index: int = 0
    shard_count: int = 1
    #: divergence-tier profile the compilers ran under (see
    #: :func:`repro.toolchains.optlevels.tier_policy`); ``"baseline"``
    #: reproduces pre-registry campaigns exactly.
    tiers: str = "baseline"

    @property
    def comparisons(self) -> list[ComparisonRecord]:
        return [c for o in self.outcomes for c in o.comparisons]

    @property
    def total_comparisons(self) -> int:
        """The paper's denominator: C(compilers,2) x levels x programs —
        comparisons that could not run (compile/run failure) still count."""
        pairs = len(self.compilers) * (len(self.compilers) - 1) // 2
        return pairs * len(self.levels) * self.budget

    @property
    def inconsistencies(self) -> int:
        return sum(1 for c in self.comparisons if not c.consistent)

    @property
    def inconsistency_rate(self) -> float:
        total = self.total_comparisons
        return self.inconsistencies / total if total else 0.0

    @property
    def triggering_programs(self) -> int:
        return sum(1 for o in self.outcomes if o.triggered)

    @property
    def triggering_outcomes(self) -> list[ProgramOutcome]:
        """The outcomes the triage subsystem consumes: every program that
        exhibited at least one inconsistency, in budget-index order."""
        return [o for o in self.outcomes if o.triggered]

    @property
    def sources(self) -> list[str]:
        return [o.program.source for o in self.outcomes]

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Wall-clock per engine stage, in pipeline order."""
        return {
            "generate": self.generation_seconds,
            "frontend": self.frontend_seconds,
            "compile": self.compile_seconds,
            "execute": self.execute_seconds,
            "compare": self.compare_seconds,
        }

    @property
    def run_share_rate(self) -> float:
        return self.shared_runs / self.total_runs if self.total_runs else 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.generation_seconds
            + self.frontend_seconds
            + self.compile_seconds
            + self.execute_seconds
            + self.compare_seconds
            + self.llm_latency_seconds
        )
