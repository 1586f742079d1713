"""Aggregations over a campaign: the numbers behind every paper artefact.

* :meth:`CampaignReport.summary` — Table 2 row (rate, count, time).
* :meth:`CampaignReport.kind_counts` — Figure 3 bars.
* :meth:`CampaignReport.kinds_by_level` — Table 3.
* :meth:`CampaignReport.pair_level_cells` — Table 4 (rates + digit stats).
* :meth:`CampaignReport.vs_o0_nofma` — Table 5 (within-compiler RQ4).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations

from repro.difftest.classify import KindCount
from repro.difftest.record import CampaignResult
from repro.toolchains.optlevels import OptLevel
from repro.utils.timing import format_hms

__all__ = ["DigitStats", "PairLevelCell", "CampaignReport"]


@dataclass(frozen=True)
class DigitStats:
    """min / max / average differing hex digits of a set of inconsistencies."""

    count: int
    min: int
    max: int
    avg: float

    @staticmethod
    def of(diffs: list[int]) -> "DigitStats":
        if not diffs:
            return DigitStats(0, 0, 0, 0.0)
        return DigitStats(
            len(diffs), min(diffs), max(diffs), sum(diffs) / len(diffs)
        )

    def render(self) -> str:
        if self.count == 0:
            return "-"
        return f"({self.min}/{self.max}/{self.avg:.2f})"


@dataclass(frozen=True)
class PairLevelCell:
    """One Table 4 cell: rate (over the grand total) + digit stats."""

    inconsistencies: int
    rate: float
    digits: DigitStats

    def render(self) -> str:
        if self.inconsistencies == 0:
            return "0.00%"
        return f"{self.rate * 100:.2f}% {self.digits.render()}"


class CampaignReport:
    """Read-side views over one approach's :class:`CampaignResult`."""

    def __init__(self, result: CampaignResult) -> None:
        self.result = result

    # -- Table 2 ------------------------------------------------------------------

    def summary(self) -> dict:
        r = self.result
        return {
            "approach": r.approach,
            "inconsistency_rate": r.inconsistency_rate,
            "inconsistencies": r.inconsistencies,
            "total_comparisons": r.total_comparisons,
            "triggering_programs": r.triggering_programs,
            "time_cost": format_hms(r.total_seconds),
            "time_seconds": r.total_seconds,
            "stage_seconds": r.stage_seconds,
            "run_share_rate": r.run_share_rate,
        }

    # -- engine cost attribution -------------------------------------------------

    def stage_summary(self) -> dict:
        """Per-stage wall clock plus dedup counters (the engine's five
        buckets, replacing the old generate/test split)."""
        r = self.result
        return {
            "stage_seconds": r.stage_seconds,
            "llm_latency_seconds": r.llm_latency_seconds,
            "total_seconds": r.total_seconds,
            "shared_runs": r.shared_runs,
            "total_runs": r.total_runs,
            "run_share_rate": r.run_share_rate,
        }

    def render_stages(self) -> str:
        """Human-readable stage/time breakdown for CLI summaries."""
        r = self.result
        lines = ["stage breakdown:"]
        for stage, seconds in r.stage_seconds.items():
            lines.append(f"  {stage:<10} {format_hms(seconds)}  ({seconds:8.2f}s)")
        if r.llm_latency_seconds:
            lines.append(
                f"  {'llm':<10} {format_hms(r.llm_latency_seconds)}"
                f"  ({r.llm_latency_seconds:8.2f}s)"
            )
        if r.total_runs:
            lines.append(
                f"  shared runs:   {r.shared_runs}/{r.total_runs}"
                f" ({r.run_share_rate * 100:.1f}%)"
            )
        return "\n".join(lines)

    # -- Figure 3 -------------------------------------------------------------------

    def kind_counts(self) -> KindCount:
        kinds = KindCount()
        for c in self.result.comparisons:
            if not c.consistent and c.value_a is not None and c.value_b is not None:
                kinds.record(c.value_a, c.value_b)
        return kinds

    def tag_counts(self) -> dict[str, int]:
        """Structural inconsistency kinds — divergence-tier tags from
        :mod:`repro.tiers` (``vector-reduction``, ``masked-lane``,
        ``vec-libm``, ...) — by count.

        Orthogonal to :meth:`kind_counts`: a tagged comparison still
        appears in its value-class bucket, so Figure 3 totals are
        unchanged by the vector and masking tiers.
        """
        counts = Counter(
            c.tag for c in self.result.comparisons if not c.consistent and c.tag
        )
        return dict(sorted(counts.items()))

    # -- Table 3 --------------------------------------------------------------------

    def kinds_by_level(self) -> dict[OptLevel, KindCount]:
        by_level: dict[OptLevel, KindCount] = {lvl: KindCount() for lvl in self.result.levels}
        for c in self.result.comparisons:
            if not c.consistent and c.value_a is not None and c.value_b is not None:
                by_level[c.level].record(c.value_a, c.value_b)
        return by_level

    # -- Table 4 ---------------------------------------------------------------------

    def compiler_pairs(self) -> list[tuple[str, str]]:
        return list(combinations(self.result.compilers, 2))

    def pair_level_cells(self) -> dict[tuple[str, str], dict[OptLevel, PairLevelCell]]:
        grand_total = self.result.total_comparisons
        buckets: dict[tuple[str, str], dict[OptLevel, list[int]]] = defaultdict(
            lambda: defaultdict(list)
        )
        for c in self.result.comparisons:
            if not c.consistent:
                buckets[c.pair][c.level].append(c.digit_diff)
        out: dict[tuple[str, str], dict[OptLevel, PairLevelCell]] = {}
        for pair in self.compiler_pairs():
            out[pair] = {}
            for level in self.result.levels:
                diffs = buckets.get(pair, {}).get(level, [])
                out[pair][level] = PairLevelCell(
                    inconsistencies=len(diffs),
                    rate=len(diffs) / grand_total if grand_total else 0.0,
                    digits=DigitStats.of(diffs),
                )
        return out

    def pair_totals(self) -> dict[tuple[str, str], float]:
        """Table 4's Total row: per-pair rate over the grand total."""
        cells = self.pair_level_cells()
        return {
            pair: sum(cell.rate for cell in by_level.values())
            for pair, by_level in cells.items()
        }

    # -- Table 5 ------------------------------------------------------------------------

    def vs_o0_nofma(self) -> dict[str, dict[OptLevel, float]]:
        """Within-compiler rates: each level's output vs the O0_nofma
        baseline of the *same* compiler (RQ4).

        Row normalization follows the paper: each (compiler, level) count is
        divided by (number of non-baseline levels x budget), so a compiler's
        Total is the sum of its rows.
        """
        baseline = OptLevel.O0_NOFMA
        if baseline not in self.result.levels:
            raise ValueError("campaign did not include the O0_nofma baseline")
        others = [lvl for lvl in self.result.levels if lvl is not baseline]
        denom = len(others) * self.result.budget
        counts: dict[str, Counter] = {c: Counter() for c in self.result.compilers}
        for outcome in self.result.outcomes:
            for compiler in self.result.compilers:
                base_sig = outcome.signatures.get(f"{compiler}/{baseline}")
                if base_sig is None:
                    continue
                for level in others:
                    sig = outcome.signatures.get(f"{compiler}/{level}")
                    if sig is not None and sig != base_sig:
                        counts[compiler][level] += 1
        return {
            compiler: {
                level: (counts[compiler][level] / denom if denom else 0.0)
                for level in others
            }
            for compiler in self.result.compilers
        }

    def vs_o0_nofma_totals(self) -> dict[str, float]:
        rates = self.vs_o0_nofma()
        return {c: sum(by_level.values()) for c, by_level in rates.items()}

    # -- digit differences (Table 4 narrative: RQ3 severity) ------------------------------

    def digit_stats_overall(self) -> DigitStats:
        diffs = [c.digit_diff for c in self.result.comparisons if not c.consistent]
        return DigitStats.of(diffs)

    # -- triage (reduce -> bisect -> cluster) ----------------------------------------------

    def triage(self, compilers=None, reduce: bool = True, **kwargs):
        """Triage this campaign's triggering programs into a ranked
        :class:`~repro.triage.cluster.TriageReport`.

        ``compilers`` defaults to :func:`~repro.toolchains.default_compilers`
        and must cover every compiler name the campaign recorded.  Imported
        lazily: triage builds on difftest, not the other way around.
        """
        from repro.triage.cluster import triage_campaign

        return triage_campaign(self.result, compilers, reduce=reduce, **kwargs)
