"""Ablations on the reproduction's called-out design choices.

* strategy mix — the §3.1.4 grammar/mutation split (0.3/0.7): sweep the
  mutation probability and measure the inconsistency rate;
* sampling hyperparameters — temperature / penalties (§3.1.4): diversity
  (CodeBLEU) and rate under different sampling configs;
* feedback — LLM4FP with the feedback loop disabled degenerates to
  Grammar-Guided; the gap is the loop's contribution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine
from repro.experiments.settings import ExperimentSettings
from repro.generation.llm.base import GenerationConfig
from repro.generation.llm.generator import LLMProgramGenerator
from repro.generation.llm.simllm import SimLLM
from repro.metrics.diversity import average_pairwise_codebleu
from repro.toolchains import default_compilers
from repro.utils.rng import SplittableRng
from repro.utils.tables import TextTable

__all__ = [
    "MixPoint",
    "sweep_mutation_prob",
    "sweep_sampling",
    "feedback_contribution",
]


@dataclass(frozen=True)
class MixPoint:
    mutation_prob: float
    inconsistency_rate: float
    inconsistencies: int


def _llm4fp_campaign(
    settings: ExperimentSettings,
    mutation_prob: float = 0.7,
    config: GenerationConfig | None = None,
    use_feedback: bool = True,
    tag: str = "",
):
    rng = SplittableRng(settings.seed, f"ablation-{tag}-{mutation_prob}")
    llm = SimLLM(rng.split("llm"), config=config)
    generator = LLMProgramGenerator(
        name=f"llm4fp[{tag}]",
        llm=llm,
        rng=rng,
        use_grammar=True,
        use_feedback=use_feedback,
        mutation_prob=mutation_prob,
    )
    cfg = CampaignConfig(budget=settings.budget, levels=settings.levels, seed=settings.seed)
    return CampaignEngine(default_compilers(), cfg).run(generator)


def sweep_mutation_prob(
    settings: ExperimentSettings, probs: tuple[float, ...] = (0.0, 0.3, 0.5, 0.7, 0.9)
) -> list[MixPoint]:
    """E-A1: how the grammar/mutation split affects the trigger rate."""
    points: list[MixPoint] = []
    for p in probs:
        result = _llm4fp_campaign(settings, mutation_prob=p, tag="mix")
        points.append(MixPoint(p, result.inconsistency_rate, result.inconsistencies))
    return points


def render_mix(points: list[MixPoint]) -> str:
    table = TextTable(
        ["Mutation prob", "Incons. rate", "# Incons."],
        title="Ablation E-A1 — feedback-mutation probability (paper uses 0.7)",
    )
    for pt in points:
        table.add_row(
            [f"{pt.mutation_prob:.1f}", f"{pt.inconsistency_rate * 100:.2f}%", pt.inconsistencies]
        )
    return table.render()


def sweep_sampling(
    settings: ExperimentSettings,
    configs: tuple[GenerationConfig, ...] = (
        GenerationConfig(temperature=0.4, frequency_penalty=0.0, presence_penalty=0.0),
        GenerationConfig(temperature=1.2, frequency_penalty=0.0, presence_penalty=0.0),
        GenerationConfig(temperature=1.2, frequency_penalty=0.5, presence_penalty=0.6),
    ),
) -> list[dict]:
    """E-A2: sampling hyperparameters vs rate and diversity."""
    rows: list[dict] = []
    for cfg in configs:
        result = _llm4fp_campaign(
            settings, config=cfg, tag=f"T{cfg.temperature}-f{cfg.frequency_penalty}"
        )
        rows.append(
            {
                "temperature": cfg.temperature,
                "frequency_penalty": cfg.frequency_penalty,
                "presence_penalty": cfg.presence_penalty,
                "inconsistency_rate": result.inconsistency_rate,
                "codebleu": average_pairwise_codebleu(
                    result.sources, max_pairs=settings.codebleu_pairs, seed=settings.seed
                ),
            }
        )
    return rows


def render_sampling(rows: list[dict]) -> str:
    table = TextTable(
        ["T", "freq-pen", "pres-pen", "Incons. rate", "CodeBLEU"],
        title="Ablation E-A2 — sampling hyperparameters (paper: T=1.2, 0.5, 0.6)",
    )
    for r in rows:
        table.add_row(
            [
                r["temperature"],
                r["frequency_penalty"],
                r["presence_penalty"],
                f"{r['inconsistency_rate'] * 100:.2f}%",
                f"{r['codebleu']:.4f}",
            ]
        )
    return table.render()


def feedback_contribution(settings: ExperimentSettings) -> dict:
    """E-A3: LLM4FP with vs without the feedback loop."""
    with_fb = _llm4fp_campaign(settings, use_feedback=True, tag="fb-on")
    without_fb = _llm4fp_campaign(settings, use_feedback=False, tag="fb-off")
    return {
        "with_feedback": with_fb.inconsistency_rate,
        "without_feedback": without_fb.inconsistency_rate,
        "gain": with_fb.inconsistency_rate - without_fb.inconsistency_rate,
    }


def render_feedback(result: dict) -> str:
    table = TextTable(
        ["Configuration", "Incons. rate"],
        title="Ablation E-A3 — the feedback loop's contribution",
    )
    table.add_row(["LLM4FP (feedback on)", f"{result['with_feedback'] * 100:.2f}%"])
    table.add_row(["feedback off (= Grammar-Guided)", f"{result['without_feedback'] * 100:.2f}%"])
    table.add_row(["gain", f"{result['gain'] * 100:+.2f}pp"])
    return table.render()
