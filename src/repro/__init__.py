"""LLM4FP reproduction: LLM-guided floating-point differential compiler testing.

Quickstart::

    from repro import (
        CampaignConfig, CampaignEngine, CampaignReport, SplittableRng,
        default_compilers, make_generator,
    )

    generator = make_generator("llm4fp", SplittableRng(42))
    engine = CampaignEngine(default_compilers(), CampaignConfig(budget=50))
    result = engine.run(generator)
    print(CampaignReport(result).summary())

See ``docs/architecture.md`` for the module map and the data flow of a
campaign.
"""

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine, EngineConfig
from repro.difftest.report import CampaignReport
from repro.experiments.approaches import ALL_APPROACHES, APPROACHES, make_generator
from repro.fp.formats import Precision
from repro.generation import LoopReductionGenerator, SimLLM, VarityGenerator
from repro.toolchains import default_compilers, OptLevel
from repro.triage import (
    TriageReport,
    bisect_signature,
    reduce_program,
    triage_campaign,
    triage_results,
)
from repro.utils.rng import SplittableRng

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "CampaignConfig",
    "CampaignEngine",
    "EngineConfig",
    "CampaignReport",
    "ALL_APPROACHES",
    "APPROACHES",
    "make_generator",
    "Precision",
    "SimLLM",
    "LoopReductionGenerator",
    "VarityGenerator",
    "default_compilers",
    "OptLevel",
    "SplittableRng",
    "TriageReport",
    "bisect_signature",
    "reduce_program",
    "triage_campaign",
    "triage_results",
]
