"""LLM4FP reproduction: LLM-guided floating-point differential compiler testing.

Quickstart::

    from repro import SplittableRng, make_generator, run_campaign, default_compilers
    from repro.difftest import CampaignConfig, CampaignReport

    rng = SplittableRng(42)
    generator = make_generator("llm4fp", rng)
    result = run_campaign(generator, default_compilers(), CampaignConfig(budget=50))
    print(CampaignReport(result).summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine, EngineConfig
from repro.difftest.harness import run_campaign
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
    "run_campaign",
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
