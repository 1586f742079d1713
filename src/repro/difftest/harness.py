"""One-call campaign entry point over the staged campaign engine.

Historically this module held the monolithic campaign loop; the stages now
live in :mod:`repro.difftest.engine`.  :func:`run_campaign` keeps its
original signature and produces byte-identical results, so every
table/figure reproduces unchanged — it constructs a
:class:`~repro.difftest.engine.CampaignEngine` and delegates.  Callers
that test programs one at a time use
:meth:`~repro.difftest.engine.CampaignEngine.test_program` directly.
"""

from __future__ import annotations

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine, EngineConfig
from repro.difftest.record import CampaignResult
from repro.generation.program import ProgramGenerator
from repro.toolchains.base import Compiler

__all__ = ["run_campaign"]


def run_campaign(
    generator: ProgramGenerator,
    compilers: list[Compiler],
    config: CampaignConfig | None = None,
    progress: object = None,
    engine_config: EngineConfig | None = None,
    store: object = None,
) -> CampaignResult:
    """Run one approach's full campaign (Figure 1's outer loop).

    ``progress``, if given, is called as ``progress(i, outcome)`` after each
    program.  ``engine_config`` selects the execution backend, worker
    count and sharding (:class:`~repro.difftest.engine.EngineConfig`);
    the default is a single-worker engine, which matches the legacy
    serial loop bit-for-bit while skipping redundant in-program
    compilations and runs.
    ``store``, if given, is a
    :class:`~repro.difftest.store.CampaignStore` used to checkpoint and
    resume the campaign.  Returns the aggregate :class:`CampaignResult`
    with time cost split into per-stage buckets, plus simulated LLM
    latency when the generator's client models it.
    """
    engine = CampaignEngine(compilers, config, engine_config)
    return engine.run(generator, progress=progress, store=store)
