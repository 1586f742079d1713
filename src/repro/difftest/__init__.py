"""Differential testing: the campaign loop of the paper's Figure 1.

Generate -> compile with every (compiler, level) -> run -> compare outputs
bitwise for every compiler pair at each level -> classify -> feed successes
back to the generator.
"""

from repro.difftest.config import CampaignConfig
from repro.difftest.compare import digit_difference, compare_signatures
from repro.difftest.classify import inconsistency_kind, KindCount
from repro.difftest.record import (
    ComparisonRecord,
    ProgramOutcome,
    CampaignResult,
)
from repro.difftest.backend import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    create_backend,
    resolve_jobs,
)
from repro.difftest.engine import (
    CampaignEngine,
    CompileRecord,
    EngineConfig,
    ExecuteRecord,
    FrontendRecord,
    STAGES,
)
from repro.difftest.harness import run_campaign
from repro.difftest.report import CampaignReport
from repro.difftest.store import CampaignStore, CampaignStoreError, merge_shards

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "create_backend",
    "resolve_jobs",
    "CampaignStore",
    "CampaignStoreError",
    "merge_shards",
    "CampaignConfig",
    "digit_difference",
    "compare_signatures",
    "inconsistency_kind",
    "KindCount",
    "ComparisonRecord",
    "ProgramOutcome",
    "CampaignResult",
    "CampaignEngine",
    "EngineConfig",
    "FrontendRecord",
    "CompileRecord",
    "ExecuteRecord",
    "STAGES",
    "run_campaign",
    "CampaignReport",
]
