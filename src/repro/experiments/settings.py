"""Experiment-wide settings, environment-overridable."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.difftest.backend import DEFAULT_BACKEND, check_backend, parse_jobs
from repro.execution.worker import DEFAULT_EXEC_MODE, check_exec_mode
from repro.toolchains.optlevels import ALL_LEVELS, OptLevel

__all__ = ["ExperimentSettings", "ENV_KNOBS", "parse_shard"]


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as e:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from e


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as e:
        raise ValueError(f"{name} must be a number, got {raw!r}") from e


def _env_jobs(name: str, default: int | str) -> int | str:
    """An int worker count or the literal ``auto`` (one per CPU)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return parse_jobs(raw)
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from e


def parse_shard(spec: str | None) -> tuple[int, int]:
    """Parse ``"i/n"`` into ``(shard_index, shard_count)``; None -> (0, 1).

    Accepts both 0-based ``0/4 .. 3/4`` — the engine's native convention —
    and nothing else: ``i`` must satisfy ``0 <= i < n``.
    """
    if spec is None or spec == "":
        return (0, 1)
    parts = spec.split("/")
    if len(parts) != 2:
        raise ValueError(f"shard must look like 'i/n', got {spec!r}")
    try:
        index, count = int(parts[0]), int(parts[1])
    except ValueError as e:
        raise ValueError(f"shard must look like 'i/n', got {spec!r}") from e
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"shard index must be in [0, n) with n >= 1, got {spec!r}"
        )
    return (index, count)


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all experiment runners.

    The paper uses a budget of 1,000 programs per approach (§3.1.3); the
    default here is smaller so the benchmark suite completes in minutes.
    ``REPRO_BUDGET`` / ``REPRO_SEED`` override from the environment.
    """

    budget: int = field(default_factory=lambda: _env_int("REPRO_BUDGET", 200))
    seed: int = field(default_factory=lambda: _env_int("REPRO_SEED", 20250916))
    levels: tuple[OptLevel, ...] = ALL_LEVELS
    #: charge synthetic per-call LLM latency (reproduces Table 2's time
    #: ordering; off by default so wall-clock reflects simulation speed)
    model_llm_latency: bool = field(
        default_factory=lambda: _env_int("REPRO_MODEL_LATENCY", 0) != 0
    )
    #: pair sample size for average pairwise CodeBLEU
    codebleu_pairs: int = field(
        default_factory=lambda: _env_int("REPRO_CODEBLEU_PAIRS", 1500)
    )
    #: campaign-engine processes testing programs on the process backend
    #: (``REPRO_JOBS``: an int, or ``auto`` for one per CPU)
    jobs: int | str = field(default_factory=lambda: _env_jobs("REPRO_JOBS", 1))
    #: execution backend: serial / process (``REPRO_BACKEND``)
    backend: str = field(
        default_factory=lambda: os.environ.get("REPRO_BACKEND", DEFAULT_BACKEND)
    )
    #: execute-stage mode: tape / check (``REPRO_EXEC_MODE``)
    exec_mode: str = field(
        default_factory=lambda: os.environ.get("REPRO_EXEC_MODE", DEFAULT_EXEC_MODE)
    )
    #: budget shard ``"i/n"`` (``REPRO_SHARD``); empty = the whole budget
    shard: str | None = field(
        default_factory=lambda: os.environ.get("REPRO_SHARD") or None
    )
    #: island-model generation: number of islands (``REPRO_ISLANDS``);
    #: 0 disables islands (classic whole-stream sharding)
    islands: int = field(default_factory=lambda: _env_int("REPRO_ISLANDS", 0))
    #: island merge-point cadence, in owned programs per generation
    #: (``REPRO_MERGE_EVERY``)
    merge_every: int = field(
        default_factory=lambda: _env_int("REPRO_MERGE_EVERY", 25)
    )
    #: directory of per-approach JSONL checkpoints (``REPRO_CHECKPOINT_DIR``);
    #: unset = no persistence.  Re-running with the same settings resumes.
    checkpoint_dir: str | None = field(
        default_factory=lambda: os.environ.get("REPRO_CHECKPOINT_DIR") or None
    )
    #: longitudinal trigger corpus (``REPRO_CORPUS_PATH``); when set,
    #: ``llm4fp run`` opens every campaign with a corpus-replay
    #: regression sweep and ``llm4fp serve`` chains a corpus ingest
    #: after auto-merge.  Unset = no cross-campaign memory.
    corpus_path: str | None = field(
        default_factory=lambda: os.environ.get("REPRO_CORPUS_PATH") or None
    )
    #: ``llm4fp serve``: concurrent shard workers (``REPRO_FLEET_WORKERS``)
    fleet_workers: int = field(
        default_factory=lambda: _env_int("REPRO_FLEET_WORKERS", 2)
    )
    #: ``llm4fp serve``: seconds between checkpoint-tail heartbeat polls
    #: (``REPRO_FLEET_HEARTBEAT``)
    fleet_heartbeat: float = field(
        default_factory=lambda: _env_float("REPRO_FLEET_HEARTBEAT", 2.0)
    )
    #: ``llm4fp serve``: seconds of no checkpoint row growth before a
    #: live worker is declared stalled, killed and reassigned
    #: (``REPRO_FLEET_STALL``)
    fleet_stall_timeout: float = field(
        default_factory=lambda: _env_float("REPRO_FLEET_STALL", 300.0)
    )
    #: ``llm4fp serve``: respawns granted to a shard after its first
    #: death before the fleet settles for a partial verdict
    #: (``REPRO_FLEET_RETRIES``)
    fleet_max_retries: int = field(
        default_factory=lambda: _env_int("REPRO_FLEET_RETRIES", 2)
    )

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        check_backend(self.backend, self.jobs)
        check_exec_mode(self.exec_mode)
        parse_shard(self.shard)  # validates "i/n"
        if self.islands < 0:
            raise ValueError("islands must be >= 0 (0 disables the island model)")
        if self.merge_every < 1:
            raise ValueError("merge_every must be >= 1")
        if self.fleet_workers < 1:
            raise ValueError("fleet_workers must be >= 1")
        if self.fleet_heartbeat <= 0:
            raise ValueError("fleet_heartbeat must be positive")
        if self.fleet_stall_timeout <= 0:
            raise ValueError("fleet_stall_timeout must be positive")
        if self.fleet_max_retries < 0:
            raise ValueError("fleet_max_retries must be >= 0")


#: Every environment-overridable :class:`ExperimentSettings` field and its
#: ``REPRO_*`` knob — the single source of truth ``docs/configuration.md``
#: is doctested against and ``scripts/check_docs.py`` greps the docs for.
#: ``levels`` is the one field with no environment knob (the optimization
#: matrix is part of the experiment's identity, not its deployment).
ENV_KNOBS: dict[str, str] = {
    "budget": "REPRO_BUDGET",
    "seed": "REPRO_SEED",
    "model_llm_latency": "REPRO_MODEL_LATENCY",
    "codebleu_pairs": "REPRO_CODEBLEU_PAIRS",
    "jobs": "REPRO_JOBS",
    "backend": "REPRO_BACKEND",
    "exec_mode": "REPRO_EXEC_MODE",
    "shard": "REPRO_SHARD",
    "islands": "REPRO_ISLANDS",
    "merge_every": "REPRO_MERGE_EVERY",
    "checkpoint_dir": "REPRO_CHECKPOINT_DIR",
    "corpus_path": "REPRO_CORPUS_PATH",
    "fleet_workers": "REPRO_FLEET_WORKERS",
    "fleet_heartbeat": "REPRO_FLEET_HEARTBEAT",
    "fleet_stall_timeout": "REPRO_FLEET_STALL",
    "fleet_max_retries": "REPRO_FLEET_RETRIES",
}
