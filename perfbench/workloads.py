"""Workload definitions shared by ``run.py`` and the campaign processes.

This module imports nothing from the package under test, so ``run.py`` can
load it before it knows whether the package is importable.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``llm4fp run``'s default campaign seed; every pool starts at it.
DEFAULT_SEED = 20250916

#: Programs per campaign.  A run pools the per-program latencies of all its
#: campaigns, so the p90 always rests on more than 100 samples.
BUDGET = 100

#: Layer spans every workload must record at least once in a traced run.
#: Execution is absent: ``loops-process`` runs every kernel in its pool
#: workers, which are not traced.
_COMMON_LAYERS = (
    "generation.generate",
    "frontend.lex",
    "frontend.parse",
    "frontend.sema",
    "frontend.lower",
    "frontend.cuda",
    "toolchains.compile",
    "toolchains.cache.fingerprint",
    "difftest.backend.dispatch",
    "tiers.shape_vector",
    "difftest.classify.devec_fp",
)

_INLINE_EXECUTION = ("execution.tape_compile", "execution.tape_run")


@dataclass(frozen=True)
class Workload:
    """One default-configuration campaign stream.

    ``pool`` campaigns of :data:`BUDGET` programs each, at campaign seeds
    ``DEFAULT_SEED + k``, make up one pass; a run measures whole passes so
    that every run, whatever its ``--seed``, tests the same programs.
    """

    name: str
    approach: str
    backend: str
    jobs: int
    checkpoint: bool
    pool: int
    #: span names that must record calls when this workload is traced
    layers: tuple[str, ...]

    @property
    def campaign_seeds(self) -> tuple[int, ...]:
        return tuple(DEFAULT_SEED + k for k in range(self.pool))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="varity-serial",
            approach="varity",
            backend="serial",
            jobs=1,
            checkpoint=False,
            pool=6,
            layers=_COMMON_LAYERS + _INLINE_EXECUTION,
        ),
        Workload(
            name="llm4fp-serial",
            approach="llm4fp",
            backend="serial",
            jobs=1,
            checkpoint=False,
            pool=2,
            layers=_COMMON_LAYERS
            + _INLINE_EXECUTION
            + ("generation.llm_complete", "generation.mutate"),
        ),
        Workload(
            name="loops-process",
            approach="loops",
            backend="process",
            jobs=2,
            checkpoint=True,
            pool=5,
            layers=_COMMON_LAYERS + ("difftest.store.append", "difftest.store.fsync"),
        ),
    )
}
