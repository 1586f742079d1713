"""Directed re-fuzzing: replay corpus regression seeds before fuzzing.

:class:`CorpusReplayGenerator` wraps any configured approach with a
regression prelude — the corpus's stored seeds, in sorted-signature-key
order, each re-issued as a :class:`~repro.generation.program.
GeneratedProgram` with bit-identical inputs — and hands the stream to
the inner generator once the seeds run out.  Every campaign that points
at a corpus therefore opens with a sweep over every root cause the
fleet has ever recorded, under whatever compiler model is current.

The wrapper implements the full generator lifecycle protocol (PR-8's
``bind`` / ``generate`` / ``observe`` / ``export_state``), so it works
everywhere a bare approach does: classic sharding replays the identical
seed stream on every shard (the engine's ``owns()`` filter keeps the
work disjoint), while an island ``bind(k, n)`` partitions the seed list
itself — shard *k* replays seeds ``k, k+n, k+2n, …`` — before binding
the inner generator to its island stream.  Capabilities mirror the
inner generator: wrapping a feedback approach keeps the feedback
contract (and its island-only sharding rule) intact.
"""

from __future__ import annotations

from typing import Iterable

from repro.corpus.store import RegressionSeed
from repro.generation.program import (
    GeneratedProgram,
    GeneratorCapabilities,
    generator_capabilities,
)

__all__ = ["CorpusReplayGenerator"]


class CorpusReplayGenerator:
    """Replay stored regression seeds first, then delegate.

    ``seeds`` is typically :meth:`repro.corpus.store.TriggerCorpus.
    seeds` — already deterministically ordered; the wrapper preserves
    whatever order it is given.  ``inner`` is any lifecycle generator.
    """

    def __init__(self, seeds: Iterable[RegressionSeed], inner) -> None:
        self._all_seeds: list[RegressionSeed] = list(seeds)
        self._seeds: list[RegressionSeed] = list(self._all_seeds)
        self._inner = inner
        self._position = 0
        inner_caps = generator_capabilities(inner)
        inner_name = getattr(inner, "name", type(inner).__name__)
        self.name = f"corpus-replay+{inner_name}"
        self.capabilities = GeneratorCapabilities(
            feedback=inner_caps.feedback, shardable=inner_caps.shardable
        )

    # -- lifecycle -------------------------------------------------------------

    def bind(self, shard_index: int, shard_count: int, rng_seed: int) -> None:
        """Partition the seed list and bind the inner generator.

        The 0/1 bind is the identity (whole seed stream); a k/n bind
        with n > 1 keeps seeds ``k, k+n, k+2n, …`` — pairwise-disjoint
        and jointly exhaustive across the n partitions.
        """
        if shard_count < 1 or not 0 <= shard_index < shard_count:
            raise ValueError(
                f"invalid partition {shard_index}/{shard_count}: need "
                f"0 <= shard_index < shard_count"
            )
        if shard_count == 1:
            self._seeds = list(self._all_seeds)
        else:
            self._seeds = [
                seed
                for i, seed in enumerate(self._all_seeds)
                if i % shard_count == shard_index
            ]
        self._position = 0
        self._inner.bind(shard_index, shard_count, rng_seed)

    def generate(self) -> GeneratedProgram:
        if self._position < len(self._seeds):
            seed = self._seeds[self._position]
            self._position += 1
            return GeneratedProgram(
                source=seed.source,
                inputs=tuple(seed.inputs),
                meta={
                    "strategy": "corpus-replay",
                    "corpus_key": seed.key,
                    "origin": f"{seed.origin_label}#{seed.origin_index}",
                },
            )
        return self._inner.generate()

    def observe(self, outcome) -> None:
        # Seed outcomes feed the inner approach too: a feedback
        # generator starts its mutation loop from the regression sweep's
        # verdicts instead of cold.
        self._inner.observe(outcome)

    def export_state(self) -> dict:
        return {"position": self._position, "inner": self._inner.export_state()}

    def import_state(self, state: dict) -> None:
        self._position = int(state["position"])
        self._inner.import_state(state["inner"])

    # -- passthrough -----------------------------------------------------------

    @property
    def seeds_remaining(self) -> int:
        return max(0, len(self._seeds) - self._position)

    def __getattr__(self, name: str):
        # Everything the wrapper doesn't define (island migrant hooks,
        # the simulated LLM handle) belongs to the inner generator.
        # Underscore names are never forwarded —
        # that keeps deepcopy/pickle protocol probes on the default path
        # and makes a missing private attribute an honest AttributeError.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)
