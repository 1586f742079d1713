"""Island-model evolution for feedback generators (the shardable path).

Classic ``--shard i/n`` replays the *whole* generation stream on every
shard, which is only sound when program *i+1* does not depend on earlier
verdicts — exactly what the LLM4FP feedback loop violates.  The island
model makes feedback shardable by changing the partition: island *k* owns
budget indices ``i % islands == k`` and evolves its **own** population
with RNG streams derived from ``(seed, k, islands)`` — so the stream is
identical whether the island runs inside one process (``--islands n``) or
as shard *k* of an ``llm4fp serve`` fleet.

**Merge points.**  After every ``merge_every`` owned programs island *k*
crosses a generation boundary: it exports its top triggers (ranked by
signature novelty) as an ``island`` record into the checkpoint store,
then imports the same-generation exports of every *lower* island
``j < k``.  The downstream-only ("ladder") topology is deliberate: when
island *k* reaches boundary *g*, every ``j < k`` has already crossed it
(island *j*'s boundary index ``j + (g*merge_every - 1)*n`` precedes
island *k*'s), so imports never wait on the future.  Any schedule — one
process round-robin, a concurrent fleet, or strictly sequential manual
shard runs — produces byte-identical records and merged checkpoints.

**Fitness.**  Mutation-operator choice becomes fitness-weighted
stochastic universal sampling over the prompt's mutation strategies,
where a strategy's fitness is the accumulated *novelty* of the triage
cluster signatures its mutants triggered (novelty of a signature decays
as ``1/(1+times seen)`` across own and immigrant triggers).  This closes
the generate→triage→generate loop: strategies that keep finding new
root-cause signatures are sampled more.
"""

from __future__ import annotations

import copy
import math
import re
import time
from pathlib import Path
from typing import Any, Sequence

from repro.generation.program import GeneratedProgram
from repro.generation.prompts import MUTATION_STRATEGIES
from repro.utils.rng import SplittableRng

__all__ = [
    "IslandCoordinator",
    "MutationFitness",
    "derive_peer_paths",
    "stochastic_universal_sampling",
]

#: Triggers exchanged per island per merge point.
EMIGRANTS_PER_MERGE = 3

#: How long a sharded island waits for a sibling's merge-point export
#: before giving up (a fleet retry loop resumes the wait on respawn).
IMPORT_TIMEOUT_SECONDS = 600.0
_POLL_SECONDS = 0.05


def stochastic_universal_sampling(
    rng: SplittableRng, weights: Sequence[float], k: int = 1
) -> list[int]:
    """Draw ``k`` indices proportionally to ``weights`` with one spin.

    Classic SUS (after moorepair's ``Mutation.stochastic_universal_sampling``):
    ``k`` equally spaced pointers over the cumulative wheel, a single
    random phase — lower selection variance than ``k`` independent
    roulette draws, which matters when fitness differences are small.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = float(sum(weights))
    if not 0.0 < total < math.inf or not all(0.0 <= w < math.inf for w in weights):
        raise ValueError("weights must be finite, non-negative with positive sum")
    step = total / k
    start = rng.uniform(0.0, step)
    picks: list[int] = []
    i = 0
    cum = float(weights[0])
    for pointer in (start + j * step for j in range(k)):
        while pointer > cum and i < len(weights) - 1:
            i += 1
            cum += float(weights[i])
        picks.append(i)
    return picks


class MutationFitness:
    """Per-strategy fitness from the novelty of triggered signatures.

    ``observe(key, strategy)`` records one triggered cluster signature and
    credits its novelty — ``1/(1 + times this signature was already
    seen)`` — to the mutation strategy that produced it.  ``weights()``
    is ``1 + score`` per strategy, so an empty census degenerates to
    uniform selection (the pre-island behaviour).
    """

    def __init__(self, strategies: Sequence[str] = MUTATION_STRATEGIES) -> None:
        self.strategies = tuple(strategies)
        self.census: dict[str, int] = {}
        self.scores: dict[str, float] = {s: 0.0 for s in self.strategies}

    def observe(self, signature_key: str, strategy: str | None = None) -> float:
        seen = self.census.get(signature_key, 0)
        self.census[signature_key] = seen + 1
        novelty = 1.0 / (1.0 + seen)
        if strategy is not None and strategy in self.scores:
            self.scores[strategy] += novelty
        return novelty

    def weights(self) -> tuple[float, ...]:
        return tuple(1.0 + self.scores[s] for s in self.strategies)

    def export_state(self) -> dict:
        return {"census": dict(self.census), "scores": dict(self.scores)}

    def import_state(self, state: dict) -> None:
        self.census = {str(k): int(v) for k, v in state["census"].items()}
        self.scores = {s: 0.0 for s in self.strategies}
        for name, score in state["scores"].items():
            self.scores[str(name)] = float(score)


def derive_peer_paths(path: str | Path, shard_index: int, shard_count: int) -> list[Path]:
    """Sibling checkpoint paths for every island, derived from one shard's.

    Island shards locate each other's merge-point exports through the
    checkpoint filenames: the shard token ``shard<i>`` in the name is
    rewritten per island.  Works for the fleet's ``shard1_of_4.jsonl``,
    the experiment runner's ``...-shard1of4.jsonl``, and a plain manual
    ``shard1.jsonl``.
    """
    p = Path(path)
    token = re.compile(rf"shard{shard_index}(?![0-9])")
    if not token.search(p.name):
        raise ValueError(
            f"cannot derive sibling checkpoint paths from {p.name!r}: island "
            "shards exchange migrants through each other's checkpoints and "
            f"find them by filename — include 'shard{shard_index}' in the "
            f"checkpoint name (e.g. shard{shard_index}_of_{shard_count}.jsonl)"
        )
    return [
        Path(p.parent / token.sub(f"shard{j}", p.name, count=1))
        for j in range(shard_count)
    ]


class IslandCoordinator:
    """Drives island-mode generation for the campaign engine.

    One coordinator serves both deployments:

    * **unsharded** (``shard_count == 1``): holds all ``islands``
      populations in-process (each a deep copy of the template generator,
      re-bound to its partition) and exchanges migrants through memory;
    * **sharded** (``shard_count == islands``): holds only the local
      island and exchanges migrants through the sibling shards'
      checkpoint files (``peer_paths``).

    The engine calls :meth:`generate` for owned indices, :meth:`observe`
    after each owned outcome (which returns any ``island`` records to
    append to the store), then :meth:`complete_boundary` once the records
    are durable.
    """

    def __init__(
        self,
        generator: Any,
        *,
        islands: int,
        merge_every: int,
        seed: int,
        shard_index: int = 0,
        shard_count: int = 1,
        peer_paths: Sequence[str | Path] = (),
        existing_records: Sequence[dict] = (),
        emigrants: int = EMIGRANTS_PER_MERGE,
        import_timeout: float = IMPORT_TIMEOUT_SECONDS,
    ) -> None:
        if islands < 1:
            raise ValueError("islands must be >= 1")
        if merge_every < 1:
            raise ValueError("merge_every must be >= 1")
        if shard_count > 1:
            if islands != shard_count:
                raise ValueError(
                    f"sharded island campaigns need one island per shard: "
                    f"islands={islands}, shard_count={shard_count}"
                )
            if len(peer_paths) != islands:
                raise ValueError(
                    f"need one peer checkpoint path per island, "
                    f"got {len(peer_paths)} for {islands} islands"
                )
        self.islands = islands
        self.merge_every = merge_every
        self.emigrants = emigrants
        self.shard_index = shard_index
        self.shard_count = shard_count
        self._peer_paths = [Path(p) for p in peer_paths]
        self._import_timeout = import_timeout
        self._generators: dict[int, Any] = {}
        if shard_count > 1:
            generator.bind(shard_index, islands, seed)
            self._generators[shard_index] = generator
        else:
            for k in range(islands):
                gen = generator if islands == 1 else copy.deepcopy(generator)
                gen.bind(k, islands, seed)
                self._generators[k] = gen
        self._own_counts: dict[int, int] = {k: 0 for k in self._generators}
        #: in-memory exchange: (island, generation) -> migrants
        self._exports: dict[tuple[int, int], list[dict]] = {}
        #: records already durable in the resumed store, by (island, generation)
        self._existing: dict[tuple[int, int], dict] = {
            (int(r["island"]), int(r["generation"])): r for r in existing_records
        }
        self._pending: tuple[int, int] | None = None

    # -- engine-facing lifecycle ------------------------------------------------

    def owner(self, index: int) -> int:
        return index % self.islands

    def generate(self, index: int) -> GeneratedProgram:
        return self._generators[self.owner(index)].generate()

    def observe(self, index: int, outcome: Any) -> list[dict]:
        """Deliver an owned outcome; return ``island`` records now due.

        A returned record must be appended to the checkpoint store (when
        one is attached) *immediately after* the outcome at ``index`` —
        that file position is what lets :func:`merge_shard_stores` splice
        sharded island checkpoints into the byte-identical unsharded one.
        """
        k = self.owner(index)
        self._generators[k].observe(outcome)
        self._own_counts[k] += 1
        if self._own_counts[k] % self.merge_every:
            return []
        generation = self._own_counts[k] // self.merge_every
        # Feedback-free generators have nothing to exchange; their merge
        # points still produce (empty) records so the byte layout of an
        # island checkpoint is uniform across approaches.
        export = getattr(self._generators[k], "export_migrants", None)
        migrants = export(self.emigrants) if export is not None else []
        self._exports[(k, generation)] = migrants
        record = {
            "kind": "island",
            "island": k,
            "generation": generation,
            "after": index,
            "migrants": migrants,
        }
        self._pending = (k, generation)
        stored = self._existing.get((k, generation))
        if stored is not None:
            if stored != record:
                raise ValueError(
                    f"island record mismatch on resume (island {k}, "
                    f"generation {generation}): the store was produced by a "
                    "different (seed, islands, merge-every) configuration"
                )
            return []
        return [record]

    def complete_boundary(self, index: int) -> None:
        """Apply the imports for the boundary :meth:`observe` just crossed.

        Separate from :meth:`observe` so the engine can make the export
        record durable first — a sibling polling our checkpoint must never
        observe the effects of an exchange before the record itself.
        """
        if self._pending is None:
            return
        k, generation = self._pending
        self._pending = None
        gen = self._generators[k]
        import_migrants = getattr(gen, "import_migrants", None)
        if import_migrants is None:
            return
        for j in range(k):
            import_migrants(self._export_of(j, generation))

    # -- exchange ---------------------------------------------------------------

    def _export_of(self, island: int, generation: int) -> list[dict]:
        key = (island, generation)
        if key in self._exports:
            return self._exports[key]
        if self.shard_count == 1:
            # Round-robin order guarantees lower islands exported first.
            raise RuntimeError(f"island export {key} missing from memory")
        from repro.difftest.store import read_island_records

        path = self._peer_paths[island]
        deadline = time.monotonic() + self._import_timeout
        while True:
            for record in read_island_records(path):
                rkey = (int(record["island"]), int(record["generation"]))
                self._exports.setdefault(rkey, record["migrants"])
            if key in self._exports:
                return self._exports[key]
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"timed out after {self._import_timeout:.0f}s waiting for "
                    f"island {island} generation {generation} in {path} — is "
                    f"shard {island}/{self.shard_count} running?"
                )
            time.sleep(_POLL_SECONDS)
