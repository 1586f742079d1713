"""LLM-backed program generators for the paper's three LLM approaches.

One class, three configurations (§3.2.1):

* Direct-Prompt   — ``use_grammar=False, use_feedback=False``
* Grammar-Guided  — ``use_grammar=True,  use_feedback=False``
* LLM4FP          — ``use_grammar=True,  use_feedback=True`` (grammar with
  probability 0.3, mutation of a successful example with probability 0.7,
  §3.1.4; the first programs are always grammar-based since the successful
  set starts empty, §2.3).
"""

from __future__ import annotations

import json

from repro.errors import ReproError
from repro.fp.formats import Precision
from repro.generation.grammar import GrammarSpec
from repro.generation.inputs import InputProfile, generate_inputs
from repro.generation.islands import MutationFitness, stochastic_universal_sampling
from repro.generation.llm.base import LLMClient, SuccessSet
from repro.generation.program import GeneratedProgram, GeneratorCapabilities
from repro.generation.prompts import (
    MUTATION_STRATEGIES,
    direct_prompt,
    grammar_prompt,
    mutation_prompt,
)
from repro.frontend.parser import parse_program
from repro.utils.rng import SplittableRng

__all__ = ["LLMProgramGenerator"]

_ARRAY_LEN = 8


class LLMProgramGenerator:
    """Generates candidate programs by prompting an LLM client."""

    input_profile = InputProfile.PLAUSIBLE

    def __init__(
        self,
        name: str,
        llm: LLMClient,
        rng: SplittableRng,
        precision: Precision = Precision.DOUBLE,
        use_grammar: bool = True,
        use_feedback: bool = False,
        mutation_prob: float = 0.7,
        grammar: GrammarSpec | None = None,
        success_capacity: int = 4096,
    ) -> None:
        if not 0.0 <= mutation_prob <= 1.0:
            raise ValueError("mutation_prob must be in [0, 1]")
        self.name = name
        self.llm = llm
        self._rng = rng.split(f"llmgen-{name}")
        self.precision = precision
        self.use_grammar = use_grammar
        self.use_feedback = use_feedback
        self.mutation_prob = mutation_prob
        self.grammar = grammar or GrammarSpec(precision=precision)
        self._success_capacity = success_capacity
        self.successes = SuccessSet(self._rng.split("successes"), success_capacity)
        self._counter = 0
        #: (island_index, island_count) once island-bound, else None
        self._island: tuple[int, int] | None = None
        self._fitness = MutationFitness()
        self._migrant_buffer: list[dict] = []

    @property
    def capabilities(self) -> GeneratorCapabilities:
        # Feedback is shardable too — through the island model (--islands),
        # not through classic whole-stream replay.
        return GeneratorCapabilities(feedback=self.use_feedback, shardable=True)

    # -- ProgramGenerator --------------------------------------------------------

    def bind(self, shard_index: int, shard_count: int, rng_seed: int) -> None:
        """Pin the generator to its generation partition.

        Binding ``0/1`` (the whole stream) is an identity operation — the
        constructor stream stands, which is what classic sharding replays
        on every shard and what keeps pre-island checkpoints byte-stable.
        Binding island ``k/n`` re-derives every stream (generator RNG,
        feedback set, LLM completion stream) from ``(rng_seed, k, n)`` and
        arms fitness-weighted mutation steering.
        """
        if shard_count < 1 or not 0 <= shard_index < shard_count:
            raise ValueError(f"invalid partition {shard_index}/{shard_count}")
        if shard_count == 1:
            return
        base = SplittableRng(
            rng_seed, f"island-{shard_index}of{shard_count}-{self.name}"
        )
        self._rng = base.split(f"llmgen-{self.name}")
        self.successes = SuccessSet(
            self._rng.split("successes"), self._success_capacity
        )
        self._counter = 0
        self._island = (shard_index, shard_count)
        self._fitness = MutationFitness()
        self._migrant_buffer = []
        rebind = getattr(self.llm, "rebind", None)
        if rebind is not None:
            rebind(base.split(f"llm-{self.name}"))

    def generate(self) -> GeneratedProgram:
        self._counter += 1
        rng = self._rng.split(f"prog-{self._counter}")
        strategy = self._pick_strategy(rng)
        focus: str | None = None

        if strategy == "mutation":
            if self._island is not None:
                pick = stochastic_universal_sampling(
                    rng.split("focus"), self._fitness.weights(), 1
                )[0]
                focus = MUTATION_STRATEGIES[pick]
            prompt = mutation_prompt(
                self.successes.sample(), self.precision, focus=focus
            )
        elif strategy == "grammar":
            prompt = grammar_prompt(self.precision, self.grammar)
        else:
            prompt = direct_prompt(self.precision)

        source = self.llm.complete(prompt)
        inputs = self._inputs_for(rng, source)
        meta = {"strategy": strategy, "approach": self.name, "index": self._counter}
        if focus is not None:
            meta["focus"] = focus
        return GeneratedProgram(source=source, inputs=inputs, meta=meta)

    def observe(self, outcome) -> None:
        """Feed one owned verdict back: the success set, and (island mode)
        the per-strategy fitness census and the migrant buffer."""
        if not outcome.triggered:
            return
        program = outcome.program
        if self.use_feedback:
            self.successes.add(program.source)
        if self._island is not None:
            from repro.triage.cluster import outcome_signature

            kinds, cells = outcome_signature(outcome)
            signature = [list(kinds), list(cells)]
            novelty = self._fitness.observe(
                json.dumps(signature), program.meta.get("focus")
            )
            self._migrant_buffer.append(
                {
                    "source": program.source,
                    "signature": signature,
                    "strategy": program.meta.get("focus"),
                    "novelty": novelty,
                    "order": len(self._migrant_buffer),
                }
            )

    def export_state(self) -> dict:
        state = {
            "counter": self._counter,
            "successes": self.successes.export_state(),
            "fitness": self._fitness.export_state(),
            "migrants": [dict(m) for m in self._migrant_buffer],
        }
        llm_export = getattr(self.llm, "export_state", None)
        if llm_export is not None:
            state["llm"] = llm_export()
        return state

    def import_state(self, state: dict) -> None:
        self._counter = int(state["counter"])
        self.successes.import_state(state["successes"])
        self._fitness.import_state(state["fitness"])
        self._migrant_buffer = [dict(m) for m in state["migrants"]]
        llm_import = getattr(self.llm, "import_state", None)
        if llm_import is not None and "llm" in state:
            llm_import(state["llm"])

    # -- island exchange ---------------------------------------------------------

    def export_migrants(self, limit: int) -> list[dict]:
        """Drain the current generation's triggers, most novel first."""
        ranked = sorted(
            self._migrant_buffer, key=lambda m: (-m["novelty"], m["order"])
        )
        self._migrant_buffer = []
        return [
            {
                "source": m["source"],
                "signature": m["signature"],
                "strategy": m["strategy"],
            }
            for m in ranked[:limit]
        ]

    def import_migrants(self, migrants: list[dict]) -> None:
        """Absorb a sibling island's exported triggers: their sources join
        the feedback set, their signatures the novelty census."""
        for m in migrants:
            if self.use_feedback:
                self.successes.add(m["source"])
            self._fitness.observe(json.dumps(m["signature"]), None)

    # -- internals -------------------------------------------------------------------

    def _pick_strategy(self, rng: SplittableRng) -> str:
        if self.use_feedback and len(self.successes) > 0 and rng.bernoulli(
            self.mutation_prob
        ):
            return "mutation"
        return "grammar" if self.use_grammar else "direct"

    def _inputs_for(self, rng: SplittableRng, source: str) -> tuple:
        """Pair the program with an input vector matching its signature."""
        try:
            unit = parse_program(source)
            compute = unit.function("compute")
        except (ReproError, KeyError):
            return ()
        param_types = []
        for p in compute.params:
            ty = p.type.base + ("*" if p.type.pointers else "")
            param_types.append(ty)
        return generate_inputs(
            rng.split("inputs"),
            param_types,
            self.input_profile,
            max_trip=self.grammar.max_loop_trip,
            array_len=_ARRAY_LEN,
        )
