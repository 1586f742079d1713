"""Generated-program value objects and the generator lifecycle protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

__all__ = [
    "GeneratedProgram",
    "GeneratorCapabilities",
    "ProgramGenerator",
    "generator_capabilities",
]


@dataclass(frozen=True)
class GeneratedProgram:
    """One candidate test program paired with its input vector (§3.1.3).

    ``inputs`` has one entry per ``compute`` parameter: a float/int scalar
    or a tuple of floats for pointer parameters.  ``meta`` records how the
    program was produced (strategy, pattern names, mutation parent) for
    diversity analysis and debugging.
    """

    source: str
    inputs: tuple
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def strategy(self) -> str:
        return self.meta.get("strategy", "unknown")


@dataclass(frozen=True)
class GeneratorCapabilities:
    """What the engine may do with a generator, declared up front.

    ``feedback``
        Program *i+1* depends on the verdicts of earlier programs (the
        LLM4FP mutation loop).  The engine must deliver every owned
        outcome via :meth:`ProgramGenerator.observe`, and classic
        replay-the-whole-stream sharding is unsound — feedback campaigns
        shard through the island model instead (``--islands``).
    ``shardable``
        The generator can be :meth:`~ProgramGenerator.bind`-partitioned:
        feedback-free generators shard classically (every shard replays
        the identical stream), feedback generators shard as islands
        (each shard evolves its own deterministic population).
    """

    feedback: bool = False
    shardable: bool = True


class ProgramGenerator(Protocol):
    """A source of candidate programs — one of the paper's approaches.

    The lifecycle, in call order:

    1. ``bind(shard_index, shard_count, rng_seed)`` — pin the generator to
       its generation partition before the first ``generate()``.  Binding
       partition ``0/1`` (the whole stream) is an identity operation: the
       stream stays exactly the one the constructor seeded, which is what
       classic sharding replays on every shard.  Binding ``k/n`` with
       ``n > 1`` re-derives every RNG stream from ``(rng_seed, k, n)`` so
       island *k* evolves the same population no matter which process,
       entry point, or worker schedule runs it.
    2. ``generate()`` — produce the next candidate program.
    3. ``observe(outcome)`` — receive the full verdict for an owned
       program (feeds the feedback set and the fitness census; no-op for
       feedback-free approaches).
    4. ``export_state()`` / ``import_state(state)`` — snapshot/restore the
       evolution state as a JSON-serializable dict.

    The engine, the island coordinator and the corpus-replay wrapper call
    these methods directly, so every generator implements all of them.

    ``capabilities`` declares up front what the engine may do with the
    generator; it replaces the deprecated ``use_feedback`` attribute probe
    (see :func:`generator_capabilities`).
    """

    name: str
    capabilities: GeneratorCapabilities

    def bind(self, shard_index: int, shard_count: int, rng_seed: int) -> None:
        """Pin the generator to generation partition ``shard_index/shard_count``."""
        ...

    def generate(self) -> GeneratedProgram:
        """Produce the next candidate program (with inputs)."""
        ...

    def observe(self, outcome: Any) -> None:
        """Receive the full :class:`~repro.difftest.record.ProgramOutcome`
        for an owned program (feedback + fitness; no-op when feedback-free).
        """
        ...

    def export_state(self) -> dict:
        """Snapshot the evolution state as a JSON-serializable dict."""
        ...

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        ...


def generator_capabilities(generator: Any) -> GeneratorCapabilities:
    """The declared :class:`GeneratorCapabilities` of ``generator``.

    A bare ``use_feedback`` attribute without a ``capabilities``
    declaration is a hard error: the attribute-probe bridge lasted one
    release (behind a :class:`DeprecationWarning`) and silently guessing
    sharding semantics from it is how feedback campaigns end up
    classically sharded.  Generators declaring neither are treated as
    feedback-free and shardable — the semantics every 2-method
    generator had.
    """
    caps = getattr(generator, "capabilities", None)
    if isinstance(caps, GeneratorCapabilities):
        return caps
    if hasattr(generator, "use_feedback"):
        raise TypeError(
            f"generator {getattr(generator, 'name', generator)!r} declares "
            "use_feedback but no capabilities field; the use_feedback "
            "probe was removed — declare "
            "capabilities = GeneratorCapabilities(feedback=...) instead"
        )
    return GeneratorCapabilities(feedback=False, shardable=True)

