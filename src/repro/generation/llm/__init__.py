"""The LLM client layer.

:class:`SimLLM` is the offline stand-in for the paper's GPT-4
(`gpt-4.1-2025-04-14`, §3.1.4): it consumes the exact prompt text the
strategies build, honours only what the prompt states, and emits plain C.
Sampling hyperparameters (temperature 1.2, frequency penalty 0.5, presence
penalty 0.6) map onto its pattern-sampling entropy and anti-repetition
weights.
"""

from repro.generation.llm.base import GenerationConfig, LatencyModel, LLMClient, SuccessSet
from repro.generation.llm.simllm import SimLLM
from repro.generation.llm.generator import LLMProgramGenerator

__all__ = [
    "GenerationConfig",
    "LatencyModel",
    "LLMClient",
    "SuccessSet",
    "SimLLM",
    "LLMProgramGenerator",
]
