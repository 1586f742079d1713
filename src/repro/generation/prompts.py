"""Prompt construction for the LLM-based strategies (paper §2.3).

The prompts are real text artifacts: the harness builds them, the LLM
client consumes them, and the simulated LLM extracts every constraint it
honours *from the prompt alone* — keeping the framework/LLM interface
identical to the paper's.
"""

from __future__ import annotations

from repro.fp.formats import Precision
from repro.generation.grammar import GrammarSpec

__all__ = [
    "GUIDELINES",
    "MUTATION_STRATEGIES",
    "direct_prompt",
    "grammar_prompt",
    "mutation_prompt",
    "OUTPUT_INSTRUCTION",
]

#: Robustness/code-quality guidelines (§2.3.1): header allow-list,
#: initialization, and UB avoidance.
GUIDELINES = (
    "Guidelines:\n"
    "- Use only these headers: stdio.h, stdlib.h, math.h.\n"
    "- Initialize every variable before it is used.\n"
    "- Avoid undefined behavior: keep array indices in bounds, avoid\n"
    "  integer overflow and division of integers by zero.\n"
    "- Keep loops bounded by small constants or the int parameter.\n"
)

#: High-level program structure (§2.2): exactly two functions.
STRUCTURE = (
    "Program structure:\n"
    "- Define exactly two functions: `compute` and `main`.\n"
    "- `compute` takes scalar floating-point arguments (optionally an int\n"
    "  and a pointer argument), performs a sequence of floating-point\n"
    "  operations, stores the scalar result in a variable named `comp`,\n"
    '  and prints it with printf("%.17g\\n", comp).\n'
    "- `main` reads the inputs with atof/atoi from argv and calls `compute`.\n"
)

#: Mutation strategies listed in the Feedback-Based Mutation prompt (§2.3.2).
MUTATION_STRATEGIES = (
    "reorder or deeply nest arithmetic expressions",
    "change numeric constants",
    "introduce new control flow such as nested loops or conditionals",
    "use different math library functions",
    "insert intermediate computations",
)

OUTPUT_INSTRUCTION = (
    "Output the plain C code only, with no markdown formatting and no "
    "explanation."
)


def _precision_line(precision: Precision) -> str:
    return (
        f"Use {precision.value} precision ({precision.c_type}) for all "
        "floating-point variables.\n"
    )


def direct_prompt(precision: Precision = Precision.DOUBLE) -> str:
    """The Direct-Prompt baseline: no grammar, no examples."""
    return (
        "Create a random but valid floating-point C program.\n\n"
        + _precision_line(precision)
        + "\n"
        + STRUCTURE
        + "\n"
        + GUIDELINES
        + "\n"
        + OUTPUT_INSTRUCTION
    )


def grammar_prompt(
    precision: Precision = Precision.DOUBLE, grammar: GrammarSpec | None = None
) -> str:
    """Grammar-Based Generation (§2.3.1): structure + Figure 2 grammar."""
    grammar = grammar or GrammarSpec(precision=precision)
    return (
        "Create a random but valid floating-point C program.\n\n"
        + _precision_line(precision)
        + "\n"
        + STRUCTURE
        + "\n"
        + "The body of `compute` must follow this grammar:\n"
        + grammar.render()
        + "\n"
        + GUIDELINES
        + "\n"
        + OUTPUT_INSTRUCTION
    )


def mutation_prompt(
    example_source: str,
    precision: Precision = Precision.DOUBLE,
    focus: str | None = None,
) -> str:
    """Feedback-Based Mutation (§2.3.2): mutate a successful program.

    ``focus`` names one of :data:`MUTATION_STRATEGIES` to emphasize — the
    island model's fitness-weighted operator selection speaks to the LLM
    through this prompt line, the same string-typed interface everything
    else uses (the simulated LLM extracts it in
    :func:`repro.generation.llm.parsing.parse_prompt`).  The example goes
    in verbatim, so the model reads back the exact text that was tested.
    """
    if focus is not None and focus not in MUTATION_STRATEGIES:
        raise ValueError(f"unknown mutation strategy: {focus!r}")
    strategies = "\n".join(f"- {s}" for s in MUTATION_STRATEGIES)
    focus_line = (
        f"Focus especially on this strategy: {focus}.\n\n" if focus is not None else ""
    )
    return (
        "Change the given floating-point C program to create a new one that "
        "behaves differently.\n\n"
        + _precision_line(precision)
        + "\n"
        + STRUCTURE
        + "\n"
        + GUIDELINES
        + "\n"
        + "Mutation strategies to consider:\n"
        + strategies
        + "\n\n"
        + focus_line
        + "Example program (previously triggered a numerical inconsistency):\n"
        + "```\n"
        + example_source
        + "\n```\n\n"
        + OUTPUT_INSTRUCTION
    )
