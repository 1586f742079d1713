"""Scenario: inside the feedback loop (paper §2.3.2 / Figure 1).

Shows the Feedback-Based Mutation machinery in the open: builds the exact
prompts the framework sends, lets the SimLLM mutate a real triggering
program, and tracks how the successful set and the grammar/mutation
strategy split (0.3/0.7) evolve over a short campaign.

Usage:
    python examples/mutation_campaign.py [budget] [seed]
"""

import sys
from collections import Counter

from repro import (
    CampaignConfig,
    CampaignEngine,
    SplittableRng,
    default_compilers,
    make_generator,
)
from repro.generation.prompts import mutation_prompt


def main() -> None:
    budget = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    rng = SplittableRng(seed)
    generator = make_generator("llm4fp", rng)
    config = CampaignConfig(budget=budget, seed=seed)
    engine = CampaignEngine(default_compilers(), config)

    strategies: Counter = Counter()
    first_success_source = None
    first_mutant_source = None

    for i in range(budget):
        program = generator.generate()
        strategies[program.strategy] += 1
        outcome = engine.test_program(i, program)
        if outcome.triggered:
            generator.notify_success(program)
            if first_success_source is None:
                first_success_source = program.source
        if program.strategy == "mutation" and first_mutant_source is None:
            first_mutant_source = program.source
        print(
            f"#{i:>3} strategy={program.strategy:<8} "
            f"triggered={'yes' if outcome.triggered else 'no ':<3} "
            f"successful-set={len(generator.successes)}"
        )

    print()
    print(f"strategy mix over {budget} programs: {dict(strategies)}")
    print("(the paper picks mutation with probability 0.7 once the")
    print(" successful set is non-empty; the first program is always grammar-based)")

    if first_success_source and first_mutant_source:
        print()
        print("=" * 70)
        print("A successful program that seeded mutations:")
        print("-" * 70)
        print(first_success_source)
        print("=" * 70)
        print("The exact prompt the framework would build from it:")
        print("-" * 70)
        prompt = mutation_prompt(first_success_source)
        print(prompt[:1200] + ("..." if len(prompt) > 1200 else ""))
        print("=" * 70)
        print("A mutant generated during the campaign:")
        print("-" * 70)
        print(first_mutant_source)


if __name__ == "__main__":
    main()
