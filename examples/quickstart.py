"""Quickstart: find floating-point inconsistencies with LLM4FP in ~a minute.

Runs a small LLM4FP campaign across the simulated gcc/clang/nvcc toolchains
at all six optimization levels (paper Table 1), prints the inconsistency
rate and kinds, and shows one triggering program with the exact outputs
each compiler produced.

Usage:
    python examples/quickstart.py [budget] [seed]
"""

import sys

from repro import (
    CampaignConfig,
    CampaignEngine,
    CampaignReport,
    SplittableRng,
    default_compilers,
    make_generator,
)
from repro.toolchains import ALL_LEVELS, flags_for


def main() -> None:
    budget = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 42

    print("Optimization levels under test (paper Table 1):")
    for level in ALL_LEVELS:
        print(
            f"  {str(level):<12} host: {flags_for('gcc', level):<22}"
            f" nvcc: {flags_for('nvcc', level)}"
        )
    print()

    rng = SplittableRng(seed)
    generator = make_generator("llm4fp", rng)
    compilers = default_compilers()
    print(f"Running LLM4FP campaign: {budget} programs x "
          f"{len(compilers)} compilers x {len(ALL_LEVELS)} levels ...")
    engine = CampaignEngine(compilers, CampaignConfig(budget=budget, seed=seed))
    result = engine.run(generator)

    report = CampaignReport(result)
    s = report.summary()
    print()
    print(f"total comparisons:   {s['total_comparisons']:,}")
    print(f"inconsistencies:     {s['inconsistencies']:,}")
    print(f"inconsistency rate:  {s['inconsistency_rate'] * 100:.2f}%")
    print(f"triggering programs: {s['triggering_programs']} / {budget}")
    print("kinds:", report.kind_counts().as_labels())
    print()

    # Show the first triggering program and what each side printed.
    for outcome in result.outcomes:
        if not outcome.triggered:
            continue
        record = outcome.inconsistent_comparisons[0]
        print("=" * 70)
        print(f"program #{outcome.index} "
              f"(strategy: {outcome.program.strategy}) triggered "
              f"{len(outcome.inconsistent_comparisons)} inconsistent comparisons")
        print(f"first: {record.compiler_a} vs {record.compiler_b} at {record.level}")
        print(f"  {record.compiler_a}: {record.value_a!r}")
        print(f"  {record.compiler_b}: {record.value_b!r}")
        print(f"  differing hex digits: {record.digit_diff}/16")
        print("-" * 70)
        print(outcome.program.source)
        print(f"inputs: {outcome.program.inputs}")
        break


if __name__ == "__main__":
    main()
