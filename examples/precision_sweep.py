"""FP64 vs FP32 campaigns — the precision extension the paper sketches.

§3.1.3: "By default, the programs use double-precision floating-point
arithmetic, i.e., FP64, but they could be easily extended to other
precisions such as single-precision, i.e., FP32."  This example runs the
same LLM4FP campaign at both precisions and contrasts:

* the inconsistency rate (FP32 kernels additionally hit the device's
  fast-math FTZ / approximate-division units under O3_fastmath, which
  FP64 kernels do not — see `repro.toolchains.nvcc`);
* the inconsistency-kind mix per precision.

Usage:
    python examples/precision_sweep.py [budget] [seed]
"""

import sys

from repro import (
    CampaignConfig,
    CampaignEngine,
    CampaignReport,
    SplittableRng,
    make_generator,
)
from repro.difftest.classify import kind_label
from repro.fp.formats import Precision
from repro.toolchains import ClangCompiler, GccCompiler, NvccCompiler


def run_at(precision: Precision, budget: int, seed: int, fmad_prob=None):
    rng = SplittableRng(seed, f"precision-{precision.value}")
    generator = make_generator("llm4fp", rng, precision=precision)
    nvcc = (
        NvccCompiler(precision=precision)
        if fmad_prob is None
        else NvccCompiler(precision=precision, fmad_prob=fmad_prob)
    )
    compilers = [GccCompiler(), ClangCompiler(), nvcc]
    return CampaignEngine(compilers, CampaignConfig(budget=budget)).run(generator)


def show(title: str, result) -> None:
    report = CampaignReport(result)
    summary = report.summary()
    print(f"== {title} ==")
    print(
        f"  inconsistency rate: {summary['inconsistency_rate'] * 100:.2f}%"
        f"  ({summary['inconsistencies']} / {summary['total_comparisons']})"
    )
    kinds = report.kind_counts()
    for kind, count in sorted(kinds.counts.items(), key=lambda kv: -kv[1]):
        print(f"  {kind_label(kind):20s} {count}")
    print()


def main() -> None:
    budget = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7

    show("FP64 (double)", run_at(Precision.DOUBLE, budget, seed))

    # C promotes float math-call arguments to double (`sin` has no float
    # overload in C): the libraries' sub-ulp double divergences are then
    # absorbed when the result narrows back to float, so a plain FP32
    # campaign is much quieter than FP64 — double rounding as a shield.
    show("FP32 (float), default toolchains", run_at(Precision.SINGLE, budget, seed))

    # Where FP32 *does* diverge: FMA contraction at float granularity.
    # Forcing ptxas to fuse every eligible site makes the device's fused
    # float multiply-adds visible against the hosts' unfused ones.
    show(
        "FP32 (float), nvcc fusing every site (--fmad aggressive)",
        run_at(Precision.SINGLE, budget, seed, fmad_prob=1.0),
    )


if __name__ == "__main__":
    main()
