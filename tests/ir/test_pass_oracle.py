"""Bit-preservation oracle for the scalar enabling passes.

``LoopUnroll`` and ``IfConvert`` only reshape loops: every FP operation
still runs in the original order on the original operands.  Applied
alone to a campaign kernel, each must leave status, stdout and printed
bits unchanged on the program's own inputs.  Every run is in ``check``
mode, so the tape is also compared bit for bit with the reference
interpreter on each kernel.  Step counts are not compared: unrolling
legitimately changes them.

The host pipelines rely on this twice over: a loop ``Vectorize`` leaves
scalar is unrolled, and triage bisection must never pin a flip on
either pass.

``PassPipeline.run`` also runs each pass's prefix passes first: clang's
propagating fold starts from the literal fold's output.  Triage bisects
with the plain pass list, so the prefix must not change any kernel a
pipeline builds.
"""

from functools import cache
from types import SimpleNamespace

import pytest

from repro.difftest.engine import frontend_kernels
from repro.execution.worker import run_kernel
from repro.experiments.approaches import make_generator
from repro.fp.bits import double_to_bits
from repro.fp.env import FPEnvironment
from repro.ir.passes import ConstantFold, IfConvert, LoopUnroll
from repro.toolchains import ClangCompiler, GccCompiler
from repro.toolchains.base import CompilerKind
from repro.toolchains.optlevels import ALL_LEVELS
from repro.utils.rng import SplittableRng

#: The CLI's default ``--seed``.
DEFAULT_SEED = 20250916
PROGRAMS = 40
GENERATORS = (
    ("varity", "baseline"),
    ("llm4fp", "baseline"),
    ("loops", "baseline"),
    ("loops", "full"),
)


@cache
def campaign_kernels():
    """(label, host kernel, inputs, tier profile) for the first programs
    of each generator."""
    out = []
    for approach, tiers in GENERATORS:
        gen = make_generator(
            approach, SplittableRng(DEFAULT_SEED, f"cli-{approach}"), tiers=tiers
        )
        for index in range(PROGRAMS):
            program = gen.generate()
            # Every program counts as a trigger, so llm4fp mutates.
            gen.observe(SimpleNamespace(triggered=True, program=program))
            kernel = frontend_kernels(program.source).kernels.get(CompilerKind.HOST)
            if kernel is not None:
                out.append(
                    (f"{approach}/{tiers}#{index}", kernel, program.inputs, tiers)
                )
    return tuple(out)


def observable(kernel, inputs):
    r = run_kernel(kernel, FPEnvironment(), inputs, mode="check")
    return r.status, r.stdout, tuple(double_to_bits(v) for v in r.printed)


@pytest.mark.parametrize(
    "p", [LoopUnroll(4), LoopUnroll(8), IfConvert()],
    ids=["loop-unroll-4", "loop-unroll-8", "if-convert"],
)
def test_pass_alone_keeps_printed_bits(p):
    rewritten = 0
    for label, kernel, inputs, _ in campaign_kernels():
        out = p.run(kernel)
        if out is kernel:
            continue
        rewritten += 1
        assert observable(out, inputs) == observable(kernel, inputs), label
    assert rewritten  # the corpus exercises the pass


def test_propagating_fold_ignores_the_literal_fold_before_it():
    literal, propagating = ConstantFold(True, False), ConstantFold(True, True)
    assert propagating.prefix()[0].key() == literal.key()
    unchanged = 0
    for label, kernel, _, _ in campaign_kernels():
        folded = literal.run(kernel)
        out = propagating.run(folded)
        assert repr(out) == repr(propagating.run(kernel)), label
        unchanged += out is folded
    # Most kernels have nothing to propagate; the fold then hands back
    # the literal fold's object, which gcc and clang share.
    assert (unchanged, len(campaign_kernels())) == (114, 160)


def test_pipeline_equals_its_passes_run_in_turn():
    for label, kernel, _, tiers in campaign_kernels():
        memo: dict = {}
        for compiler in (GccCompiler(tiers), ClangCompiler(tiers)):
            for level in ALL_LEVELS:
                pipeline = compiler.pipeline(level)
                plain = kernel
                for p in pipeline.passes:
                    plain = p.run(plain)
                out = pipeline.run(kernel, memo)
                assert repr(out) == repr(plain), (label, compiler.name, level)
