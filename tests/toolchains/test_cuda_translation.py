"""Host/device oracle for the C -> CUDA translation (paper §2.4).

The device compiler gets :func:`translate_to_cuda`, an AST rewrite of the
host unit.  Its text form, :func:`print_cuda`, is what nvcc would be
handed: parsing that text back must give exactly the rewritten unit, and
the device lowering must equal the host lowering, over the first programs
each generator emits at the CLI's default seed.
"""

from types import SimpleNamespace

import pytest

from repro.experiments.approaches import make_generator
from repro.frontend.parser import parse_program
from repro.frontend.printer import print_cuda
from repro.frontend.sema import check_program
from repro.ir.lower import lower_compute
from repro.toolchains.cuda import translate_to_cuda
from repro.utils.rng import SplittableRng

#: The CLI's default ``--seed``.
DEFAULT_SEED = 20250916
PROGRAMS = 60


def sources(approach, tiers):
    gen = make_generator(
        approach, SplittableRng(DEFAULT_SEED, f"cli-{approach}"), tiers=tiers
    )
    for _ in range(PROGRAMS):
        program = gen.generate()
        # Every program counts as a trigger, so llm4fp mutates from the
        # second program on and its mutated sources are covered too.
        gen.observe(SimpleNamespace(triggered=True, program=program))
        yield program.source


def lowered(unit):
    return repr(lower_compute(check_program(unit)))


@pytest.mark.parametrize(
    "approach, tiers",
    [("varity", "baseline"), ("llm4fp", "baseline"), ("loops", "baseline"),
     ("loops", "full")],
)
def test_cuda_text_parses_back_to_the_translation(approach, tiers):
    for source in sources(approach, tiers):
        unit = parse_program(source)
        cuda_unit = translate_to_cuda(unit)
        assert cuda_unit.function("compute").qualifier == "__global__"
        assert parse_program(print_cuda(unit)) == cuda_unit
        assert lowered(cuda_unit) == lowered(unit)


def test_translation_leaves_its_input_unchanged():
    source = (
        "void compute(double x) { double c = x * 2.0; }"
        " int main() { compute(1.0); return 0; }"
    )
    unit = parse_program(source)
    cuda_unit = translate_to_cuda(unit)
    assert unit.function("compute").qualifier is None
    assert cuda_unit.function("main") is unit.function("main")
    assert cuda_unit.function("compute").body is unit.function("compute").body
