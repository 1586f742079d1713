"""Golden pipeline output: one SHA-256 over every compiled kernel.

Each program is front-ended once and compiled by every ``(compiler,
level)`` of :func:`default_compilers` through one pass memo, as the
engine does.  The digest covers the ``repr`` of each optimized kernel, so
it pins the exact tree every pass pipeline builds: pass order, loop
shapes, lane-variable names and reduction styles.  A refactor of the
passes or of the pipelines must leave it unchanged; a change that means
to alter compiled code re-pins it and says why.
"""

import hashlib
from types import SimpleNamespace

import pytest

from repro.difftest.engine import frontend_kernels
from repro.errors import CompileError
from repro.experiments.approaches import make_generator
from repro.toolchains import default_compilers
from repro.toolchains.optlevels import ALL_LEVELS
from repro.utils.rng import SplittableRng

#: The CLI's default ``--seed``.
DEFAULT_SEED = 20250916
PROGRAMS = 20

GOLDEN = {
    ("varity", "baseline"): (
        "a51063c4d8fbbe14ca4e772c3b023862"
        "c72d2b27f25229e946c3b965b19a2ed7"
    ),
    ("llm4fp", "baseline"): (
        "23a038b7aa085aa1d84d71d297fa12de"
        "6964024e901912e54fa046475497c7aa"
    ),
    ("loops", "baseline"): (
        "856e07bb5e44c24a4660e6b468aa2ce8"
        "6eb0ab97bd5cd0ec26a3f8b8dd332db2"
    ),
    ("loops", "full"): (
        "71b8e0ae6d68c66b91165cc670abae58"
        "87957193d16e176eae1ddd8bbb05b757"
    ),
}


def pipeline_digest(approach, tiers):
    gen = make_generator(
        approach, SplittableRng(DEFAULT_SEED, f"cli-{approach}"), tiers=tiers
    )
    compilers = default_compilers(tiers)
    h = hashlib.sha256()
    for index in range(PROGRAMS):
        program = gen.generate()
        # Every program counts as a trigger, so llm4fp mutates from the
        # second program on and its mutated kernels are covered too.
        gen.observe(SimpleNamespace(triggered=True, program=program))
        frontend = frontend_kernels(program.source)
        memo: dict = {}
        for compiler in compilers:
            kernel = frontend.kernels.get(compiler.kind)
            for level in ALL_LEVELS:
                if kernel is None:
                    text = "front-end: " + frontend.errors[compiler.kind]
                else:
                    try:
                        text = repr(compiler.compile_kernel(kernel, level, memo).kernel)
                    except CompileError as e:
                        text = f"compile: {e}"
                h.update(f"{index} {compiler.name} {level}\n{text}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("approach, tiers", sorted(GOLDEN))
def test_compiled_kernels_match_golden_digest(approach, tiers):
    assert pipeline_digest(approach, tiers) == GOLDEN[approach, tiers]
