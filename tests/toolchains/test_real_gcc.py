"""The gcc model against the real gcc on this host, on a small slice.

The first programs of each approach at the CLI's default seed are
compiled with the model's ``GccCompiler`` and with the real ``gcc`` under
the same Table 1 flags (:func:`~repro.toolchains.flags_for`), and both
binaries run on the program's inputs.  At ``O0_nofma``, ``O0`` and ``O1``
the model claims IEEE double semantics plus a libm, so stdout must match
byte for byte.  The model links a *perturbed* host libm to stand in for
glibc's last-ulp errors; here the binary's libm is swapped for
:class:`~repro.fp.mathlib.CorrectlyRoundedLibm`, which evaluates through
the platform C math library, so both sides call the same functions.  The
swap is made on the compiled binary only; no production code knows
about it.

One rule folds a difference the model does not simulate, by name:

* **NaN sign.**  x86's default NaN (``0/0``, ``inf - inf``) has its sign
  bit set, and glibc prints it as ``-nan``; the model prints every NaN as
  ``nan``.  Result signatures already fold every NaN to one class, so
  each printed ``-nan`` reads as ``nan`` on both sides.

``O2``/``O3`` (host reduction vectorization) and fast math (FTZ via
``crtfastmath.o``) are known to differ and are not in this slice.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine, EngineConfig
from repro.experiments.approaches import make_generator
from repro.fp.mathlib import CorrectlyRoundedLibm
from repro.toolchains import (
    CompilerKind,
    GccCompiler,
    OptLevel,
    SystemGcc,
    default_compilers,
    flags_for,
    system_gcc_available,
)
from repro.utils.rng import SplittableRng

pytestmark = pytest.mark.skipif(
    not system_gcc_available(), reason="no gcc on PATH to check the host model against"
)

SEED = 20250916
PROGRAMS = 5
APPROACHES = ("varity", "llm4fp", "loops")
LEVELS = (OptLevel.O0_NOFMA, OptLevel.O0, OptLevel.O1)


def fold_nan_sign(stdout: str) -> str:
    """The NaN-sign rule: a printed ``-nan`` reads as ``nan``."""
    return stdout.replace("-nan", "nan")


def argv(inputs: tuple) -> tuple[str, ...]:
    """The program's inputs as ``main`` reads them: arrays flattened in
    order, doubles as their shortest round-trip text."""
    flat = []
    for value in inputs:
        flat.extend(value if isinstance(value, tuple) else (value,))
    return tuple(repr(v) if isinstance(v, float) else str(v) for v in flat)


@pytest.fixture(scope="module")
def programs():
    """approach -> the first :data:`PROGRAMS` programs of its default
    campaign (feedback included, as ``llm4fp run`` generates them)."""
    out = {}
    for approach in APPROACHES:
        engine = CampaignEngine(
            default_compilers(), CampaignConfig(budget=PROGRAMS, seed=SEED), EngineConfig()
        )
        result = engine.run(make_generator(approach, SplittableRng(SEED, f"cli-{approach}")))
        out[approach] = [outcome.program for outcome in result.outcomes]
    return out


@pytest.mark.parametrize("level", LEVELS, ids=str)
@pytest.mark.parametrize("approach", APPROACHES)
def test_model_prints_what_real_gcc_prints(programs, approach, level):
    model = GccCompiler()
    real = SystemGcc(tuple(flags_for("gcc", level).split()))
    for index, program in enumerate(programs[approach]):
        binary = model.compile_source(program.source, level)
        binary = dataclasses.replace(
            binary, env=dataclasses.replace(binary.env, libm=CorrectlyRoundedLibm())
        )
        result = binary.run(program.inputs)
        assert result.ok, (approach, index, result.error)
        expected = real.run(program.source, argv(program.inputs))
        assert fold_nan_sign(result.stdout) == fold_nan_sign(expected), (approach, index)


#: ``(int)`` of a value whose fraction, once discarded, fits in an int;
#: once through an input and once as a literal the model's folds can see.
FP_TO_INT = (
    "#include <stdio.h>\n#include <stdlib.h>\n"
    "void compute(double x) {\n"
    "  double y = {literal};\n"
    "  int k = (int)x;\n  int m = (int)y;\n"
    '  printf("%d %d\\n", k, m);\n'
    "}\n"
    "int main(int argc, char **argv) {\n  compute(atof(argv[1]));\n  return 0;\n}\n"
)


@pytest.mark.parametrize("value", ["2147483647.5", "-2147483648.5", "-2147483648.0"])
@pytest.mark.parametrize("level", LEVELS, ids=str)
def test_float_to_int_discards_the_fraction_first(value, level):
    source = FP_TO_INT.replace("{literal}", value)
    expected = SystemGcc(tuple(flags_for("gcc", level).split())).run(source, (value,))
    assert expected == f"{int(float(value))} {int(float(value))}\n"
    hosts = [c for c in default_compilers() if c.kind is CompilerKind.HOST]
    assert hosts
    for compiler in hosts:
        result = compiler.compile_source(source, level).run((float(value),))
        assert result.ok and result.stdout == expected, (compiler.name, result.error)
