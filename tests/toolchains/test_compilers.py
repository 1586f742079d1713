"""Toolchain models: pipelines per level, inconsistency mechanisms."""

import pytest

from repro.errors import CompileError
from repro.toolchains import (
    ALL_LEVELS,
    ClangCompiler,
    GccCompiler,
    NvccCompiler,
    OptLevel,
    default_compilers,
    flags_for,
)

TRANSCENDENTAL = """
#include <stdio.h>
#include <math.h>
void compute(double a, double b, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    comp += sin(a + i) * b;
  }
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  compute(atof(argv[1]), atof(argv[2]), atoi(argv[3]));
  return 0;
}
"""

FMA_SHAPE = """
#include <stdio.h>
void compute(double a, double b, double c) {
  double comp = a * b + c;
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  compute(atof(argv[1]), atof(argv[2]), atof(argv[3]));
  return 0;
}
"""

CONST_CALL = """
#include <stdio.h>
#include <math.h>
void compute(double a, double b) {
  double k = sin(0.502);
  double comp = k + a * b;
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  compute(atof(argv[1]), atof(argv[2]));
  return 0;
}
"""

PROPAGATED_CALL = """
#include <stdio.h>
#include <math.h>
void compute(double a, double b) {
  double w = 0.502;
  double k = sin(w);
  double comp = k + a * b;
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  compute(atof(argv[1]), atof(argv[2]));
  return 0;
}
"""

# sin(0.502): a point where HostLibm's faithful result differs from the
# correctly rounded one (verified by the decorrelation test below).


def run(compiler, source, level, inputs):
    binary = compiler.compile_source(source, level)
    result = binary.run(inputs)
    assert result.ok, result.error
    return result.signature()


class TestBasics:
    def test_default_trio(self):
        names = [c.name for c in default_compilers()]
        assert names == ["gcc", "clang", "nvcc"]

    def test_flags_table1(self):
        assert flags_for("gcc", OptLevel.O0_NOFMA) == "-O0 -ffp-contract=off"
        assert flags_for("nvcc", OptLevel.O0_NOFMA) == "-O0 --fmad=false"
        assert flags_for("clang", OptLevel.O3_FASTMATH) == "-O3 -ffast-math"
        assert flags_for("nvcc", OptLevel.O3_FASTMATH) == "-O3 --use_fast_math"

    def test_all_levels_order(self):
        assert [str(l) for l in ALL_LEVELS] == [
            "O0_nofma", "O0", "O1", "O2", "O3", "O3_fastmath",
        ]

    def test_compile_failure_raises(self):
        with pytest.raises(CompileError):
            GccCompiler().compile_source("void compute( {", OptLevel.O0)

    def test_sema_failure_is_compile_error(self):
        bad = (
            "void compute(double a) { double c = mystery(a); }"
            "int main() { compute(1.0); return 0; }"
        )
        with pytest.raises(CompileError):
            ClangCompiler().compile_source(bad, OptLevel.O0)

    def test_binary_label(self):
        b = GccCompiler().compile_source(FMA_SHAPE, OptLevel.O2)
        assert b.label == "gcc/O2"
        assert b.flags == "-O2"


class TestDeterminism:
    @pytest.mark.parametrize("compiler", [GccCompiler(), ClangCompiler(), NvccCompiler()])
    def test_same_binary_same_output(self, compiler):
        inputs = (1.25, -0.75, 13)
        for level in ALL_LEVELS:
            s1 = run(compiler, TRANSCENDENTAL, level, inputs)
            s2 = run(compiler, TRANSCENDENTAL, level, inputs)
            assert s1 == s2


class TestHostHostMechanisms:
    def test_gcc_clang_agree_on_pure_arithmetic_strict(self):
        src = FMA_SHAPE
        inputs = (1.1, 2.3, -0.7)
        for level in (OptLevel.O0_NOFMA, OptLevel.O0, OptLevel.O1):
            assert run(GccCompiler(), src, level, inputs) == run(
                ClangCompiler(), src, level, inputs
            )

    def test_gcc_clang_agree_on_runtime_transcendentals(self):
        # Same HostLibm: variable-argument math calls match exactly.
        inputs = (0.37, 1.91, 23)
        assert run(GccCompiler(), TRANSCENDENTAL, OptLevel.O0, inputs) == run(
            ClangCompiler(), TRANSCENDENTAL, OptLevel.O0, inputs
        )

    def test_clang_folds_const_call_at_O0_gcc_does_not(self):
        inputs = (0.0, 0.0)
        g = run(GccCompiler(), CONST_CALL, OptLevel.O0, inputs)
        c = run(ClangCompiler(), CONST_CALL, OptLevel.O0, inputs)
        assert g != c  # folded CR constant vs runtime glibc value

    def test_gcc_folds_const_call_from_O1(self):
        inputs = (0.0, 0.0)
        assert run(GccCompiler(), CONST_CALL, OptLevel.O1, inputs) == run(
            ClangCompiler(), CONST_CALL, OptLevel.O0, inputs
        )

    def test_clang_propagation_reaches_more_sites_at_O1(self):
        inputs = (0.0, 0.0)
        g = run(GccCompiler(), PROPAGATED_CALL, OptLevel.O1, inputs)
        c = run(ClangCompiler(), PROPAGATED_CALL, OptLevel.O1, inputs)
        assert g != c  # gcc: runtime libm; clang: folded CR value

    def test_fastmath_diverges_hosts(self):
        src = """
#include <stdio.h>
void compute(double a, double b, double c, double d) {
  double comp = a + b + c + d;
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  compute(atof(argv[1]), atof(argv[2]), atof(argv[3]), atof(argv[4]));
  return 0;
}
"""
        inputs = (1e16, 1.0, -1e16, 1.0)
        g = run(GccCompiler(), src, OptLevel.O3_FASTMATH, inputs)
        strict = run(GccCompiler(), src, OptLevel.O0, inputs)
        assert g != strict  # reassociation changes the cancellation


class TestDeviceMechanisms:
    def test_nvcc_contracts_at_O0_but_not_O0_nofma(self):
        # fmad_prob=1.0 forces every eligible site to fuse so the mechanism
        # is observable on this single-site program (the default is ptxas'
        # selective fusion).
        inputs = (1.0 + 2.0**-30, 1.0 + 2.0**-30, -1.0)
        nvcc = NvccCompiler(fmad_prob=1.0)
        nofma = run(nvcc, FMA_SHAPE, OptLevel.O0_NOFMA, inputs)
        fma = run(nvcc, FMA_SHAPE, OptLevel.O0, inputs)
        assert nofma != fma

    def test_nvcc_flat_across_O0_to_O3(self):
        inputs = (1.37, -2.21, 17)
        sigs = {
            run(NvccCompiler(), TRANSCENDENTAL, level, inputs)
            for level in (OptLevel.O0, OptLevel.O1, OptLevel.O2, OptLevel.O3)
        }
        assert len(sigs) == 1

    def test_host_device_differ_on_transcendentals(self):
        inputs = (0.37, 1.91, 23)
        host = run(GccCompiler(), TRANSCENDENTAL, OptLevel.O0_NOFMA, inputs)
        dev = run(NvccCompiler(), TRANSCENDENTAL, OptLevel.O0_NOFMA, inputs)
        assert host != dev  # glibc vs CUDA libm

    def test_hosts_never_contract(self):
        inputs = (1.0 + 2.0**-30, 1.0 + 2.0**-30, -1.0)
        for compiler in (GccCompiler(), ClangCompiler()):
            o0 = run(compiler, FMA_SHAPE, OptLevel.O0_NOFMA, inputs)
            o3 = run(compiler, FMA_SHAPE, OptLevel.O3, inputs)
            assert o0 == o3

    def test_double_precision_fastmath_keeps_cuda_libm(self):
        # CUDA --use_fast_math affects FP32 intrinsics; FP64 kernels keep
        # the precise CUDA libm (Table 5's nearly-flat nvcc column).
        inputs = (0.37, 1.91, 23)
        o3 = run(NvccCompiler(), TRANSCENDENTAL, OptLevel.O3, inputs)
        fast = run(NvccCompiler(), TRANSCENDENTAL, OptLevel.O3_FASTMATH, inputs)
        assert o3 == fast
