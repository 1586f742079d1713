"""Tape executor: bit-identity with the tree-walk interpreter.

The tape compiler's contract is *observational equivalence on every bit*:
status, error message, step count, stdout text and the IEEE bits of every
printed value must match the reference interpreter for every kernel, every
input, and every step limit — including runs that trap or hit the budget
mid-expression.  These tests sweep randomly generated programs (scalar,
vector and masked kernels via the real optimization pipelines) plus
directed trap/printf cases, always comparing on
:func:`repro.execution.batch.result_key`, never on dataclass equality
(NaN payloads would defeat ``==``).
"""

import pytest

from repro.errors import ExecutionDivergence
from repro.execution.batch import (
    DEFAULT_EXEC_MODE,
    EXEC_MODES,
    KernelRunner,
    result_key,
    run_batch,
    run_batch_task,
)
from repro.execution.interp import Interpreter
from repro.execution.tape import Tape, compile_tape
from repro.fp.env import FPEnvironment
from repro.frontend.parser import parse_program
from repro.frontend.sema import check_program
from repro.generation.loops import LoopReductionGenerator
from repro.generation.varity import VarityGenerator
from repro.ir.lower import lower_compute
from repro.toolchains import default_compilers
from repro.toolchains.optlevels import ALL_LEVELS
from repro.utils.rng import SplittableRng


def lower(source: str):
    return lower_compute(check_program(parse_program(source)))


def tree_run(kernel, env, inputs, max_steps=200000):
    return Interpreter(kernel, env, max_steps).run(inputs)


def tape_run(kernel, env, inputs, max_steps=200000):
    return compile_tape(kernel, env).run(inputs, max_steps)


def assert_parity(kernel, env, inputs, max_steps=200000):
    tree = tree_run(kernel, env, inputs, max_steps)
    tape = tape_run(kernel, env, inputs, max_steps)
    assert result_key(tape) == result_key(tree)
    return tree


def compiled_matrix(program, tiers="baseline"):
    """Every (optimized kernel, env) the campaign would execute."""
    from repro.difftest.engine import frontend_kernels

    frontend = frontend_kernels(program.source)
    out = []
    for compiler in default_compilers(tiers=tiers):
        kernel = frontend.kernels.get(compiler.kind)
        if kernel is None:
            continue
        for level in ALL_LEVELS:
            binary = compiler.compile_kernel(kernel, level)
            out.append((f"{compiler.name}-{level.name}", binary))
    return out


class TestRandomProgramParity:
    """Random generator output through the real pipelines, tree vs tape."""

    @pytest.mark.parametrize("seed", range(10))
    def test_varity_programs(self, seed):
        gen = VarityGenerator(SplittableRng(900 + seed, "tape-varity"))
        program = gen.generate()
        for _, binary in compiled_matrix(program):
            assert_parity(binary.kernel, binary.env, program.inputs)

    @pytest.mark.parametrize("seed", range(8))
    def test_loop_programs(self, seed):
        # Loop kernels vectorize at the -O3 tiers: this sweep covers
        # vector loads/stores, masked (if-converted) lanes and reductions.
        gen = LoopReductionGenerator(SplittableRng(700 + seed, "tape-loops"))
        program = gen.generate()
        for _, binary in compiled_matrix(program):
            assert_parity(binary.kernel, binary.env, program.inputs)

    @pytest.mark.parametrize("seed", range(4))
    def test_step_limit_sweep(self, seed):
        """Every possible step limit trips at the same count on both paths.

        Tick fusion batches the interpreter's per-node accounting, so the
        dangerous spots are limits that land *inside* a fused region; the
        dense low sweep plus a band around the true cost covers both.
        """
        gen = VarityGenerator(SplittableRng(40 + seed, "tape-limits"))
        program = gen.generate()
        matrix = compiled_matrix(program)[:4]
        for _, binary in matrix:
            full = tree_run(binary.kernel, binary.env, program.inputs)
            limits = set(range(0, min(full.steps + 2, 120)))
            limits.update(
                max(full.steps + d, 0) for d in (-2, -1, 0, 1, 2)
            )
            for limit in sorted(limits):
                assert_parity(binary.kernel, binary.env, program.inputs, limit)


class TestTierNodeParity:
    """The newer divergence tiers' lane nodes, tree vs tape.

    ``VecCall`` resolving through a vector math library and the
    mixed-precision ``VecFpExt``/``VecFpTrunc`` nodes must execute
    bit-identically on both paths in every FP environment family, at
    every step limit, and under ``check`` mode (which traps on any bit
    of divergence by construction).
    """

    MIXED_CALL_SRC = (
        "#include <stdio.h>\n#include <math.h>\n"
        "void compute(double *a, double s, int n) {\n"
        "  double comp = 0.0;\n"
        "  for (int i = 0; i < n; ++i) {\n"
        "    comp += sin(a[i]) * s + (float)(a[i]) * (float)(0.5 * s);\n"
        "  }\n"
        '  printf("%.17g\\n", comp);\n'
        "}\n"
        "int main(int argc, char **argv) {\n"
        "  double in_a[8] = {atof(argv[1]), atof(argv[2]), atof(argv[3]),"
        " atof(argv[4]), atof(argv[5]), atof(argv[6]), atof(argv[7]),"
        " atof(argv[8])};\n"
        "  compute(in_a, atof(argv[9]), atoi(argv[10]));\n"
        "  return 0;\n"
        "}\n"
    )
    INPUTS = ((0.37, -1.91, 2.23, 0.061, -0.77, 1.43, -2.9, 0.5), 1.7, 8)

    def _vector_kernel(self):
        """The source above widened with every tier construct enabled."""
        from repro.ir.passes import LoopUnroll, Vectorize

        kernel = lower(self.MIXED_CALL_SRC)
        kernel = LoopUnroll(4).run(kernel)
        return Vectorize(4, style="adjacent", mixed=True).run(kernel)

    def _environments(self):
        """Every scalar library family, with and without a vector library."""
        from repro.fp.mathlib import (
            ClangVecLibm,
            CudaLibm,
            FastCudaLibm,
            FastHostLibm,
            GccVecLibm,
            HostLibm,
            NvccVecLibm,
        )

        families = (HostLibm, CudaLibm, FastHostLibm, FastCudaLibm)
        veclibs = (None, GccVecLibm, ClangVecLibm, NvccVecLibm)
        for family in families:
            for veclib in veclibs:
                yield FPEnvironment(
                    libm=family(),
                    veclibm=veclib() if veclib else None,
                    ftz=(family is FastCudaLibm),
                )

    def test_parity_across_all_environment_families(self):
        kernel = self._vector_kernel()
        assert any("VecCall" in type(e).__name__ for e in _all_exprs(kernel))
        assert any("VecFpTrunc" in type(e).__name__ for e in _all_exprs(kernel))
        for env in self._environments():
            assert_parity(kernel, env, self.INPUTS)

    def test_veclibm_lanes_diverge_from_scalar_libm(self):
        # The tier's raison d'être: the same kernel under the same scalar
        # library prints different bits once a vector library is linked.
        from repro.fp.mathlib import FastHostLibm, GccVecLibm

        kernel = self._vector_kernel()
        scalar_env = FPEnvironment(libm=FastHostLibm())
        vec_env = FPEnvironment(libm=FastHostLibm(), veclibm=GccVecLibm())
        scalar = tree_run(kernel, scalar_env, self.INPUTS)
        vec = assert_parity(kernel, vec_env, self.INPUTS)
        assert scalar.ok and vec.ok
        assert scalar.signature() != vec.signature()

    def test_parity_under_every_step_limit(self):
        from repro.fp.mathlib import FastHostLibm, GccVecLibm

        kernel = self._vector_kernel()
        env = FPEnvironment(libm=FastHostLibm(), veclibm=GccVecLibm())
        full = tree_run(kernel, env, self.INPUTS)
        limits = set(range(0, min(full.steps + 2, 150)))
        limits.update(max(full.steps + d, 0) for d in (-2, -1, 0, 1, 2))
        for limit in sorted(limits):
            assert_parity(kernel, env, self.INPUTS, limit)

    def test_check_mode_result_key_matches_tree(self):
        from repro.fp.mathlib import CudaLibm, NvccVecLibm

        kernel = self._vector_kernel()
        env = FPEnvironment(libm=CudaLibm(), veclibm=NvccVecLibm())
        tree = run_batch(kernel, env, (self.INPUTS,), 200000, "tree")
        check = run_batch(kernel, env, (self.INPUTS,), 200000, "check")
        assert [result_key(r) for r in check] == [result_key(r) for r in tree]

    @pytest.mark.parametrize("seed", range(6))
    def test_full_tier_pipeline_programs(self, seed):
        # Tier-heavy generator output through the real full-profile
        # pipelines: VecCall-through-veclibm, VecFpExt/VecFpTrunc and
        # integer iota/splat guard masks all land in the matrix.
        gen = LoopReductionGenerator(
            SplittableRng(500 + seed, "tape-tiers"),
            libm_share=1.0, mixed_share=1.0, int_guard_share=1.0,
        )
        program = gen.generate()
        for _, binary in compiled_matrix(program, tiers="full"):
            assert_parity(binary.kernel, binary.env, program.inputs)


def _all_exprs(kernel):
    from repro.ir import nodes as ir

    for s in ir.walk_stmts(kernel.body):
        for top in ir.stmt_exprs(s):
            yield from ir.walk(top)


class TestDirectedParity:
    """Hand-written kernels hitting every trap and printf path."""

    CASES = {
        "oob_store": (
            "void compute(double a, int n) {"
            " double t[3]; t[0] = a; t[n] = 2.0;"
            ' printf("%.17g\\n", t[0]); }',
            (1.5, 7),
        ),
        "oob_load": (
            "void compute(double a, int n) {"
            " double t[2]; t[0] = a; t[1] = a;"
            ' printf("%.17g\\n", t[n]); }',
            (1.5, 5),
        ),
        "uninit_element_read": (
            "void compute(double a, int n) {"
            " double t[3]; t[0] = a;"
            ' printf("%.17g\\n", t[n]); }',
            (1.0, 2),
        ),
        "int_div_zero": (
            "void compute(double a, int n) {"
            ' int q = 7 / n; printf("%d\\n", q); }',
            (0.0, 0),
        ),
        "int_mod_zero": (
            "void compute(double a, int n) {"
            ' int q = 7 % n; printf("%d\\n", q); }',
            (0.0, 0),
        ),
        "printf_mixed": (
            "void compute(double a, int n) {"
            ' printf("a=%.17g n=%d e=%e f=%f g=%g\\n", a, n, a, a, a); }',
            (0.1, 42),
        ),
        "printf_multi_stmt": (
            "void compute(double a, int n) {"
            ' printf("%d\\n", n); printf("%.17g\\n", a);'
            ' printf("done\\n"); }',
            (-0.0, -7),
        ),
        "nested_loops_traps_late": (
            "void compute(double a, int n) {"
            " double acc = 0.0; double t[4];"
            " for (int i = 0; i < 4; ++i) { t[i] = a * i; }"
            " for (int i = 0; i < n; ++i) {"
            "   for (int j = 0; j < n; ++j) { acc += t[i % 4] / (i - j); } }"
            ' printf("%.17g\\n", acc); }',
            (3.0, 3),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case_all_environments(self, name):
        source, inputs = self.CASES[name]
        full_src = source + " int main() { return 0; }"
        kernel = lower(full_src)
        for ftz in (False, True):
            for approx_div in (False, True):
                env = FPEnvironment(ftz=ftz, approx_div=approx_div)
                assert_parity(kernel, env, inputs)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case_under_every_limit(self, name):
        source, inputs = self.CASES[name]
        kernel = lower(source + " int main() { return 0; }")
        env = FPEnvironment()
        full = tree_run(kernel, env, inputs)
        for limit in range(0, full.steps + 2):
            assert_parity(kernel, env, inputs, limit)

    def test_unset_scalar_trap(self):
        # Sema rejects maybe-uninitialized reads in source, but optimizer
        # output is not re-checked — build the IR directly.
        from repro.ir import nodes as ir

        kernel = ir.Kernel(
            name="compute",
            params=(ir.Param("a", "double"),),
            body=(
                ir.SPrint("%.17g\n", (ir.Load("ghost", "double"),)),
                ir.SReturn(),
            ),
        )
        env = FPEnvironment()
        tree = assert_parity(kernel, env, (1.0,))
        assert not tree.ok and "unset variable" in tree.error
        for limit in range(0, tree.steps + 2):
            assert_parity(kernel, env, (1.0,), limit)

    def test_arity_trap(self):
        kernel = lower(
            "void compute(double a, double b) { printf(\"%g\\n\", a + b); }"
            " int main() { return 0; }"
        )
        env = FPEnvironment()
        assert_parity(kernel, env, (1.0,))
        assert_parity(kernel, env, (1.0, 2.0, 3.0))

    def test_bad_pointer_input_trap(self):
        gen = LoopReductionGenerator(SplittableRng(1, "tape-ptr"))
        program = gen.generate()
        _, binary = compiled_matrix(program)[0]
        assert any(p.is_pointer for p in binary.kernel.params)
        ptr_index = next(
            i for i, p in enumerate(binary.kernel.params) if p.is_pointer
        )
        bad = list(program.inputs)
        bad[ptr_index] = 3.5  # scalar where an array is due
        assert_parity(binary.kernel, binary.env, tuple(bad))

    def test_printf_excess_conversions_trap(self):
        kernel = lower(
            'void compute(double a) { printf("%g %g\\n", a); }'
            " int main() { return 0; }"
        )
        env = FPEnvironment()
        assert_parity(kernel, env, (2.5,))

    def test_stdout_discarded_on_trap_both_paths(self):
        kernel = lower(
            "void compute(double a, int n) {"
            ' printf("before\\n"); int q = 1 / n; printf("%d\\n", q); }'
            " int main() { return 0; }"
        )
        env = FPEnvironment()
        tree = assert_parity(kernel, env, (0.0, 0))
        assert not tree.ok and tree.stdout == ""


class TestKernelRunnerModes:
    def _kernel(self):
        kernel = lower(
            "void compute(double a, int n) {"
            " double c = 0.0; for (int i = 0; i < n; ++i) { c += a; }"
            ' printf("%.17g\\n", c); }'
            " int main() { return 0; }"
        )
        return kernel, FPEnvironment()

    def test_modes_agree(self):
        kernel, env = self._kernel()
        batches = {
            mode: run_batch(kernel, env, ((0.1, 10), (2.5, 3)), 10_000, mode)
            for mode in EXEC_MODES
        }
        keys = {
            mode: [result_key(r) for r in results]
            for mode, results in batches.items()
        }
        assert keys["tape"] == keys["tree"] == keys["check"]

    def test_default_mode_is_tape(self):
        assert DEFAULT_EXEC_MODE == "tape"
        assert DEFAULT_EXEC_MODE in EXEC_MODES

    def test_bad_mode_rejected(self):
        kernel, env = self._kernel()
        with pytest.raises(ValueError, match="exec mode"):
            KernelRunner(kernel, env, "jit")

    def test_check_mode_raises_on_divergence(self):
        kernel, env = self._kernel()
        runner = KernelRunner(kernel, env, "check")
        genuine = runner._tape

        class Tampered:
            def run(self, inputs, max_steps):
                result = genuine.run(inputs, max_steps)
                return type(result)(
                    status=result.status,
                    printed=result.printed,
                    steps=result.steps + 1,  # one bit of divergence
                    stdout=result.stdout,
                    error=result.error,
                )

        runner._tape = Tampered()  # Tape has __slots__; swap whole object
        with pytest.raises(ExecutionDivergence, match="diverges"):
            runner.run((1.0, 2), 10_000)

    def test_run_batch_task_roundtrip(self):
        kernel, env = self._kernel()
        task = (kernel, env, ((0.5, 4), (1.0, 0)), 10_000, "tape")
        direct = run_batch(kernel, env, ((0.5, 4), (1.0, 0)), 10_000, "tree")
        assert [result_key(r) for r in run_batch_task(task)] == [
            result_key(r) for r in direct
        ]


class TestTapeCache:
    def test_compile_tape_returns_tape(self):
        kernel = lower(
            'void compute(double a) { printf("%g\\n", a); }'
            " int main() { return 0; }"
        )
        tape = compile_tape(kernel, FPEnvironment())
        assert isinstance(tape, Tape)
        assert tape.n_regs >= 1 and len(tape.code) >= 2
