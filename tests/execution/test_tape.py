"""Tape executor: bit-identity with the tree-walk interpreter.

The tape compiler's contract is *observational equivalence on every bit*:
status, error message, step count, stdout text and the IEEE bits of every
printed value must match the reference interpreter for every kernel, every
input, and every step limit.  The tape runs only the fault-free path and
hands any run it sees trap or cross the step limit to the interpreter, so
every parity check also counts those hand-overs: exactly one when the
tree faults (the tape detected the fault itself) and none when it does
not (a fault-free run never falls back).  These tests sweep randomly
generated programs (scalar, vector and masked kernels via the real
optimization pipelines) plus directed trap/printf cases, always comparing
on :func:`repro.execution.worker.result_key`, never on dataclass equality
(NaN payloads would defeat ``==``).
"""

import math
from unittest import mock

import pytest

from repro.errors import ExecutionDivergence
from repro.execution import tape as tape_module
from repro.execution import worker
from repro.execution.interp import Interpreter
from repro.execution.tape import Tape, compile_tape
from repro.execution.worker import (
    DEFAULT_EXEC_MODE,
    EXEC_MODES,
    result_key,
    run_kernel,
    run_kernel_task,
)
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


class _CountingInterpreter(Interpreter):
    """The interpreter as the tape sees it, counting the runs it is handed."""

    runs = 0

    def run(self, inputs):
        type(self).runs += 1
        return super().run(inputs)


def assert_parity(kernel, env, inputs, max_steps=200000):
    """Tape and tree agree on every bit, and the tape falls back to the
    interpreter exactly when the tree faults."""
    tree = tree_run(kernel, env, inputs, max_steps)
    _CountingInterpreter.runs = 0
    with mock.patch.object(tape_module, "Interpreter", _CountingInterpreter):
        tape = tape_run(kernel, env, inputs, max_steps)
    assert result_key(tape) == result_key(tree)
    assert _CountingInterpreter.runs == (0 if tree.ok else 1)
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
        from repro.ir.passes import Vectorize

        kernel = lower(self.MIXED_CALL_SRC)
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
        tree = Interpreter(kernel, env, 200000).run(self.INPUTS)
        check = run_kernel(kernel, env, self.INPUTS, 200000, "check")
        assert result_key(check) == result_key(tree)

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
        "printf_int_of_inf": (
            "void compute(double a, int n) {"
            ' double y = a * n; printf("%d\\n", n); printf("%d\\n", y); }',
            (math.inf, 3),
        ),
        "printf_int_of_nan": (
            "void compute(double a, int n) {"
            ' double y = a - a; printf("%i\\n", y); }',
            (math.inf, 3),
        ),
        "printf_empty_precision": (
            "void compute(double a, int n) {"
            ' printf("%.e %.f %.g %d\\n", a, a, a, n); }',
            (2.5, 4),
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
        "return_inside_for": (
            "void compute(double a, int n) { double acc = 0.0;"
            " for (int i = 0; i < n; ++i) { acc += a * i;"
            '   printf("%.17g\\n", acc); if (i == 2) { return; } }'
            ' printf("end\\n"); }',
            (1.5, 5),
        ),
        "return_inside_while_if": (
            "void compute(double a, int n) { double x = a;"
            " while (x < 100.0) { x = x * 2.0;"
            '   if (x > 10.0) { printf("%.17g\\n", x); return; } }'
            ' printf("unreached %d\\n", n); }',
            (0.7, 4),
        ),
        # C discards the fraction first: both halves convert, one past
        # either end traps.
        "fptosi_int_max_half": (
            'void compute(double a, int n) { int k = (int)a; printf("%d\\n", k); }',
            (2147483647.5, 0),
        ),
        "fptosi_int_min_half": (
            'void compute(double a, int n) { int k = (int)a; printf("%d\\n", k); }',
            (-2147483648.5, 0),
        ),
        "fptosi_past_int_max": (
            'void compute(double a, int n) { int k = (int)a; printf("%d\\n", k); }',
            (2147483648.0, 0),
        ),
        "fptosi_past_int_min": (
            'void compute(double a, int n) { int k = (int)a; printf("%d\\n", k); }',
            (-2147483649.0, 0),
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

    def test_printf_conversions_follow_c(self):
        env = FPEnvironment()
        for name in ("printf_int_of_inf", "printf_int_of_nan"):
            source, inputs = self.CASES[name]
            tree = tree_run(lower(source + " int main() { return 0; }"), env, inputs)
            assert not tree.ok and "printf: integer conversion" in tree.error
        source, inputs = self.CASES["printf_empty_precision"]
        tree = tree_run(lower(source + " int main() { return 0; }"), env, inputs)
        assert tree.ok and tree.stdout == "2e+00 2 2 4\n"

    def test_return_unwinds_nested_loops(self):
        env = FPEnvironment()
        source, inputs = self.CASES["return_inside_for"]
        tree = tree_run(lower(source + " int main() { return 0; }"), env, inputs)
        assert tree.ok and tree.stdout == "0\n1.5\n4.5\n"
        source, inputs = self.CASES["return_inside_while_if"]
        tree = tree_run(lower(source + " int main() { return 0; }"), env, inputs)
        assert tree.ok and tree.stdout == "11.199999999999999\n"

    def test_float_to_int_truncates_first(self):
        env = FPEnvironment()
        for name, stdout in (("fptosi_int_max_half", "2147483647\n"),
                             ("fptosi_int_min_half", "-2147483648\n")):
            source, inputs = self.CASES[name]
            tree = tree_run(lower(source + " int main() { return 0; }"), env, inputs)
            assert tree.ok and tree.stdout == stdout
        for name in ("fptosi_past_int_max", "fptosi_past_int_min"):
            source, inputs = self.CASES[name]
            tree = tree_run(lower(source + " int main() { return 0; }"), env, inputs)
            assert not tree.ok and "invalid float->int conversion" in tree.error

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


def _operands(fp: bool):
    """One operand of each kind a parent reads: a set register, an unset
    register, a constant and a compound expression."""
    from repro.ir import nodes as ir

    if fp:
        return {
            "set": ir.Load("a", "double"),
            "unset": ir.Load("ghost", "double"),
            "const": ir.FConst(1.25),
            "compound": ir.FBin("*", ir.Load("a", "double"), ir.FConst(0.5)),
        }
    return {
        "set": ir.Load("n", "int"),
        "unset": ir.Load("ghost_i", "int"),
        "const": ir.IConst(3),
        "compound": ir.IBin("-", ir.Load("n", "int"), ir.IConst(1)),
    }


def _leaf_reading_nodes():
    """name -> (build(*operands), operand arity, fp operands, result type)."""
    from repro.ir import nodes as ir

    nodes = {
        f"fbin{op}": (lambda l, r, op=op: ir.FBin(op, l, r), 2, True, "double")
        for op in "+-*/"
    }
    nodes.update({
        f"ibin{op}": (lambda l, r, op=op: ir.IBin(op, l, r), 2, False, "int")
        for op in "+-*"
    })
    nodes["cmp_fp<"] = (lambda l, r: ir.Compare("<", l, r, True), 2, True, "int")
    nodes["cmp_fp!="] = (lambda l, r: ir.Compare("!=", l, r, True), 2, True, "int")
    nodes["cmp_int>="] = (lambda l, r: ir.Compare(">=", l, r, False), 2, False, "int")
    nodes["call_sin"] = (lambda x: ir.FCall("sin", (x,)), 1, True, "double")
    nodes["call_pow"] = (lambda x, y: ir.FCall("pow", (x, y)), 2, True, "double")
    nodes["fneg"] = (lambda x: ir.FNeg(x), 1, True, "double")
    nodes["sitofp"] = (lambda x: ir.SiToFp(x, "float"), 1, False, "float")
    nodes["fptrunc"] = (lambda x: ir.FpTrunc(x), 1, True, "float")
    return nodes


class TestLeafOperandParity:
    """Every node that reads leaf operands in place, with each operand a
    set register, an unset register, a constant or a compound
    expression, both as a value and as the value of an ``SAssign``."""

    @pytest.mark.parametrize("name", sorted(_leaf_reading_nodes()))
    def test_every_operand_kind(self, name):
        import itertools

        from repro.ir import nodes as ir

        build, arity, fp, ty = _leaf_reading_nodes()[name]
        fmt = "%d\n" if ty == "int" else "%.17g\n"
        operands = _operands(fp)
        params = (ir.Param("a", "double"), ir.Param("n", "int"))
        envs = (FPEnvironment(), FPEnvironment(ftz=True, approx_div=True))
        for kinds in itertools.product(sorted(operands), repeat=arity):
            node = build(*(operands[k] for k in kinds))
            for body in (
                (ir.SPrint(fmt, (node,)),),
                (ir.SAssign("r", node, ty), ir.SPrint(fmt, (ir.Load("r", ty),))),
            ):
                kernel = ir.Kernel("compute", params, body + (ir.SReturn(),))
                for inputs in ((0.75, 5), (-3.0, 2147483647), (math.nan, -2147483648)):
                    for env in envs:
                        tree = assert_parity(kernel, env, inputs)
                    for limit in range(tree.steps + 2):
                        assert_parity(kernel, envs[0], inputs, limit)


class TestRunKernelModes:
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
        keys = {
            mode: [
                result_key(run_kernel(kernel, env, inputs, 10_000, mode))
                for inputs in ((0.1, 10), (2.5, 3))
            ]
            for mode in EXEC_MODES
        }
        keys["tree"] = [
            result_key(Interpreter(kernel, env, 10_000).run(inputs))
            for inputs in ((0.1, 10), (2.5, 3))
        ]
        assert keys["tape"] == keys["tree"] == keys["check"]

    def test_default_mode_is_tape(self):
        assert EXEC_MODES == ("tape", "check")
        assert DEFAULT_EXEC_MODE == "tape"
        kernel, env = self._kernel()
        # a direct call never builds check mode's reference interpreter
        with mock.patch.object(worker, "Interpreter", side_effect=AssertionError):
            assert run_kernel(kernel, env, (1.0, 2)).ok

    def test_bad_mode_rejected(self):
        kernel, env = self._kernel()
        for mode in ("jit", "tree"):
            with pytest.raises(ValueError, match="exec_mode must be one of"):
                run_kernel(kernel, env, (1.0, 2), 10_000, mode)

    def test_check_mode_raises_on_divergence(self, monkeypatch):
        kernel, env = self._kernel()

        class Tampered:
            def __init__(self, genuine):
                self.genuine = genuine

            def run(self, inputs, max_steps):
                result = self.genuine.run(inputs, max_steps)
                return type(result)(
                    status=result.status,
                    printed=result.printed,
                    steps=result.steps + 1,  # one bit of divergence
                    stdout=result.stdout,
                    error=result.error,
                )

        monkeypatch.setattr(
            worker, "compile_tape", lambda k, e: Tampered(compile_tape(k, e))
        )
        with pytest.raises(ExecutionDivergence, match="diverges"):
            run_kernel(kernel, env, (1.0, 2), 10_000, "check")

    def test_run_kernel_task_roundtrip(self):
        kernel, env = self._kernel()
        for inputs in ((0.5, 4), (1.0, 0)):
            task = (kernel, env, inputs, 10_000, "tape")
            direct = Interpreter(kernel, env, 10_000).run(inputs)
            assert result_key(run_kernel_task(task)) == result_key(direct)


class TestCompileTape:
    def test_compile_tape_returns_tape(self):
        kernel = lower(
            'void compute(double a) { printf("%g\\n", a); }'
            " int main() { return 0; }"
        )
        tape = compile_tape(kernel, FPEnvironment())
        assert isinstance(tape, Tape)
        assert tape.n_regs >= 1
        result = tape.run((2.5,))
        assert result.ok and result.stdout == "2.5\n" and result.printed == (2.5,)
        assert result.steps == 2  # the printf and its argument


class TestCallSiteReuse:
    """A tape call site reuses its last libm result for repeated
    argument bits; the interpreter evaluates every call."""

    N = 8
    SOURCE = (
        "void compute(double a) { double s = 0.0;"
        f" for (int i = 0; i < {N}; i++) {{ s = s + sin(a) + sin((double)i); }}"
        ' printf("%.17g\\n", s); }'
        " int main() { return 0; }"
    )

    def test_loop_invariant_call_evaluates_once(self):
        from repro.fp.mathlib import HostLibm, PerturbedLibm

        calls = []
        original = PerturbedLibm.call

        def counted(self, fn, args, fmt):
            calls.append(args)
            return original(self, fn, args, fmt)

        kernel = lower(self.SOURCE)
        env = FPEnvironment(libm=HostLibm())
        with mock.patch.object(PerturbedLibm, "call", counted):
            tree = tree_run(kernel, env, (0.7,))
            tree_calls = len(calls)
            calls.clear()
            tape = tape_run(kernel, env, (0.7,))
        assert tree.ok and result_key(tape) == result_key(tree)
        assert tree_calls == 2 * self.N
        assert len(calls) == 1 + self.N
        assert calls.count((0.7,)) == 1


class TestSlotNumbering:
    """Slots are numbered as compilation first meets each name."""

    def test_params_keep_slots_in_declaration_order(self):
        # The body meets q, n, z, p, a in that order; the params still
        # bind to scalar slots 0..1 and array slots 0..1.
        kernel = lower(
            "void compute(double a, double *p, int n, float *q) {"
            " double z = q[0] + n; p[0] = z + a;"
            ' printf("%.17g\\n", p[0]); }'
            " int main() { return 0; }"
        )
        tape = compile_tape(kernel, FPEnvironment())
        R = [None] * tape.n_regs
        A = [None] * tape.n_arrays
        for bind, value in zip(tape.binders, (1.5, [2.0], 3, [4.0])):
            bind(value, R, A)
        assert R == [1.5, 3, None]
        assert A == [[2.0], [4.0]]
        assert_parity(kernel, FPEnvironment(), (1.5, [2.0], 3, [4.0]))

    def test_local_read_before_assignment_traps_like_tree(self):
        from repro.ir import nodes as ir

        # "late" gets its slot at the read, before the assignment that
        # follows it is compiled.
        kernel = ir.Kernel(
            name="compute",
            params=(ir.Param("a", "double"),),
            body=(
                ir.SPrint("%.17g\n", (ir.Load("a", "double"),)),
                ir.SPrint("%.17g\n", (ir.Load("late", "double"),)),
                ir.SAssign("late", ir.Load("a", "double"), "double"),
                ir.SReturn(),
            ),
        )
        env = FPEnvironment()
        tree = tree_run(kernel, env, (1.0,))
        tape = tape_run(kernel, env, (1.0,))
        assert tape.error == tree.error == "read of unset variable 'late'"
        assert tape.steps == tree.steps
        for limit in range(0, tree.steps + 2):
            assert_parity(kernel, env, (1.0,), limit)

    def test_names_only_in_an_untaken_branch(self):
        from repro.ir import nodes as ir

        kernel = ir.Kernel(
            name="compute",
            params=(ir.Param("n", "int"),),
            body=(
                ir.SIf(
                    ir.Compare("<", ir.Load("n", "int"), ir.IConst(0), False),
                    (
                        ir.SDeclArray("dead_arr", 2, "double"),
                        ir.SAssign("dead", ir.Load("n", "int"), "int"),
                        ir.SPrint("%d\n", (ir.Load("dead", "int"),)),
                    ),
                ),
                ir.SPrint("%d\n", (ir.Load("n", "int"),)),
                ir.SReturn(),
            ),
        )
        tape = compile_tape(kernel, FPEnvironment())
        assert (tape.n_regs, tape.n_arrays) == (2, 1)
        assert tape.run((4,)).ok
        assert_parity(kernel, FPEnvironment(), (4,))
        assert_parity(kernel, FPEnvironment(), (-4,))

    @pytest.mark.parametrize("seed", range(4))
    def test_one_slot_per_distinct_name(self, seed):
        from repro.ir import nodes as ir

        array_nodes = (ir.LoadElem, ir.SDeclArray, ir.SStoreElem, ir.SVecStore,
                       ir.SMaskedStore, ir.VecLoad, ir.VecMaskedLoad)
        program = LoopReductionGenerator(SplittableRng(seed, "tape-slots")).generate()
        for _, binary in compiled_matrix(program, tiers="full"):
            kernel = binary.kernel
            scalars = {p.name for p in kernel.params if not p.is_pointer}
            arrays = {p.name for p in kernel.params if p.is_pointer}
            for s in kernel.body:
                for node in ir.walk(s):
                    if isinstance(node, (ir.Load, ir.SAssign)):
                        scalars.add(node.name)
                    elif isinstance(node, array_nodes):
                        arrays.add(node.name)
            tape = compile_tape(kernel, binary.env)
            assert (tape.n_regs, tape.n_arrays) == (len(scalars), len(arrays))
