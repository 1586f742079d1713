"""Interpreter: C semantics, traps, step budget, printf."""

import math

import pytest

from repro.execution.interp import Interpreter, _c_printf
from repro.execution.result import ExecStatus
from repro.fp.env import FPEnvironment
from repro.frontend.parser import parse_program
from repro.frontend.sema import check_program
from repro.ir.lower import lower_compute


def run_body(body, inputs, params="double a, double b, int n", env=None, max_steps=200000):
    n_params = len(params.split(","))
    args = ", ".join(["1.0"] * n_params)
    src = (
        f"void compute({params}) {{ {body} }}"
        f"int main() {{ compute({args}); return 0; }}"
    )
    kernel = lower_compute(check_program(parse_program(src)))
    return Interpreter(kernel, env or FPEnvironment(), max_steps).run(inputs)


class TestArithmetic:
    def test_simple_sum(self):
        r = run_body('double c = a + b; printf("%.17g\\n", c);', (1.5, 2.25, 0))
        assert r.ok and r.value == 3.75

    def test_loop_accumulation(self):
        r = run_body(
            "double c = 0.0;"
            ' for (int i = 0; i < n; ++i) { c += a; } printf("%.17g\\n", c);',
            (0.1, 0.0, 10),
        )
        expected = 0.0
        for _ in range(10):
            expected += 0.1
        assert r.value == expected

    def test_integer_semantics(self):
        r = run_body(
            'int q = (0 - 7) / 2; int m = (0 - 7) % 2; printf("%d %d\\n", q, m);',
            (0.0, 0.0, 0),
        )
        assert r.stdout == "-3 -1\n"

    def test_branching(self):
        r = run_body(
            'double c = 0.0; if (a > b) { c = a; } else { c = b; } printf("%g\\n", c);',
            (3.0, 7.0, 0),
        )
        assert r.value == 7.0

    def test_while_loop(self):
        r = run_body(
            'double c = a; while (c > 1.0) { c /= 2.0; } printf("%g\\n", c);',
            (64.0, 0.0, 0),
        )
        assert r.value == 1.0

    def test_arrays(self):
        r = run_body(
            "double t[3] = {1.0, 2.0, 3.0};"
            " double c = 0.0;"
            ' for (int i = 0; i < 3; ++i) { c += t[i]; } printf("%g\\n", c);',
            (0.0, 0.0, 0),
        )
        assert r.value == 6.0

    def test_partial_array_init_zero_fills(self):
        r = run_body(
            'double t[4] = {5.0}; printf("%g\\n", t[3]);',
            (0.0, 0.0, 0),
        )
        assert r.value == 0.0

    def test_pointer_param(self):
        r = run_body(
            'double c = p[0] + p[2]; printf("%g\\n", c);',
            ((1.0, 2.0, 3.0),),
            params="double *p",
        )
        assert r.value == 4.0

    def test_math_call(self):
        env = FPEnvironment()  # correctly rounded libm
        r = run_body('double c = sin(a); printf("%.17g\\n", c);', (1.0, 0.0, 0), env=env)
        assert r.value == math.sin(1.0)

    def test_ternary_short_circuit(self):
        # the untaken arm would trap (division by zero int)
        r = run_body(
            'int d = 0; double c = n > 0 ? 1.0 : 1.0 / d; printf("%g\\n", c);',
            (0.0, 0.0, 5),
        )
        assert r.ok

    def test_logic_short_circuit(self):
        r = run_body(
            "double t[2] = {1.0, 2.0}; int i = 5;"
            ' double c = 0.0; if (n < 0 && t[i] > 0.0) { c = 1.0; } printf("%g\\n", c);',
            (0.0, 0.0, 3),
        )
        assert r.ok  # t[5] is never evaluated

    def test_nan_comparison_false(self):
        r = run_body(
            "double z = 0.0; double q = z / z;"
            ' double c = 0.0; if (q == q) { c = 1.0; } printf("%g\\n", c);',
            (0.0, 0.0, 0),
        )
        assert r.value == 0.0

    def test_single_precision_param(self):
        r = run_body(
            'float c = a; printf("%.17g\\n", c);', (0.1, 0.0, 0), params="float a, double b, int n"
        )
        assert r.value == float.fromhex("0x1.99999a0000000p-4")


class TestTraps:
    def test_oob_read(self):
        r = run_body("double t[2] = {1.0, 2.0}; double c = t[n];", (0.0, 0.0, 5))
        assert r.status is ExecStatus.TRAP
        assert "out of bounds" in r.error

    def test_oob_store(self):
        r = run_body("double t[2] = {1.0, 2.0}; t[n] = 1.0;", (0.0, 0.0, -1))
        assert r.status is ExecStatus.TRAP

    def test_uninitialized_element_read(self):
        r = run_body("double t[4]; double c = t[0] + a;", (1.0, 0.0, 0))
        assert r.status is ExecStatus.TRAP
        assert "uninitialized" in r.error

    def test_initialized_by_store_ok(self):
        r = run_body(
            'double t[2]; t[0] = a; t[1] = b; printf("%g\\n", t[0] + t[1]);',
            (1.0, 2.0, 0),
        )
        assert r.ok and r.value == 3.0

    def test_int_division_by_zero(self):
        r = run_body("int z = n - n; int q = 5 / z;", (0.0, 0.0, 3))
        assert r.status is ExecStatus.TRAP

    def test_signed_overflow(self):
        r = run_body(
            "int x = 2000000000; int y = x + x;",
            (0.0, 0.0, 0),
        )
        assert r.status is ExecStatus.TRAP

    def test_invalid_fp_to_int(self):
        r = run_body("double z = 0.0; int i = (int)(a / z);", (1.0, 0.0, 0))
        assert r.status is ExecStatus.TRAP

    def test_fp_division_by_zero_is_not_a_trap(self):
        r = run_body('double c = a / 0.0; printf("%g\\n", c);', (1.0, 0.0, 0))
        assert r.ok and r.value == math.inf


class TestStepBudget:
    def test_infinite_loop_stopped(self):
        r = run_body(
            "double c = 1.0; while (c > 0.0) { c += 1.0; }",
            (0.0, 0.0, 0),
            max_steps=5000,
        )
        assert r.status is ExecStatus.STEP_LIMIT

    def test_budget_counts_steps(self):
        r = run_body('printf("%g\\n", a);', (1.0, 0.0, 0))
        assert 0 < r.steps < 100


class TestOutput:
    def test_stdout_formatting(self):
        r = run_body('printf("x=%.3f y=%d\\n", a, n);', (1.23456, 0.0, 7))
        assert r.stdout == "x=1.235 y=7\n"

    def test_printed_values_are_doubles_only(self):
        r = run_body('printf("%d %g\\n", n, a);', (2.5, 0.0, 9))
        assert r.printed == (2.5,)

    def test_signature(self):
        r = run_body('printf("%.17g\\n", a + b);', (0.5, 0.25, 0))
        assert r.signature() == "3fe8000000000000"

    def test_signature_none_on_trap(self):
        r = run_body("double t[2] = {1.0, 2.0}; double c = t[n];", (0.0, 0.0, 9))
        assert r.signature() is None

    def test_value_is_last_printed(self):
        r = run_body('printf("%g\\n", a); printf("%g\\n", b);', (1.0, 2.0, 0))
        assert r.value == 2.0


class TestCPrintf:
    def test_percent_escape(self):
        assert _c_printf("100%%\\n", []) == "100%\n"

    def test_g_precision(self):
        assert _c_printf("%.17g", [0.1]) == "0.10000000000000001"

    def test_inf_nan(self):
        assert _c_printf("%g %g", [math.inf, math.nan]) == "inf nan"

    def test_too_few_args_traps(self):
        from repro.errors import TrapError

        with pytest.raises(TrapError):
            _c_printf("%g %g", [1.0])

    def test_empty_precision_means_zero(self):
        assert _c_printf("%.e %.f %.g\\n", [2.5, 2.5, 2.5]) == "2e+00 2 2\n"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_int_conversion_of_non_finite_traps(self, value):
        from repro.errors import TrapError

        with pytest.raises(TrapError, match="integer conversion"):
            _c_printf("%d\\n", [value])
