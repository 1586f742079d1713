"""Execution budgets.

Generated programs are small kernels, but mutation can produce deep nested
loops; the step budget bounds interpretation the way a watchdog timeout
bounds a real test harness.
"""

#: Interpreter steps (expression nodes + statements) before giving up.
DEFAULT_MAX_STEPS: int = 2_000_000

#: C int limits; signed overflow is UB and traps.
INT_MIN = -(2**31)
INT_MAX = 2**31 - 1


def trunc_fits_int(v: float) -> bool:
    """Whether C's ``(int)v`` is defined: ``trunc(v)`` fits in an int.

    C discards the fraction first, so ``2147483647.5`` converts to
    ``INT_MAX`` and ``-2147483648.5`` to ``INT_MIN``; NaN and the
    infinities fail both bounds.
    """
    return INT_MIN - 1 < v < INT_MAX + 1
