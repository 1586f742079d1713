"""Binary floating-point format descriptions (IEEE 754 binary32/binary64)."""

from __future__ import annotations

import enum
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class FloatFormat:
    """Parameters of an IEEE 754 binary interchange format.

    Attributes:
        name: human-readable name ("binary64").
        precision: significand width in bits, *including* the hidden bit.
        emax: maximum unbiased exponent of a normal number.
        width: total storage width in bits.
    """

    name: str
    precision: int
    emax: int
    width: int

    @property
    def emin(self) -> int:
        """Minimum unbiased exponent of a normal number."""
        return 1 - self.emax

    @property
    def bias(self) -> int:
        return self.emax


FP64 = FloatFormat(name="binary64", precision=53, emax=1023, width=64)
FP32 = FloatFormat(name="binary32", precision=24, emax=127, width=32)


class Precision(enum.Enum):
    """Floating-point precision selector used by generators and toolchains."""

    SINGLE = "single"
    DOUBLE = "double"

    @property
    def fmt(self) -> FloatFormat:
        return FP32 if self is Precision.SINGLE else FP64

    @property
    def c_type(self) -> str:
        return "float" if self is Precision.SINGLE else "double"
