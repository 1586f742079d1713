"""The ``loops`` approach: loop-heavy reduction kernels.

The paper's four approaches generate mostly straight-line arithmetic with
the occasional loop, so campaigns rarely exercise the vectorization tier.
This generator is the tier's workload: every program is built around
innermost counted reduction loops (dot products, running sums, products,
lane-stepped transcendental sums) over array parameters — exactly the
shapes :class:`~repro.ir.passes.vectorize.Vectorize` widens — plus the
occasional map loop (vector stores) and a ``guarded_share`` of
conditional (guarded-update) loops: one- and two-armed accumulations and
guarded map stores, the shapes
:class:`~repro.ir.passes.if_convert.IfConvert` turns into masked select
form at the levels that if-convert, and that stay scalar branches — the
vectorizer witnessed *declining* — everywhere else.

Inputs use the PLAUSIBLE profile: values a numerical kernel would see,
keeping sums in the normal range so vector-tier divergences surface as
{Real, Real} bit differences rather than overflow artefacts.  Trip counts
are drawn up to the array length; a share of programs runs 32+ trips so
the nvcc warp-width model (32 lanes) engages, not just the host 4/8-lane
vectorizers.
"""

from __future__ import annotations

from repro.generation.inputs import InputProfile, generate_inputs
from repro.generation.program import GeneratedProgram, GeneratorCapabilities
from repro.utils.rng import SplittableRng

__all__ = ["LoopReductionGenerator"]

#: Unary math calls that stay finite on PLAUSIBLE inputs.
_SAFE_CALLS = ("sin", "cos", "tanh", "atan", "erf", "cbrt")


class LoopReductionGenerator:
    """Random generator over reduction/map loop kernels (``--approach loops``)."""

    name = "loops"
    input_profile = InputProfile.PLAUSIBLE
    capabilities = GeneratorCapabilities(feedback=False, shardable=True)

    def __init__(
        self,
        rng: SplittableRng,
        warp_share: float = 0.35,
        guarded_share: float = 0.30,
        libm_share: float = 0.0,
        mixed_share: float = 0.0,
        int_guard_share: float = 0.0,
    ) -> None:
        self._rng = rng.split("loops")
        #: fraction of programs sized to engage the 32-lane warp model
        self.warp_share = warp_share
        #: per-loop probability of a guarded (conditional-body) shape —
        #: the masked-vectorization tier's workload
        self.guarded_share = guarded_share
        #: per-program probability of a call-heavy reduction loop — the
        #: vec-libm tier's workload (vector math libraries diverge from
        #: scalar libm).  The three tier shares default to 0.0 and, at
        #: 0.0, draw nothing from the rng, so the default program stream
        #: is byte-identical to pre-tier generators.
        self.libm_share = libm_share
        #: per-program probability of a mixed float/double reduction loop
        #: (``(float)`` casts) — the mixed-precision tier's workload
        self.mixed_share = mixed_share
        #: per-program probability of an integer trip-count-guarded loop
        #: (``if (i < m)``) — the masked-int-guard tier's workload
        self.int_guard_share = int_guard_share
        self._counter = 0

    # -- public API --------------------------------------------------------------

    def generate(self) -> GeneratedProgram:
        self._counter += 1
        rng = self._rng.split(f"prog-{self._counter}")
        source, param_types, array_len, pattern = self._program(rng)
        inputs = generate_inputs(
            rng.split("inputs"),
            param_types,
            self.input_profile,
            max_trip=array_len,
            array_len=array_len,
        )
        return GeneratedProgram(
            source=source,
            inputs=inputs,
            meta={"strategy": "loops", "index": self._counter, "pattern": pattern},
        )

    def bind(self, shard_index: int, shard_count: int, rng_seed: int) -> None:
        """Binding ``0/1`` keeps the constructor stream; a real partition
        re-derives it from ``(rng_seed, k, n)`` (see the protocol docs)."""
        if shard_count < 1 or not 0 <= shard_index < shard_count:
            raise ValueError(f"invalid partition {shard_index}/{shard_count}")
        if shard_count > 1:
            base = SplittableRng(rng_seed, f"island-{shard_index}of{shard_count}-{self.name}")
            self._rng = base.split("loops")
            self._counter = 0

    def observe(self, outcome) -> None:
        """Feedback-free (and therefore classically shardable), like varity."""

    def export_state(self) -> dict:
        return {"counter": self._counter}

    def import_state(self, state: dict) -> None:
        self._counter = int(state["counter"])

    # -- program synthesis -------------------------------------------------------

    def _program(self, rng: SplittableRng) -> tuple[str, list[str], int, str]:
        # Array length doubles as the trip-count ceiling; a warp-share of
        # programs is long enough for one full 32-lane vector.
        if rng.bernoulli(self.warp_share):
            array_len = rng.randint(33, 48)
        else:
            array_len = rng.randint(8, 24)

        two_arrays = rng.bernoulli(0.6)
        params: list[tuple[str, str]] = [("double *", "a")]
        param_types: list[str] = ["double*"]
        if two_arrays:
            params.append(("double *", "b"))
            param_types.append("double*")
        params.append(("double", "s"))
        param_types.append("double")
        params.append(("int", "n"))
        param_types.append("int")

        arrays = ["a", "b"] if two_arrays else ["a"]
        lines: list[str] = ["double comp = 0.0;"]
        pattern_bits: list[str] = []

        # Optional map loop first: a vector-store workload feeding the
        # reductions below (lane-wise identical to scalar, no divergence).
        if two_arrays and rng.bernoulli(0.4):
            lines.extend(
                [
                    "for (int i = 0; i < n; ++i) {",
                    f"  b[i] = {self._map_expr(rng)};",
                    "}",
                ]
            )
            pattern_bits.append("map")

        n_loops = rng.randint(1, 2)
        for k in range(n_loops):
            roll = rng.random()
            if roll < self.guarded_share:
                shape, loop = self._guarded_loop(rng, arrays)
                lines.extend(loop)
                pattern_bits.append(shape)
            elif roll < self.guarded_share + 0.15 and k == 0:
                lines.extend(self._dual_reduction_loop(rng, arrays))
                pattern_bits.append("dual")
            else:
                lines.extend(self._reduction_loop(rng, arrays, k))
                pattern_bits.append("reduce")
        # Divergence-tier workloads (see the tier shares in __init__).
        # Guarded by `share > 0` before the bernoulli so a zero share
        # draws nothing: the default rng stream stays byte-identical.
        if self.libm_share > 0 and rng.bernoulli(self.libm_share):
            lines.extend(self._libm_loop(rng, arrays))
            pattern_bits.append("libm")
        if self.mixed_share > 0 and rng.bernoulli(self.mixed_share):
            lines.extend(self._mixed_loop(rng, arrays))
            pattern_bits.append("mixed")
        if self.int_guard_share > 0 and rng.bernoulli(self.int_guard_share):
            lines.extend(self._int_guard_loop(rng, arrays))
            pattern_bits.append("iguard")
        lines.append('printf("%.17g\\n", comp);')

        body = "\n  ".join(lines)
        sig = ", ".join(
            f"{ty}{'' if ty.endswith('*') else ' '}{name}" for ty, name in params
        )
        main_body = self._main_body(params, array_len)
        source = (
            "#include <stdio.h>\n"
            "#include <stdlib.h>\n"
            "#include <math.h>\n\n"
            f"void compute({sig}) {{\n  {body}\n}}\n\n"
            "int main(int argc, char **argv) {\n"
            f"{main_body}"
            "  return 0;\n"
            "}\n"
        )
        return source, param_types, array_len, "+".join(pattern_bits)

    def _main_body(self, params: list[tuple[str, str]], array_len: int) -> str:
        pre: list[str] = []
        args: list[str] = []
        argi = 1
        for ty, name in params:
            if ty.endswith("*"):
                arr = f"in_{name}"
                elems = ", ".join(
                    f"atof(argv[{argi + k}])" for k in range(array_len)
                )
                pre.append(f"  double {arr}[{array_len}] = {{{elems}}};\n")
                argi += array_len
                args.append(arr)
            elif ty == "int":
                args.append(f"atoi(argv[{argi}])")
                argi += 1
            else:
                args.append(f"atof(argv[{argi}])")
                argi += 1
        return "".join(pre) + f"  compute({', '.join(args)});\n"

    # -- loop shapes -------------------------------------------------------------

    def _reduction_loop(
        self, rng: SplittableRng, arrays: list[str], k: int
    ) -> list[str]:
        op = rng.choice(["+=", "+=", "+=", "-=", "*="])
        if op == "*=":
            # Products need a 1.0-seeded private accumulator (comp starts
            # at 0.0) and factors near 1 so long trips stay in range.
            prod = f"prod_{k + 1}"
            return [
                f"double {prod} = 1.0;",
                "for (int i = 0; i < n; ++i) {",
                f"  {prod} *= (1.0 + 0.03125 * {rng.choice(arrays)}[i]);",
                "}",
                f"comp += {prod};",
            ]
        return [
            "for (int i = 0; i < n; ++i) {",
            f"  comp {op} {self._mul_term(rng, arrays)};",
            "}",
        ]

    def _dual_reduction_loop(self, rng: SplittableRng, arrays: list[str]) -> list[str]:
        """Two private accumulators in one loop (both widen independently)."""
        lines = [
            "double comp2 = 0.0;",
            "for (int i = 0; i < n; ++i) {",
            f"  comp += {self._mul_term(rng, arrays)};",
            f"  comp2 += {self._lane_term(rng, arrays)};",
            "}",
            f"comp {rng.choice(['+=', '-='])} comp2;",
        ]
        return lines

    def _guarded_loop(
        self, rng: SplittableRng, arrays: list[str]
    ) -> tuple[str, list[str]]:
        """A conditional-body loop: the if-conversion tier's workload.

        At levels that if-convert (hosts at O3/fast-math, nvcc always)
        these widen to masked lane math; everywhere else the vectorizer
        refuses them and the branch stays scalar — so the same program
        witnesses both behaviours across the matrix.
        """
        arr = rng.choice(arrays)
        cmp_op = rng.choice([">", "<", ">=", "<="])
        threshold = rng.choice(["0.0", "1.0", "-1.0", "s"])
        guard = f"{arr}[i] {cmp_op} {threshold}"
        roll = rng.random()
        if roll < 0.45:
            # One-armed guarded accumulation (select vs the + identity).
            op = rng.choice(["+=", "+=", "-="])
            return "guarded", [
                "for (int i = 0; i < n; ++i) {",
                f"  if ({guard}) {{",
                f"    comp {op} {self._mul_term(rng, arrays)};",
                "  }",
                "}",
            ]
        if roll < 0.8:
            # Two-armed accumulation: both arms execute in every
            # if-converted lane, blended by mask.
            return "guarded2", [
                "for (int i = 0; i < n; ++i) {",
                f"  if ({guard}) {{",
                f"    comp += {self._mul_term(rng, arrays)};",
                "  } else {",
                f"    comp += {self._lane_term(rng, arrays)};",
                "  }",
                "}",
            ]
        if len(arrays) == 2:
            # Guarded map store: widens to a masked vector store.
            return "gmap", [
                "for (int i = 0; i < n; ++i) {",
                f"  if ({guard}) {{",
                f"    b[i] = {self._map_expr(rng)};",
                "  }",
                "}",
                "for (int i = 0; i < n; ++i) {",
                "  comp += b[i];",
                "}",
            ]
        return "guarded", [
            "for (int i = 0; i < n; ++i) {",
            f"  if ({guard}) {{",
            f"    comp += {arr}[i];",
            "  }",
            "}",
        ]

    # -- divergence-tier loop shapes ---------------------------------------------

    def _libm_loop(self, rng: SplittableRng, arrays: list[str]) -> list[str]:
        """A call-heavy reduction: every trip goes through libm, so when a
        compiler vectorizes calls against its vector math library
        (``--tiers full`` at fast-math levels) the lanes take the
        library's own polynomials, not scalar libm's."""
        fn_a = rng.choice(_SAFE_CALLS)
        fn_b = rng.choice(_SAFE_CALLS)
        arr = rng.choice(arrays)
        return [
            "for (int i = 0; i < n; ++i) {",
            f"  comp += {fn_a}({arr}[i]) + {fn_b}(s + i) * 0.25;",
            "}",
        ]

    def _mixed_loop(self, rng: SplittableRng, arrays: list[str]) -> list[str]:
        """A mixed float/double reduction: ``(float)`` casts narrow the
        term, the accumulation widens it back — the ``FpExt``/``FpTrunc``
        conversion sites the mixed-precision tier widens."""
        arr = rng.choice(arrays)
        term = rng.choice(
            [
                f"(float)({arr}[i]) * (float)(s)",
                f"(float)({arr}[i] * s)",
                f"(float)({arr}[i]) + (float)(0.5 * s)",
            ]
        )
        return [
            "for (int i = 0; i < n; ++i) {",
            f"  comp += {term};",
            "}",
        ]

    def _int_guard_loop(self, rng: SplittableRng, arrays: list[str]) -> list[str]:
        """A trip-count-guarded accumulation: the mask depends on the
        induction variable itself (``if (i < m)``), so it only
        if-converts where integer guards widen to iota/splat masks —
        the masked-int-guard tier."""
        arr = rng.choice(arrays)
        bound = rng.choice(["n - 1", "n - 2", "n - 3"])
        cmp_op = rng.choice(["<", "<=", ">=", ">"])
        return [
            "for (int i = 0; i < n; ++i) {",
            f"  if (i {cmp_op} {bound}) {{",
            f"    comp += {arr}[i] * s;",
            "  }",
            "}",
        ]

    # -- loop-body expressions ---------------------------------------------------

    def _map_expr(self, rng: SplittableRng) -> str:
        """Element-wise transform for the map loop ``b[i] = ...``."""
        roll = rng.random()
        if roll < 0.4:
            return "a[i] * s"
        if roll < 0.7:
            return f"{rng.choice(_SAFE_CALLS)}(a[i])"
        return "a[i] + s"

    def _mul_term(self, rng: SplittableRng, arrays: list[str]) -> str:
        """A dot-product-style term: array reads scaled/multiplied."""
        a = rng.choice(arrays)
        roll = rng.random()
        if roll < 0.35 and len(arrays) == 2:
            return "a[i] * b[i]"
        if roll < 0.55:
            return f"{a}[i] * s"
        if roll < 0.75:
            return self._lane_term(rng, arrays)
        return f"{a}[i]"

    def _lane_term(self, rng: SplittableRng, arrays: list[str]) -> str:
        """A lane-stepped term: the induction variable feeds the math."""
        fn = rng.choice(_SAFE_CALLS)
        roll = rng.random()
        if roll < 0.5:
            return f"{fn}(s + i) * {rng.choice(arrays)}[i]"
        if roll < 0.75:
            return f"{fn}({rng.choice(arrays)}[i]) * 0.5"
        return f"{rng.choice(arrays)}[i] * {fn}(s)"
