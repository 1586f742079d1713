"""The Varity baseline: random grammar-based program generation.

Faithful to the paper's description of Varity (§2.2, §3.2.1): programs are
drawn from the Figure 2 grammar with no domain knowledge and no feedback —
unguarded divisions, math calls on arbitrary arguments, and wide-range
inputs.  This unguardedness is what makes Varity's inconsistencies skew
toward extreme-value kinds (Figure 3) while keeping its trigger rate low.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.generation.grammar import GrammarSpec, DEFAULT_GRAMMAR
from repro.generation.inputs import InputProfile, generate_inputs
from repro.generation.program import GeneratedProgram, GeneratorCapabilities
from repro.utils.rng import SplittableRng

__all__ = ["VarityGenerator"]

_ARRAY_LEN = 8


@dataclass
class _Ctx:
    """Names visible at the current generation point."""

    fp_vars: list[str]
    int_vars: list[str]
    arrays: list[str]
    depth: int = 0


class VarityGenerator:
    """Random generator over the Varity grammar."""

    name = "varity"
    input_profile = InputProfile.WIDE
    capabilities = GeneratorCapabilities(feedback=False, shardable=True)

    def __init__(
        self,
        rng: SplittableRng,
        grammar: GrammarSpec = DEFAULT_GRAMMAR,
        math_call_prob: float = 0.20,
    ) -> None:
        self._rng = rng.split("varity")
        self.grammar = grammar
        self.math_call_prob = math_call_prob
        self._counter = 0

    # -- public API --------------------------------------------------------------

    def generate(self) -> GeneratedProgram:
        self._counter += 1
        rng = self._rng.split(f"prog-{self._counter}")
        source, param_types = self._program(rng)
        inputs = generate_inputs(
            rng.split("inputs"),
            param_types,
            self.input_profile,
            max_trip=self.grammar.max_loop_trip,
            array_len=_ARRAY_LEN,
        )
        return GeneratedProgram(
            source=source,
            inputs=inputs,
            meta={"strategy": "varity", "index": self._counter},
        )

    def bind(self, shard_index: int, shard_count: int, rng_seed: int) -> None:
        """Binding ``0/1`` keeps the constructor stream (classic sharding
        replays the identical unsharded stream on every shard); binding a
        real partition re-derives the stream from ``(rng_seed, k, n)``."""
        if shard_count < 1 or not 0 <= shard_index < shard_count:
            raise ValueError(f"invalid partition {shard_index}/{shard_count}")
        if shard_count > 1:
            base = SplittableRng(rng_seed, f"island-{shard_index}of{shard_count}-{self.name}")
            self._rng = base.split("varity")
            self._counter = 0

    def observe(self, outcome) -> None:
        """Varity has no feedback loop — verdicts are not reused."""

    def export_state(self) -> dict:
        return {"counter": self._counter}

    def import_state(self, state: dict) -> None:
        self._counter = int(state["counter"])

    # -- program synthesis ---------------------------------------------------------

    def _program(self, rng: SplittableRng) -> tuple[str, list[str]]:
        fp = self.grammar.fp_type
        n_fp = rng.randint(2, min(4, self.grammar.max_params))
        has_int = rng.bernoulli(0.6)
        has_ptr = self.grammar.allow_arrays and rng.bernoulli(0.3)

        params: list[tuple[str, str]] = [(fp, f"var_{i + 1}") for i in range(n_fp)]
        param_types = [fp] * n_fp
        int_name = None
        ptr_name = None
        if has_int:
            int_name = f"var_{len(params) + 1}"
            params.append(("int", int_name))
            param_types.append("int")
        if has_ptr:
            ptr_name = f"var_{len(params) + 1}"
            params.append((fp + " *", ptr_name))
            param_types.append(fp + "*")

        ctx = _Ctx(
            fp_vars=[name for ty, name in params if ty == fp],
            int_vars=[int_name] if int_name else [],
            arrays=[ptr_name] if ptr_name else [],
        )

        lines: list[str] = []
        lines.append(f"{fp} comp = {self._expr(rng, ctx, 0)};")
        n_stmts = rng.randint(1, 4)
        tmp_count = 0
        for _ in range(n_stmts):
            roll = rng.random()
            if roll < 0.35:
                tmp_count += 1
                name = f"tmp_{tmp_count}"
                lines.append(f"{fp} {name} = {self._expr(rng, ctx, 0)};")
                ctx.fp_vars.append(name)
            elif roll < 0.65:
                op = rng.choice(["+=", "-=", "*=", "/="])
                lines.append(f"comp {op} {self._expr(rng, ctx, 0)};")
            elif roll < 0.80 and self.grammar.allow_conditionals:
                lines.extend(self._if_block(rng, ctx))
            else:
                lines.extend(self._for_block(rng, ctx))
        lines.append('printf("%.17g\\n", comp);')

        body = "\n  ".join(lines)
        sig = ", ".join(f"{ty}{'' if ty.endswith('*') else ' '}{name}" for ty, name in params)
        main_body, argv_used = self._main_body(params, fp)
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
        return source, param_types

    def _main_body(self, params: list[tuple[str, str]], fp: str) -> tuple[str, int]:
        args: list[str] = []
        pre: list[str] = []
        argi = 1
        for ty, name in params:
            if ty == "int":
                args.append(f"atoi(argv[{argi}])")
                argi += 1
            elif ty.endswith("*"):
                arr = f"in_{name}"
                elems = ", ".join(f"atof(argv[{argi + k}])" for k in range(_ARRAY_LEN))
                pre.append(f"  {fp} {arr}[{_ARRAY_LEN}] = {{{elems}}};\n")
                argi += _ARRAY_LEN
                args.append(arr)
            else:
                args.append(f"atof(argv[{argi}])")
                argi += 1
        call = f"  compute({', '.join(args)});\n"
        return "".join(pre) + call, argi - 1

    # -- statements --------------------------------------------------------------------

    def _if_block(self, rng: SplittableRng, ctx: _Ctx) -> list[str]:
        guard_var = rng.choice(ctx.fp_vars)
        op = rng.choice(["<", ">", "<=", ">="])
        bound = self._expr(rng, ctx, 2)
        inner_op = rng.choice(["+=", "-=", "*=", "/="])
        lines = [f"if ({guard_var} {op} {bound}) {{"]
        lines.append(f"  comp {inner_op} {self._expr(rng, ctx, 1)};")
        if rng.bernoulli(0.4):
            lines.append("} else {")
            lines.append(f"  comp {rng.choice(['+=', '-='])} {self._expr(rng, ctx, 1)};")
        lines.append("}")
        return lines

    def _for_block(self, rng: SplittableRng, ctx: _Ctx, depth: int = 0) -> list[str]:
        loop_var = "i" if depth == 0 else "j"
        if ctx.int_vars and rng.bernoulli(0.6):
            bound = rng.choice(ctx.int_vars)
        else:
            bound = str(rng.randint(2, self.grammar.max_loop_trip))
        saved = list(ctx.int_vars)
        ctx.int_vars.append(loop_var)
        lines = [f"for (int {loop_var} = 0; {loop_var} < {bound}; ++{loop_var}) {{"]
        inner: list[str] = []
        op = rng.choice(["+=", "-=", "*=", "/="])
        inner.append(f"comp {op} {self._expr(rng, ctx, 1)};")
        if (
            depth + 1 < self.grammar.max_loop_depth
            and rng.bernoulli(0.25)
        ):
            inner.extend(self._for_block(rng, ctx, depth + 1))
        lines.extend(f"  {line}" for line in inner)
        lines.append("}")
        ctx.int_vars = saved
        return lines

    # -- expressions -----------------------------------------------------------------------

    def _literal(self, rng: SplittableRng) -> str:
        # Varity's rigid grammar reuses a small constant vocabulary often,
        # which is part of why its corpus is the least diverse (Table 2).
        roll = rng.random()
        if roll < 0.60:
            return rng.choice(["0.0", "0.5", "1.5", "0.25", "2.5", "0.75", "1.0", "-0.5"])
        if roll < 0.85:
            return f"{rng.uniform(-10.0, 10.0):.6g}"
        exp = rng.randint(-12, 12)
        return f"{rng.uniform(-9.0, 9.0):.4g}e{exp}"

    def _leaf(self, rng: SplittableRng, ctx: _Ctx) -> str:
        choices: list[str] = []
        choices.extend(ctx.fp_vars * 3)  # favour variables over literals
        if ctx.arrays:
            arr = rng.choice(ctx.arrays)
            choices.append(f"{arr}[{rng.randint(0, _ARRAY_LEN - 1)}]")
        if ctx.int_vars and rng.bernoulli(0.3):
            choices.append(rng.choice(ctx.int_vars))
        choices.append(self._literal(rng))
        return rng.choice(choices)

    def _expr(self, rng: SplittableRng, ctx: _Ctx, depth: int) -> str:
        if depth >= self.grammar.max_expr_depth:
            return self._leaf(rng, ctx)
        roll = rng.random()
        if roll < self.math_call_prob:
            fn = rng.choice(self.grammar.functions)
            from repro.fp.mathlib import MATH_FUNCTIONS

            arity = MATH_FUNCTIONS[fn].arity
            args = ", ".join(self._expr(rng, ctx, depth + 2) for _ in range(arity))
            return f"{fn}({args})"
        if roll < self.math_call_prob + 0.50:
            op = rng.choice(self.grammar.operators)
            left = self._expr(rng, ctx, depth + 1)
            right = self._expr(rng, ctx, depth + 1)
            text = f"{left} {op} {right}"
            if rng.bernoulli(0.4):
                return f"({text})"
            return text
        return self._leaf(rng, ctx)
