"""Feedback-based mutation: produce a behaviour-changing variant of a
previously successful program (paper §2.3.2).

The mutator implements exactly the strategy list the mutation prompt
enumerates: reordering/nesting arithmetic, changing constants, adding
control flow, swapping math functions, and inserting intermediates.  It
preserves the example's high-level structure and its effective trigger
patterns (transcendental sites, contractible shapes) while perturbing the
computation — which is what makes the LLM4FP loop both more effective and
more diverse than regeneration from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import is_

from repro.errors import ReproError
from repro.frontend import ast
from repro.frontend.parser import Parser, parse_program
from repro.frontend.printer import print_c
from repro.frontend.sema import check_program
from repro.fp.formats import Precision
from repro.generation.llm.base import GenerationConfig
from repro.generation.prompts import MUTATION_STRATEGIES
from repro.utils.rng import SplittableRng

__all__ = ["Mutator"]

#: Which mutation operators realize each prompt strategy — how a
#: "Focus especially on this strategy" prompt line (island fitness
#: steering) becomes a guaranteed operator application.  Keys are the
#: exact MUTATION_STRATEGIES strings, in order: nesting/reordering,
#: constants, control flow, math functions, intermediates.
_FOCUS_OPS: dict[str, tuple[str, ...]] = {
    MUTATION_STRATEGIES[0]: ("_nest_expression", "_reorder_statements"),
    MUTATION_STRATEGIES[1]: ("_perturb_constants",),
    MUTATION_STRATEGIES[2]: ("_wrap_in_loop", "_wrap_in_conditional"),
    MUTATION_STRATEGIES[3]: ("_swap_functions",),
    MUTATION_STRATEGIES[4]: ("_insert_intermediate", "_insert_fma_chain"),
}

#: Domain-compatible function swaps: same argument domain, different curve.
_FUNC_SWAPS = {
    "sin": ("cos", "tanh", "atan", "erf"),
    "cos": ("sin", "tanh", "cbrt"),
    "tanh": ("atan", "erf", "sin"),
    "atan": ("tanh", "sin", "erf"),
    "erf": ("tanh", "atan", "sin"),
    "exp": ("cosh", "sinh", "expm1"),
    "cosh": ("exp", "sinh"),
    "sinh": ("cosh", "expm1"),
    "expm1": ("sinh", "exp"),
    "log1p": ("atan", "tanh"),
    "cbrt": ("tanh", "atan"),
    "sqrt": ("cbrt", "fabs"),
    "fabs": ("cbrt",),
}

_RENAME_POOLS = (
    ("p", "q", "r", "s", "t", "u", "v", "w"),
    ("m_0", "m_1", "m_2", "m_3", "m_4", "m_5", "m_6", "m_7"),
    ("aux", "mix", "gain", "drift", "shift", "trace", "blend", "pulse"),
    ("u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7"),
    ("lhs", "rhs", "mid", "top", "low", "span", "edge", "core"),
    ("k_a", "k_b", "k_c", "k_d", "k_e", "k_f", "k_g", "k_h"),
    ("flux", "mass", "vel", "dens", "temp_v", "pres", "visc", "grad"),
)


@dataclass
class _MutState:
    rng: SplittableRng
    #: floating-point scalars in scope in compute (params + top-level locals)
    scalars: tuple[str, ...] = ()
    fresh_count: int = 0
    applied: list[str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.applied = []

    def fresh(self) -> str:
        self.fresh_count += 1
        return f"mut_{self.fresh_count}"

    def operand(self) -> ast.Expr:
        """A floating-point read: one of the program's own scalars or comp.

        Reading the seed's params/locals (not just ``comp``) is what keeps
        inserted statements from giving every sibling mutant the same
        normalized def-use edges — essential for corpus diversity (RQ1).
        """
        pool = self.scalars or ("comp",)
        return ast.Ident(self.rng.choice(pool))


class Mutator:
    """Applies the prompt's mutation strategies to an example program."""

    def __init__(self, config: GenerationConfig) -> None:
        self.config = config

    def mutate(
        self,
        rng: SplittableRng,
        example_source: str,
        precision: Precision,
        focus: str | None = None,
    ) -> tuple[str, list[str]] | None:
        """Return (mutated source, strategies applied) or None on failure.

        ``focus`` (a MUTATION_STRATEGIES string from the prompt's focus
        line) guarantees one application of a matching operator; without it
        every application is drawn uniformly, consuming exactly the
        pre-island RNG stream.
        """
        self._precision = precision
        focus_ops = _FOCUS_OPS.get(focus, ()) if focus is not None else ()
        try:
            unit, example_tokens = parse_program(example_source, tokens=True)
        except ReproError:
            return None
        # Temperature scales how far the variant strays from the example.
        n_mut = max(2, round(self.config.temperature * rng.uniform(1.5, 3.0)))
        scalars = _fp_scalars(unit)
        for attempt in range(4):
            state = _MutState(rng.split(f"try-{attempt}"), scalars=scalars)
            # One trigger-enriching insertion is always applied: the variant
            # keeps the seed's effective patterns *and* gains a new trigger
            # site (a fresh transcendental call, a contractible multiply-add
            # chain, or a guarded normalization).  This accumulation is what
            # makes the feedback loop beat fresh grammar generation (RQ1).
            # The variant keeps the seed's *key aspects*, not its every
            # statement (§2.3.2): a random subset of independent statements
            # is dropped first, then fresh material is grafted around what
            # remains.  Recombination — part proven seed, part new pattern —
            # is what gives the feedback loop both its higher trigger rate
            # and its diversity edge over from-scratch generation.
            mutated = self._on_compute(
                unit, lambda block: self._thin_seed(state, block)
            )
            # Always one fresh pattern graft (diversity) plus one strong
            # trigger insertion (effectiveness).
            mutated = self._on_compute(
                mutated, lambda block: self._graft_pattern(state, block)
            )
            # The FMA chain is deliberately rare here: contraction-decisive
            # multiply-add shapes light up nvcc's whole vs-O0_nofma column
            # (Table 5), where the paper reports nvcc as the *most stable*
            # compiler; transcendental and guarded-division sites carry the
            # rate instead.
            strong = (
                self._insert_transcendental,
                self._insert_transcendental,
                self._insert_guarded_div,
                self._insert_guarded_div,
                self._insert_fma_chain,
            )
            insert_op = state.rng.choice(strong)
            mutated = self._on_compute(mutated, lambda block: insert_op(state, block))
            if state.rng.bernoulli(0.85):
                second_op = state.rng.choice(strong)
                mutated = self._on_compute(
                    mutated, lambda block: second_op(state, block)
                )
            for j in range(n_mut):
                if j == 0 and focus_ops:
                    op = getattr(self, state.rng.choice(focus_ops))
                    mutated = self._on_compute(
                        mutated, lambda block: op(state, block)
                    )
                else:
                    mutated = self._apply_one(state, mutated)
            # Renaming always runs: it is free behaviour-preserving token
            # diversity (the prompt asks for a *different-looking* program).
            mutated = self._rename_locals(state, mutated)
            state.applied.append("rename-locals")
            try:
                source = print_c(mutated)
                variant, tokens = parse_program(source, tokens=True)
                check_program(variant)
            except ReproError:
                continue
            # A variant must differ from its seed in at least one token.
            if tokens != example_tokens:
                return source, state.applied
        return None

    # -- mutation dispatch ------------------------------------------------------

    def _apply_one(self, state: _MutState, unit: ast.TranslationUnit) -> ast.TranslationUnit:
        ops = (
            self._perturb_constants,
            self._swap_functions,
            self._nest_expression,
            self._wrap_in_loop,
            self._wrap_in_conditional,
            self._insert_intermediate,
            self._insert_transcendental,
            self._insert_fma_chain,
            self._reorder_statements,
            self._drop_update,
            self._graft_pattern,
        )
        op = state.rng.choice(ops)
        return self._on_compute(unit, lambda block: op(state, block))

    @staticmethod
    def _on_compute(unit: ast.TranslationUnit, fn) -> ast.TranslationUnit:
        functions = []
        for f in unit.functions:
            if f.name == "compute":
                functions.append(
                    ast.FunctionDef(f.return_type, f.name, f.params, fn(f.body))
                )
            else:
                functions.append(f)
        return ast.TranslationUnit(unit.includes, tuple(functions))

    # -- expression-level mutations ----------------------------------------------

    def _perturb_constants(self, state: _MutState, block: ast.Block) -> ast.Block:
        state.applied.append("change-constants")
        rng = state.rng

        def rewrite(e: ast.Expr) -> ast.Expr:
            if isinstance(e, ast.FloatLit) and rng.bernoulli(0.75):
                v = e.value * rng.uniform(0.5, 2.0) + rng.uniform(-1.0, 1.0)
                return ast.FloatLit(round(v, 6), "", e.is_single)
            return e

        return _rewrite(block, rewrite)

    def _swap_functions(self, state: _MutState, block: ast.Block) -> ast.Block:
        state.applied.append("swap-math-functions")
        rng = state.rng

        def rewrite(e: ast.Expr) -> ast.Expr:
            if isinstance(e, ast.Call) and e.name in _FUNC_SWAPS and rng.bernoulli(0.75):
                return ast.Call(rng.choice(_FUNC_SWAPS[e.name]), e.args)
            return e

        return _rewrite(block, rewrite)

    def _nest_expression(self, state: _MutState, block: ast.Block) -> ast.Block:
        state.applied.append("nest-arithmetic")
        rng = state.rng
        done = [False]

        def rewrite_stmt(s: ast.Stmt) -> list[ast.Stmt]:
            if done[0] or not isinstance(s, ast.Assign) or not rng.bernoulli(0.5):
                return [s]
            done[0] = True
            k = ast.FloatLit(round(rng.uniform(0.5, 1.5), 6))
            b = ast.FloatLit(round(rng.uniform(-2.0, 2.0), 6))
            nested = ast.Binary("+", ast.Binary("*", s.value, k), b)
            return [ast.Assign(s.target, s.op, nested)]

        return _splice(block, rewrite_stmt)

    # -- statement-level mutations ------------------------------------------------

    def _wrap_in_loop(self, state: _MutState, block: ast.Block) -> ast.Block:
        state.applied.append("add-loop")
        rng = state.rng
        done = [False]

        def rewrite_stmt(s: ast.Stmt) -> list[ast.Stmt]:
            if (
                done[0]
                or not isinstance(s, ast.Assign)
                or not isinstance(s.target, ast.Ident)
                or s.op not in ("+=", "-=")
                or not rng.bernoulli(0.5)
            ):
                return [s]
            done[0] = True
            i = state.fresh()
            bound = rng.randint(2, 8)
            # Build: for (int i = 0; i < bound; ++i) { <s scaled by 1/bound> }
            from repro.frontend.ctypes import INT

            loop = ast.For(
                init=ast.Decl(INT, (ast.Declarator(i, None, ast.IntLit(0)),)),
                cond=ast.Binary("<", ast.Ident(i), ast.IntLit(bound)),
                step=ast.IncDec(ast.Ident(i), "++"),
                body=ast.Block(
                    (
                        ast.Assign(
                            s.target,
                            s.op,
                            ast.Binary(
                                "/", s.value, ast.FloatLit(float(bound))
                            ),
                        ),
                    )
                ),
            )
            return [loop]

        return _splice(block, rewrite_stmt)

    def _wrap_in_conditional(self, state: _MutState, block: ast.Block) -> ast.Block:
        state.applied.append("add-conditional")
        rng = state.rng
        done = [False]

        def rewrite_stmt(s: ast.Stmt) -> list[ast.Stmt]:
            if (
                done[0]
                or not isinstance(s, ast.Assign)
                or not isinstance(s.target, ast.Ident)
                or s.target.name != "comp"
                or not rng.bernoulli(0.5)
            ):
                return [s]
            done[0] = True
            thr = ast.FloatLit(round(rng.uniform(-5.0, 5.0), 4))
            alt_op = "-=" if s.op == "+=" else "+=" if s.op == "-=" else s.op
            guard = ast.Binary(
                rng.choice(["<", ">"]), ast.Call("fabs", (ast.Ident("comp"),)), thr
            )
            alt = ast.Assign(s.target, alt_op if alt_op != "=" else "=", s.value)
            return [ast.If(guard, ast.Block((s,)), ast.Block((alt,)))]

        return _splice(block, rewrite_stmt)

    def _insert_transcendental(self, state: _MutState, block: ast.Block) -> ast.Block:
        """Add a guarded transcendental update of ``comp`` before the print.

        ``comp += f1(comp*k + b) * f2(c)`` contributes one runtime libm site
        (host/device libraries disagree on perturbed points at every level)
        and one constant-argument site (folded at different levels by the
        host compilers).  Both factors are bounded, so the update stays in
        the {Real, Real} regime the paper highlights (RQ2).
        """
        state.applied.append("insert-transcendental")
        rng = state.rng
        f1 = rng.choice(("sin", "cos", "tanh", "atan", "erf"))
        f2 = rng.choice(("cos", "sin", "tanh", "cbrt", "atan"))
        k = ast.FloatLit(round(rng.uniform(0.3, 1.7), 6))
        b = ast.FloatLit(round(rng.uniform(-1.5, 1.5), 6))
        c = ast.FloatLit(round(rng.uniform(0.05, 2.5), 6))
        arg = ast.Binary("+", ast.Binary("*", state.operand(), k), b)
        # Second factor: a constant argument (folded at compiler-dependent
        # levels) or another scalar read, chosen at random.
        if rng.bernoulli(0.5):
            second: ast.Expr = ast.Call(f2, (c,))
        else:
            second = ast.Call(f2, (state.operand(),))
        # The update couples *multiplicatively*: comp picks up the libm
        # term's relative (ulp-level) divergence whatever comp's magnitude.
        # An additive term of order 1 would be absorbed whenever |comp| is
        # large — multiplicative coupling is what keeps the mutant's new
        # trigger site visible in the printed bits (RQ1).  The factor stays
        # within ~[0.4, 2.1] so chains of updates cannot blow up or zero
        # out.  Several shapes avoid one stereotyped subtree signature.
        scale = ast.FloatLit(round(rng.uniform(0.2, 0.5), 6))
        base = ast.FloatLit(round(rng.uniform(1.0, 1.3), 6))
        shape = rng.randint(0, 3)
        if shape == 0:
            factor: ast.Expr = ast.Binary(
                "+", base, ast.Binary("*", scale, ast.Call(f1, (arg,)))
            )
        elif shape == 1:
            factor = ast.Binary(
                "+",
                base,
                ast.Binary(
                    "*", scale, ast.Binary("*", ast.Call(f1, (arg,)), second)
                ),
            )
        elif shape == 2:
            guard = ast.Binary("+", ast.Call("fabs", (second,)), ast.FloatLit(1.5))
            factor = ast.Binary(
                "+", base, ast.Binary("/", ast.Call(f1, (arg,)), guard)
            )
        else:
            factor = ast.Binary(
                "-", base, ast.Binary("*", scale, ast.Call(f2, (arg,)))
            )
        update = ast.Assign(ast.Ident("comp"), "*=", factor)
        return _insert_random(rng, block, [update])

    def _insert_fma_chain(self, state: _MutState, block: ast.Block) -> ast.Block:
        """Add a short ``comp = comp * k + d`` loop before the print.

        The multiply-add shape is contractible: nvcc fuses it at every level
        except ``O0_nofma`` and gcc fuses under optimization, so the chain
        adds level- and compiler-dependent rounding that accumulates across
        iterations without changing the result's magnitude (k is near 1).
        """
        state.applied.append("insert-fma-chain")
        rng = state.rng
        from repro.frontend.ctypes import INT

        i = state.fresh()
        trip = rng.randint(3, 9)
        k = ast.FloatLit(round(rng.uniform(0.9, 1.1), 6))
        d = ast.FloatLit(round(rng.uniform(0.001, 0.05), 6))
        # Addend: a small constant, or a damped read of one of the seed's
        # own scalars (tanh keeps it bounded whatever the input magnitude).
        addend: ast.Expr = d
        if rng.bernoulli(0.5):
            addend = ast.Binary("*", ast.Call("tanh", (state.operand(),)), d)
        fused = ast.Binary("+", ast.Binary("*", ast.Ident("comp"), k), addend)
        if rng.bernoulli(0.6):
            # Loop form: the contraction difference accumulates.
            body = ast.Assign(ast.Ident("comp"), "=", fused)
            stmt: ast.Stmt = ast.For(
                init=ast.Decl(INT, (ast.Declarator(i, None, ast.IntLit(0)),)),
                cond=ast.Binary("<", ast.Ident(i), ast.IntLit(trip)),
                step=ast.IncDec(ast.Ident(i), "++"),
                body=ast.Block((body,)),
            )
        else:
            # Straight-line form: one contractible site, different subtree
            # signature from the loop form.
            stmt = ast.Assign(
                ast.Ident("comp"),
                "=",
                ast.Binary(
                    "+",
                    ast.Binary("*", fused, ast.FloatLit(1.0)),
                    ast.Binary("*", state.operand(), d),
                ),
            )
        return _insert_random(rng, block, [stmt])

    def _insert_guarded_div(self, state: _MutState, block: ast.Block) -> ast.Block:
        """Add ``comp += c1 / (fabs(comp) + c2)`` — a guarded division site.

        Division is reciprocal-substituted under fast math and the guard
        keeps the denominator away from zero, so the site diverges across
        configurations without leaving the {Real, Real} regime.
        """
        state.applied.append("insert-guarded-div")
        rng = state.rng
        c2 = ast.FloatLit(round(rng.uniform(0.5, 3.0), 6))
        f = rng.choice(("tanh", "atan", "erf", "sin"))
        # comp /= (c2 + |f(x)|): dividing re-scales comp by an O(1) factor
        # whose own rounding (and reciprocal-math rewriting under fast math)
        # reaches the printed bits at any magnitude.
        denom = ast.Binary(
            "+", c2, ast.Call("fabs", (ast.Call(f, (state.operand(),)),))
        )
        update = ast.Assign(ast.Ident("comp"), "/=", denom)
        return _insert_random(rng, block, [update])

    def _thin_seed(self, state: _MutState, block: ast.Block) -> ast.Block:
        """Drop a random subset of the seed's independent statements.

        A statement is droppable when removing it cannot break validity: it
        is not the leading ``comp`` declaration or the print, and nothing it
        declares is mentioned later.  Each droppable statement survives with
        probability ~0.65, and at least one always survives, so the variant
        retains part of the proven trigger structure without inheriting the
        seed's entire skeleton.
        """
        rng = state.rng
        stmts = list(block.stmts)
        if len(stmts) <= 3:
            return block
        # Names mentioned at-or-after each suffix position.
        suffix_used: list[set[str]] = [set() for _ in range(len(stmts) + 1)]
        for i in range(len(stmts) - 1, -1, -1):
            _, used = _stmt_names(stmts[i])
            suffix_used[i] = suffix_used[i + 1] | used
        droppable = []
        for i in range(1, len(stmts)):
            s = stmts[i]
            if (
                isinstance(s, ast.ExprStmt)
                and isinstance(s.expr, ast.Call)
                and s.expr.name == "printf"
            ):
                continue
            declared, _ = _stmt_names(s)
            if declared & suffix_used[i + 1]:
                continue
            droppable.append(i)
        if len(droppable) < 2:
            return block
        drops = {i for i in droppable if rng.bernoulli(0.22)}
        if len(drops) == len(droppable):  # keep at least one seed statement
            drops.discard(rng.choice(sorted(drops)))
        if not drops:
            return block
        state.applied.append("thin-seed")
        return ast.Block(tuple(s for i, s in enumerate(stmts) if i not in drops))

    def _drop_update(self, state: _MutState, block: ast.Block) -> ast.Block:
        """Remove one top-level ``comp`` compound update.

        Dropping is always valid (no declaration disappears) and keeps
        mutation chains from growing monotonically, so deep descendants of
        one seed drift apart instead of accumulating the same prefix.
        """
        rng = state.rng
        stmts = list(block.stmts)
        candidates = [
            i
            for i, s in enumerate(stmts)
            if isinstance(s, ast.Assign)
            and isinstance(s.target, ast.Ident)
            and s.target.name == "comp"
            and s.op in ("+=", "-=", "*=")
        ]
        # Keep at least one update so comp still depends on the inputs.
        if len(candidates) < 2:
            return block
        state.applied.append("drop-update")
        del stmts[rng.choice(candidates)]
        return ast.Block(tuple(stmts))

    def _graft_pattern(self, state: _MutState, block: ast.Block) -> ast.Block:
        """Splice one freshly synthesized HPC pattern into the variant.

        This models what GPT-4 actually does under the mutation prompt: it
        does not micro-edit the example, it *regenerates* code conditioned
        on it — new idioms, new names, new constants around the preserved
        structure.  Fresh pattern material is what lets mutant corpora match
        and exceed the diversity of from-scratch generation (paper RQ1:
        LLM4FP has the lowest CodeBLEU).
        """
        state.applied.append("graft-pattern")
        rng = state.rng
        fp_params = tuple(s for s in state.scalars if s != "comp")
        out = block
        for _ in range(rng.randint(1, 2)):
            stmts = _synthesize_snippet(
                rng.split(f"graft-{state.fresh_count}"),
                fp_params,
                getattr(self, "_precision", Precision.DOUBLE),
                name_prefix=f"g{state.fresh_count}",
            )
            state.fresh_count += 1
            if stmts:
                out = _insert_random(rng, out, stmts)
        return out

    def _reorder_statements(self, state: _MutState, block: ast.Block) -> ast.Block:
        """Swap one adjacent pair of independent top-level statements.

        Only pairs with no declaration/use dependency are swapped, so the
        program stays valid; floating-point non-associativity still makes
        the variant behave differently when both statements update ``comp``.
        Reordering also shifts the first-appearance order of locals, which
        decorrelates the variant's normalized dataflow from its siblings'.
        """
        state.applied.append("reorder-statements")
        rng = state.rng
        stmts = list(block.stmts)
        candidates = [
            i
            for i in range(len(stmts) - 1)
            if _swappable(stmts[i], stmts[i + 1])
        ]
        if not candidates:
            return block
        i = rng.choice(candidates)
        stmts[i], stmts[i + 1] = stmts[i + 1], stmts[i]
        return ast.Block(tuple(stmts))

    def _insert_intermediate(self, state: _MutState, block: ast.Block) -> ast.Block:
        state.applied.append("insert-intermediate")
        rng = state.rng
        done = [False]

        def rewrite_stmt(s: ast.Stmt) -> list[ast.Stmt]:
            if (
                done[0]
                or not isinstance(s, ast.Assign)
                or isinstance(s.value, (ast.FloatLit, ast.Ident))
                or not rng.bernoulli(0.5)
            ):
                return [s]
            done[0] = True
            from repro.frontend.ctypes import DOUBLE

            t = state.fresh()
            decl = ast.Decl(DOUBLE, (ast.Declarator(t, None, s.value),))
            return [decl, ast.Assign(s.target, s.op, ast.Ident(t))]

        return _splice(block, rewrite_stmt)

    # -- renaming ----------------------------------------------------------------------

    def _rename_locals(
        self, state: _MutState, unit: ast.TranslationUnit
    ) -> ast.TranslationUnit:
        """Rename compute's local scalars from a fresh pool (token diversity)."""
        compute = unit.function("compute")
        pool = list(state.rng.choice(_RENAME_POOLS))
        state.rng.shuffle(pool)
        protected = {p.name for p in compute.params} | {"comp"}
        mapping: dict[str, str] = {}

        def name_for(old: str) -> str:
            if old in protected:
                return old
            if old not in mapping:
                if pool:
                    mapping[old] = pool.pop()
                else:
                    mapping[old] = f"v_{len(mapping)}"
            return mapping[old]

        def rename(node):
            if isinstance(node, (ast.Declarator, ast.Ident)) and node.name not in protected:
                return replace(node, name=name_for(node.name))
            return node

        # Declarator names live outside the expression tree: every
        # declared name draws from the pool first, then names only read.
        for d in _declarators(compute.body):
            name_for(d.name)
        body = _rewrite(compute.body, rename)
        return self._on_compute(unit, lambda _: body)


def _fp_scalars(unit: ast.TranslationUnit) -> tuple[str, ...]:
    """Floating-point scalar names that are in scope throughout compute.

    Parameters (always live from function entry) plus ``comp`` (declared
    first in the generated structure).  Mid-body locals are excluded so an
    insertion can never read a name before its declaration.
    """
    try:
        compute = unit.function("compute")
    except KeyError:
        return ("comp",)
    names = [
        p.name
        for p in compute.params
        if p.type.base in ("double", "float") and p.type.pointers == 0
    ]
    names.append("comp")
    return tuple(names)


def _synthesize_snippet(
    rng: SplittableRng,
    fp_params: tuple[str, ...],
    precision: Precision,
    name_prefix: str = "gx",
) -> list[ast.Stmt]:
    """Emit one pattern from the synthesis library as parsed statements.

    The snippet reads the host program's own scalars (``fp_params``) and
    accumulates into ``comp``, so it grafts cleanly into any generated
    compute body.  ``name_prefix`` keeps the snippet's locals disjoint from
    the synthesizer's style pools, the rename pools, and any other graft in
    the same variant.  Returns [] when the pattern text fails to parse
    (never expected, but grafting is best-effort).
    """
    from repro.generation.llm.codegen import PATTERNS, EmitCtx

    ctx = EmitCtx(
        rng=rng.split("emit"),
        fp=precision.c_type,
        fp_params=list(fp_params) or ["comp"],
        int_param=None,
        arr_param=None,
        local_names=tuple(f"{name_prefix}_{ch}" for ch in "abcdefgh"),
    )
    pats = [p for p in PATTERNS if p.weight_grammar > 0]
    pat = pats[rng.randint(0, len(pats) - 1)]
    pat.emit(ctx)
    wrapper = "void compute() {\n" + "\n".join(ctx.lines) + "\n}\n"
    try:
        # Outside the parse memo: a throwaway text would evict feedback
        # seeds.  The variant it grafts into is parsed (and depth-checked)
        # through the memo.
        unit = Parser(wrapper).parse()
    except ReproError:
        return []
    return list(unit.function("compute").body.stmts)


def _insert_random(
    rng: SplittableRng, block: ast.Block, new_stmts: list[ast.Stmt]
) -> ast.Block:
    """Insert statements at a random top-level position.

    The position is bounded below by the first statement (``comp``'s
    declaration in the generated structure — the inserts read ``comp``) and
    above by the ``printf``.  Randomizing it decorrelates the def-use
    ordering of sibling mutants, which matters for corpus diversity.
    """
    stmts = list(block.stmts)
    hi = len(stmts)
    for idx in range(len(stmts) - 1, -1, -1):
        s = stmts[idx]
        if (
            isinstance(s, ast.ExprStmt)
            and isinstance(s.expr, ast.Call)
            and s.expr.name == "printf"
        ):
            hi = idx
            break
    lo = min(1, hi)
    pos = rng.randint(lo, hi) if hi > lo else hi
    return ast.Block(tuple(stmts[:pos] + new_stmts + stmts[pos:]))


def _stmt_names(s: ast.Stmt) -> tuple[set[str], set[str]]:
    """(declared names, all identifier occurrences) within one statement."""
    declared: set[str] = set()
    used: set[str] = set()
    for sub in ast.walk_stmts(ast.Block((s,))):
        if isinstance(sub, ast.Decl):
            declared.update(d.name for d in sub.declarators)
        if isinstance(sub, ast.For) and isinstance(sub.init, ast.Decl):
            declared.update(d.name for d in sub.init.declarators)
        for top in ast.stmt_exprs(sub):
            for e in ast.walk_exprs(top):
                if isinstance(e, ast.Ident):
                    used.add(e.name)
    return declared, used


def _swappable(a: ast.Stmt, b: ast.Stmt) -> bool:
    """True when neither statement declares a name the other mentions."""
    decl_a, used_a = _stmt_names(a)
    decl_b, used_b = _stmt_names(b)
    return not (decl_a & (used_b | decl_b)) and not (decl_b & used_a)


# ------------------------------------------------------------------ AST rewriting


def _declarators(node):
    """Every declarator under ``node``, in the order renaming draws pool
    names for them: pre-order, except that an ``if`` statement's else
    branch comes before its then branch."""
    if isinstance(node, ast.Declarator):
        yield node
        return
    children = [child for _, child in ast.child_steps(node)]
    if isinstance(node, ast.If):
        children.reverse()
    for child in children:
        yield from _declarators(child)


def _rewrite(node, fn):
    """Bottom-up rewrite: ``fn`` applied to every node after its children,
    in field order.  Subtrees ``fn`` leaves alone come back as the same
    objects."""
    return fn(ast.map_children(node, lambda child: _rewrite(child, fn)))


def _splice(node, fn):
    """Statement rewrite: ``fn`` maps each member of every ``Block`` to a
    list of statements, pre-order, and each replacement is spliced in
    turn before the next member is seen.  ``for`` initializers and steps
    are not block members, so ``fn`` never sees them."""
    if isinstance(node, ast.Block):
        stmts = tuple(_splice(r, fn) for s in node.stmts for r in fn(s))
        if len(stmts) == len(node.stmts) and all(map(is_, stmts, node.stmts)):
            return node
        return ast.Block(stmts)
    if isinstance(node, ast.STMT_TYPES):
        return ast.map_children(node, lambda child: _splice(child, fn))
    return node
