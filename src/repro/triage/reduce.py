"""Delta-debugging reducer over the C-subset AST.

Takes a triggering program and shrinks it while an oracle keeps observing
the *same* inconsistency (same kind, same compiler pair, same level —
:class:`~repro.triage.signature.InconsistencySignature`).  Three kinds of
candidate edits, all applied to the ``compute`` function only (``main``
stays fixed so the stored input vector keeps meaning):

* **statement ddmin** — Zeller's ddmin over every block's statement list,
  innermost blocks included;
* **statement simplification** — unwrap control flow: drop an ``else``,
  hoist an ``if``'s then-branch, replace a loop with one straight-line
  iteration (``for`` keeps its init so the induction variable stays
  declared);
* **expression simplification** — replace an expression by one of its own
  operands, or a multi-node expression by a literal.

Every candidate is pretty-printed (:func:`~repro.frontend.printer.print_c`)
and re-validated through the full front end by the oracle, so invalid
programs (uses of deleted variables, missing ``printf``, ...) are simply
rejected.  Every *accepted* edit strictly decreases the AST node count and
candidates are enumerated in a fixed order, so reduction terminates and is
deterministic: the same trigger always reduces to the same minimal
program.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError, TriageError
from repro.frontend import ast
from repro.frontend.parser import parse_program
from repro.frontend.printer import expr_to_c, print_c
from repro.toolchains.base import Compiler
from repro.triage.oracle import PairOracle, compilers_by_name
from repro.triage.signature import InconsistencySignature

__all__ = ["ReductionResult", "reduce_program", "DEFAULT_MAX_TESTS"]

#: Predicate-evaluation budget: reduction stops (deterministically) when
#: exhausted, returning the best program found so far.
DEFAULT_MAX_TESTS = 3000


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of reducing one triggering program."""

    original_source: str
    reduced_source: str
    target: InconsistencySignature
    original_nodes: int
    reduced_nodes: int
    accepted_edits: int
    tests: int  # oracle evaluations spent

    @property
    def shrunk(self) -> bool:
        return self.reduced_nodes < self.original_nodes


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.spent = 0

    def take(self) -> bool:
        if self.spent >= self.limit:
            return False
        self.spent += 1
        return True


class _Reducer:
    def __init__(
        self,
        oracle: PairOracle,
        inputs: tuple,
        budget: _Budget,
    ) -> None:
        self.oracle = oracle
        self.inputs = inputs
        self.budget = budget
        self.accepted = 0

    # -- the predicate -----------------------------------------------------------

    def interesting(self, unit: ast.TranslationUnit, target) -> bool:
        if not self.budget.take():
            return False
        try:
            source = print_c(unit)
        except (ReproError, TypeError, KeyError):
            return False
        return self.oracle.matches(source, self.inputs, target)

    # -- candidate application ---------------------------------------------------

    def _try(self, unit, candidate, target):
        """Accept ``candidate`` iff strictly smaller and still interesting."""
        if ast.node_count(candidate) >= ast.node_count(unit):
            return None
        if self.interesting(candidate, target):
            self.accepted += 1
            return candidate
        return None

    def _first_accepted(self, unit, candidate_units, target):
        """First strictly-smaller candidate that is still interesting.

        Returns ``(index, candidate)`` or None.
        """
        for i, cand in enumerate(candidate_units):
            accepted = self._try(unit, cand, target)
            if accepted is not None:
                return i, accepted
        return None

    # -- statement ddmin ---------------------------------------------------------

    def _compute_path(self, unit) -> ast.Path:
        for i, fn in enumerate(unit.functions):
            if fn.name == "compute":
                return (("functions", i),)
        raise TriageError("program has no `compute` function")

    def _block_paths(self, unit) -> list[ast.Path]:
        """Paths to every Block inside ``compute``, pre-order."""
        base = self._compute_path(unit)
        fn = ast.node_at(unit, base)
        return [
            base + path
            for path, node in ast.walk_paths(fn)
            if isinstance(node, ast.Block)
        ]

    def _ddmin_block(self, unit, path, target):
        """Classic ddmin over the statement tuple of the block at ``path``."""
        block = ast.node_at(unit, path)
        stmts = block.stmts
        n = 2
        while len(stmts) >= 2:
            chunk = max(1, len(stmts) // n)
            starts = range(0, len(stmts), chunk)
            subsets = [stmts[s : s + chunk] for s in starts]
            # Try each subset alone, then each complement, in order; the
            # same-size skip is uncharged, as ever.
            cand_lists = [
                cand_stmts
                for cand_stmts in subsets
                + [stmts[:s] + stmts[s + chunk :] for s in starts]
                if len(cand_stmts) < len(stmts)
            ]
            found = self._first_accepted(
                unit,
                [
                    ast.replace_at(unit, path, ast.Block(tuple(cand_stmts)))
                    for cand_stmts in cand_lists
                ],
                target,
            )
            if found is not None:
                i, unit = found
                stmts = tuple(cand_lists[i])
                n = max(n - 1, 2)
            else:
                if n >= len(stmts):
                    break
                n = min(len(stmts), 2 * n)
        return unit

    def ddmin_pass(self, unit, target):
        """ddmin every block of ``compute``, outermost first."""
        i = 0
        while True:
            paths = self._block_paths(unit)
            if i >= len(paths):
                return unit
            unit = self._ddmin_block(unit, paths[i], target)
            i += 1

    # -- statement simplification ------------------------------------------------

    @staticmethod
    def _stmt_rewrites(stmt):
        """Smaller statements that may preserve the divergence."""
        if isinstance(stmt, ast.If):
            if stmt.other is not None:
                yield ast.If(stmt.cond, stmt.then, None)
                yield stmt.other
            yield stmt.then
        elif isinstance(stmt, ast.For):
            init = (stmt.init,) if stmt.init is not None else ()
            yield ast.Block(init + stmt.body.stmts)
        elif isinstance(stmt, ast.While):
            yield stmt.body

    def simplify_stmts_pass(self, unit, target):
        changed = True
        while changed:
            changed = False
            base = self._compute_path(unit)
            fn = ast.node_at(unit, base)
            for path, node in ast.walk_paths(fn):
                if not isinstance(node, (ast.If, ast.For, ast.While)):
                    continue
                for rewrite in self._stmt_rewrites(node):
                    candidate = ast.replace_at(unit, base + path, rewrite)
                    accepted = self._try(unit, candidate, target)
                    if accepted is not None:
                        unit = accepted
                        changed = True
                        break
                if changed:
                    break
        return unit

    # -- expression simplification -------------------------------------------------

    @staticmethod
    def _expr_rewrites(expr):
        """Smaller replacement expressions, most aggressive first."""
        operands: list[ast.Expr] = []
        if isinstance(expr, ast.Binary):
            operands = [expr.left, expr.right]
        elif isinstance(expr, ast.Unary):
            operands = [expr.operand]
        elif isinstance(expr, ast.Ternary):
            operands = [expr.then, expr.other]
        elif isinstance(expr, ast.Cast):
            operands = [expr.operand]
        elif isinstance(expr, ast.Call) and expr.name != "printf":
            operands = [a for a in expr.args if not isinstance(a, ast.StrLit)]
        rewrites = []
        if ast.node_count(expr) >= 2 and not isinstance(expr, ast.StrLit):
            rewrites.append(ast.FloatLit(1.0, text="1.0"))
        rewrites.extend(operands)
        return sorted(rewrites, key=lambda r: (ast.node_count(r), _expr_key(r)))

    def simplify_exprs_pass(self, unit, target):
        changed = True
        while changed:
            changed = False
            base = self._compute_path(unit)
            fn = ast.node_at(unit, base)
            for path, node in ast.walk_paths(fn):
                if not isinstance(node, ast.EXPR_TYPES):
                    continue
                for rewrite in self._expr_rewrites(node):
                    candidate = ast.replace_at(unit, base + path, rewrite)
                    accepted = self._try(unit, candidate, target)
                    if accepted is not None:
                        unit = accepted
                        changed = True
                        break
                if changed:
                    break
        return unit


def _expr_key(expr) -> str:
    """Stable tie-break for equally sized rewrite candidates."""
    try:
        return expr_to_c(expr)
    except (TypeError, KeyError):  # pragma: no cover - all rewrites printable
        return repr(expr)


def reduce_program(
    source: str,
    inputs: tuple,
    target: InconsistencySignature,
    compilers: list[Compiler],
    max_steps: int | None = None,
    max_tests: int = DEFAULT_MAX_TESTS,
) -> ReductionResult:
    """Shrink ``source`` while it keeps exhibiting ``target``.

    ``compilers`` must contain both compilers the signature names.
    ``max_tests`` bounds oracle evaluations; when exhausted the best
    program found so far is returned (still a valid trigger — every
    intermediate step is).  Deterministic: the same arguments always
    produce the same reduced program.

    Candidates run on the tape; a runaway one that crosses the step cap
    below faults and reruns on the interpreter, paying for both.
    """
    by_name = compilers_by_name(compilers)
    try:
        ca, cb = by_name[target.compiler_a], by_name[target.compiler_b]
    except KeyError as e:
        raise TriageError(f"signature names unknown compiler {e.args[0]!r}") from e
    kwargs = {} if max_steps is None else {"max_steps": max_steps}
    probe = PairOracle(ca, cb, target.level, **kwargs)
    observation = probe.observe(source, inputs)
    if not (observation.inconsistent and observation.kind == target.kind):
        raise TriageError(
            f"trigger does not exhibit {target.label()} on the given inputs"
        )
    # Candidate edits can produce runaway loops (a deleted increment, a
    # constant-folded condition); cap candidates relative to what the
    # original trigger actually needed so each such candidate is rejected
    # in ~original time instead of burning the full interpreter budget.
    step_cap = max(4 * observation.steps, 10_000)
    if max_steps is not None:
        step_cap = min(step_cap, max_steps)
    oracle = PairOracle(ca, cb, target.level, max_steps=step_cap)
    budget = _Budget(max_tests)
    reducer = _Reducer(oracle, inputs, budget)

    try:
        unit = parse_program(source)
    except ReproError as e:
        raise TriageError(f"trigger does not parse: {e}") from e

    while True:
        before = ast.node_count(unit)
        unit = reducer.ddmin_pass(unit, target)
        unit = reducer.simplify_stmts_pass(unit, target)
        unit = reducer.simplify_exprs_pass(unit, target)
        if ast.node_count(unit) >= before:
            break

    original_unit = parse_program(source)
    return ReductionResult(
        original_source=source,
        reduced_source=print_c(unit),
        target=target,
        original_nodes=ast.node_count(original_unit),
        reduced_nodes=ast.node_count(unit),
        accepted_edits=reducer.accepted,
        tests=budget.spent,
    )
