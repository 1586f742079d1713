"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each pipeline layer from the
benchmark's own files; nothing under ``src/`` knows it exists.  A wrapped
function is replaced on its defining module or class *and* on every
``repro.*`` module that imported it by name (``parse_program``, for one, is
bound in the engine, the LLM generator, the mutator and the CUDA
translator), so no call path slips past it.

It fails loudly instead of going stale: a target that no longer exists
raises :class:`TraceError` at install time, and :meth:`Tracer.check_layers`
raises when a layer the workload must exercise recorded no calls, so a
rename in ``src/`` breaks the benchmark rather than reporting 0 ms.

Spans stay in memory and are written out once, after the campaign, as
Chrome trace-event JSON (viewable in Perfetto).  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter

#: Root span: the campaign loop.  Its self time is the engine residue.
ROOT_SPAN = "difftest.engine.run"

#: (span name, module, attribute) — one row per wrapped layer boundary.
TARGETS = (
    (ROOT_SPAN, "repro.difftest.engine", "CampaignEngine.run"),
    ("generation.generate", "repro.generation.varity", "VarityGenerator.generate"),
    ("generation.generate", "repro.generation.loops", "LoopReductionGenerator.generate"),
    ("generation.generate", "repro.generation.llm.generator", "LLMProgramGenerator.generate"),
    ("generation.llm_complete", "repro.generation.llm.simllm", "SimLLM.complete"),
    ("generation.mutate", "repro.generation.llm.mutator", "Mutator.mutate"),
    ("frontend.lex", "repro.frontend.lexer", "tokenize"),
    ("frontend.parse", "repro.frontend.parser", "parse_program"),
    ("frontend.sema", "repro.frontend.sema", "check_program"),
    ("frontend.lower", "repro.ir.lower", "lower_compute"),
    ("frontend.cuda", "repro.toolchains.cuda", "translate_to_cuda"),
    ("toolchains.compile", "repro.toolchains.base", "Compiler.compile_kernel"),
    ("toolchains.cache.fingerprint", "repro.toolchains.cache", "kernel_fingerprint"),
    ("execution.tape_compile", "repro.execution.tape", "compile_tape"),
    ("execution.tape_run", "repro.execution.tape", "Tape.run"),
    ("execution.tree_run", "repro.execution.interp", "Interpreter.run"),
    ("difftest.backend.dispatch", "repro.difftest.backend", "ExecutionBackend.run_batches"),
    ("difftest.backend.dispatch", "repro.difftest.backend", "ProcessBackend.run_batches"),
    ("tiers.shape_vector", "repro.tiers.registry", "shape_vector"),
    ("difftest.classify.devec_fp", "repro.difftest.classify", "devectorized_fingerprint"),
    ("difftest.store.append", "repro.difftest.store", "CampaignStore.append"),
    ("difftest.store.fsync", "os", "fsync"),
)

#: Pass modules under ``repro/ir/passes``; each pass class's ``run`` is
#: traced as ``ir.passes.<module>``.
PASS_MODULES = (
    "constant_fold",
    "finite_math",
    "fma_contract",
    "func_subst",
    "if_convert",
    "loop_unroll",
    "reassociate",
    "recip_div",
    "vectorize",
)


#: Work counted at a span, from its arguments and result: tokens lexed,
#: execute tasks handed to a backend.
COUNTERS = {
    "frontend.lex": lambda args, result: len(result.tokens),
    "difftest.backend.dispatch": lambda args, result: len(args[1]),
}


class TraceError(RuntimeError):
    """A wrapped entry point is missing, or a layer went silent."""


class Tracer:
    """Records nested spans around wrapped functions of the current process.

    Worker processes forked from a traced process inherit the wrappers but
    not the recording: :func:`os.register_at_fork` switches them off there.
    """

    def __init__(self) -> None:
        self.active = False
        #: index of the program in flight; spans of one program share it
        self.program = 0
        #: open spans: [name, child seconds, id]
        self._stack: list[list] = []
        #: finished spans: (id, parent id, name, start, duration, program)
        self.spans: list[tuple] = []
        #: span name -> [calls, self seconds, inclusive seconds]
        self.totals: dict[str, list] = {}
        #: span name -> work counted by :data:`COUNTERS`
        self.counts: dict[str, int] = {}
        #: ``parse_program`` calls made while generating a program
        self.generation_parses = 0
        self._next_id = 0
        os.register_at_fork(after_in_child=self._forked)

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raise :class:`TraceError` if one is missing."""
        for name, module_name, attr in TARGETS:
            self._wrap_attr(name, module_name, attr)
        for module_name in PASS_MODULES:
            self._wrap_passes(module_name)
        self.active = True

    def _wrap_attr(self, name: str, module_name: str, attr: str) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, fn_name, None) if owner is not None else None
        if original is None:
            raise TraceError(f"traced entry point {module_name}.{attr} no longer exists")
        wrapper = self._wrapper(name, original)
        setattr(owner, fn_name, wrapper)
        if owner is module and module_name.startswith("repro"):
            # Rebind every ``from module import fn`` copy as well.
            for other_name, other in list(sys.modules.items()):
                if other is module or not other_name.startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)

    def _wrap_passes(self, module_name: str) -> None:
        from repro.ir.passes.base import Pass

        full = f"repro.ir.passes.{module_name}"
        try:
            module = importlib.import_module(full)
        except ImportError as e:
            raise TraceError(f"traced pass module {full} no longer exists") from e
        classes = [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and issubclass(obj, Pass)
            and obj.__module__ == full
        ]
        if not classes:
            raise TraceError(f"traced pass module {full} defines no Pass subclass")
        for cls in classes:
            cls.run = self._wrapper(f"ir.passes.{module_name}", cls.run)

    def _forked(self) -> None:
        self.active = False
        self._stack = []

    # -- recording ----------------------------------------------------------------

    def _wrapper(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            if name == "frontend.parse" and any(
                frame[0] == "generation.generate" for frame in stack
            ):
                tracer.generation_parses += 1
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = stack[-1][2] if stack else 0
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                totals = tracer.totals.get(name)
                if totals is None:
                    totals = tracer.totals[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += duration - frame[1]
                totals[2] += duration
                tracer.spans.append(
                    (span_id, parent, name, start, duration, tracer.program)
                )
            if counter is not None:
                tracer.counts[name] = tracer.counts.get(name, 0) + counter(args, result)
            return result

        return traced

    # -- results ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def check_layers(self, workload: str, layers) -> None:
        """Raise :class:`TraceError` if an expected layer recorded no calls."""
        silent = [name for name in layers if self.calls(name) == 0]
        if silent:
            raise TraceError(
                f"workload {workload}: layer span(s) {', '.join(silent)} recorded "
                "no calls; a traced entry point was renamed or bypassed"
            )

    def write(self, path: str | os.PathLike) -> None:
        """Write the recorded spans as Chrome trace-event JSON."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "program": program},
            }
            for span_id, parent, name, start, duration, program in self.spans
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events}, f, separators=(",", ":"))
