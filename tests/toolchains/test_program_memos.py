"""Per-program memos of the compile and compare stages: the pass memo
(``PassPipeline.run(kernel, memo)``, keyed by ``Pass.key()``) and the
intern table (``kernel_fingerprint(node, table)``) that devectorized
fingerprints are keyed in."""

import gc
import struct

import pytest

from repro.difftest.classify import devectorized_fingerprint
from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine, EngineConfig, frontend_kernels
from repro.experiments.approaches import make_generator
from repro.fp.formats import Precision
from repro.fp.mathlib import PerturbedLibm
from repro.ir import nodes as ir
from repro.ir.passes import ConstantFold, PassPipeline
from repro.toolchains import (
    CompilerKind,
    NvccCompiler,
    default_compilers,
    kernel_fingerprint,
)
from repro.toolchains.optlevels import ALL_LEVELS
from repro.utils.rng import SplittableRng

APPROACHES = ("varity", "llm4fp", "loops")


def _campaign(approach: str) -> list[tuple]:
    """A 20-program serial campaign at the CLI's default seed; one
    ``(program, ConstantFold.run calls)`` pair per program."""
    calls: list[int] = []
    per_program: list[tuple] = []
    fold = ConstantFold.run

    def counting_fold(self, kernel):
        calls.append(1)
        return fold(self, kernel)

    def progress(index, outcome):
        per_program.append((outcome.program, len(calls)))
        calls.clear()

    seed = 20250916
    engine = CampaignEngine(
        default_compilers(),
        CampaignConfig(budget=20, seed=seed),
        EngineConfig(backend="serial", jobs=1),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ConstantFold, "run", counting_fold)
        engine.run(
            make_generator(approach, SplittableRng(seed, f"cli-{approach}")),
            progress=progress,
        )
    assert len(per_program) == 20
    return per_program


@pytest.fixture(scope="module")
def campaigns() -> dict[str, list[tuple]]:
    return {approach: _campaign(approach) for approach in APPROACHES}


def _all_compilers():
    """Every default pipeline: both tier profiles, both nvcc precisions."""
    for tiers in ("baseline", "full"):
        yield from default_compilers(tiers)
        yield NvccCompiler(precision=Precision.SINGLE, tiers=tiers)


# -- pass memo -------------------------------------------------------------------


@pytest.mark.parametrize("approach", APPROACHES)
def test_constant_fold_runs_once_per_configuration(campaigns, approach):
    # gcc O1..O3_fastmath and clang O0 fold with propagate=False, clang
    # O1..O3_fastmath with propagate=True: two configurations, one input.
    assert [calls for _, calls in campaigns[approach]] == [2] * 20


@pytest.mark.parametrize("approach", APPROACHES)
def test_memoized_compilation_matches_unmemoized(campaigns, approach):
    compilers = list(_all_compilers())
    for program, _ in campaigns[approach]:
        kernels = frontend_kernels(program.source).kernels
        memo: dict = {}
        for compiler in compilers:
            kernel = kernels[compiler.kind]
            for level in ALL_LEVELS:
                plain = compiler.compile_kernel(kernel, level)
                memoized = compiler.compile_kernel(kernel, level, memo)
                assert repr(memoized.kernel) == repr(plain.kernel), (
                    compiler,
                    level,
                )


def test_memo_hit_does_not_run_the_pass(monkeypatch, campaigns):
    program, _ = campaigns["llm4fp"][0]
    kernel = frontend_kernels(program.source).kernels[default_compilers()[0].kind]
    pipeline = PassPipeline([ConstantFold(fold_calls=True)])
    memo: dict = {}
    first = pipeline.run(kernel, memo)

    def fail(self, kernel):
        raise AssertionError("memo hit ran the pass")

    monkeypatch.setattr(ConstantFold, "run", fail)
    assert PassPipeline([ConstantFold(fold_calls=True)]).run(kernel, memo) is first


def test_libm_salt_is_part_of_the_pass_key():
    def fold(salt: str) -> ConstantFold:
        libm = PerturbedLibm("glibc", salt, max_ulps=2, perturb_prob=0.5)
        return ConstantFold(fold_calls=True, libm=libm)

    assert fold("a").key() == fold("a").key()
    assert fold("a").key() != fold("b").key()


def test_every_default_pass_has_a_hashable_key(campaigns):
    # Running a pass must not change its key: run state kept on the pass
    # would make a reused pass key differently (or not hash at all).
    program, _ = campaigns["loops"][0]
    kernels = frontend_kernels(program.source).kernels
    seen = 0
    for compiler in _all_compilers():
        for level in ALL_LEVELS:
            for p in compiler.pipeline(level).passes:
                key = p.key()
                hash(key)
                p.run(kernels[compiler.kind])
                assert p.key() == key, p
                seen += 1
    assert seen


# -- intern table ----------------------------------------------------------------


@pytest.mark.parametrize("approach", APPROACHES)
def test_keys_equal_exactly_when_reprs_equal(campaigns, approach):
    table: dict = {}
    keys_of: dict[str, set[int]] = {}
    reprs_of: dict[int, set[str]] = {}
    for program, _ in campaigns[approach]:
        kernels = frontend_kernels(program.source).kernels
        memo: dict = {}
        for compiler in default_compilers():
            for level in ALL_LEVELS:
                binary = compiler.compile_kernel(kernels[compiler.kind], level, memo)
                key = kernel_fingerprint(binary.kernel, table)
                text = repr(binary.kernel)
                keys_of.setdefault(text, set()).add(key)
                reprs_of.setdefault(key, set()).add(text)
    assert all(len(keys) == 1 for keys in keys_of.values())
    assert all(len(texts) == 1 for texts in reprs_of.values())
    assert len(reprs_of) > 1


def _print_kernel(value: float) -> ir.Kernel:
    return ir.Kernel(
        "compute", (), (ir.SPrint("%.17g\\n", (ir.FConst(value),)),), {}
    )


def _nan(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


def test_nan_literals_share_a_key():
    table: dict = {}
    assert kernel_fingerprint(_print_kernel(_nan(1)), table) == kernel_fingerprint(
        _print_kernel(_nan(2)), table
    )
    assert kernel_fingerprint(_print_kernel(0.0), table) != kernel_fingerprint(
        _print_kernel(-0.0), table
    )


def test_interned_nodes_are_pinned():
    # Each kernel is dropped once interned.  Without pinning, the next
    # kernel's nodes reuse the freed ids and are served the old keys.
    table: dict = {}
    keys = []
    for i in range(20):
        keys.append(kernel_fingerprint(_print_kernel(float(i)), table))
        gc.collect()
    assert len(set(keys)) == 20


# -- devectorized keys -----------------------------------------------------------


@pytest.mark.parametrize("approach", APPROACHES)
def test_host_and_device_lowerings_get_equal_devectorized_keys(campaigns, approach):
    # Two lowerings of one source: distinct objects, equal content.
    table: dict = {}
    for program, _ in campaigns[approach]:
        kernels = frontend_kernels(program.source).kernels
        host, device = kernels[CompilerKind.HOST], kernels[CompilerKind.DEVICE]
        assert host is not device
        assert devectorized_fingerprint(host, table) == devectorized_fingerprint(
            device, table
        )


def test_devectorized_keys_keep_signed_zero_and_fold_nan():
    # Structural == conflates the zeros (FConst(0.0) == FConst(-0.0)),
    # and a signed-zero print is observable; every NaN prints as ``nan``.
    table: dict = {}

    def key(value: float) -> tuple[int, ...]:
        return devectorized_fingerprint(_print_kernel(value), table)

    assert key(0.0) != key(-0.0)
    assert key(_nan(1)) == key(_nan(2))
