"""The compiler-model fingerprint: content-deterministic, order-free,
sensitive to every observable piece of the toolchain."""

import re

from repro.corpus import model_fingerprint
from repro.ir.passes import FunctionSubstitution, PassPipeline
from repro.toolchains import ALL_LEVELS, GccCompiler, OptLevel, default_compilers


class TestFingerprint:
    def test_short_hex(self):
        assert re.fullmatch(r"[0-9a-f]{16}", model_fingerprint())

    def test_deterministic_across_calls(self):
        assert model_fingerprint() == model_fingerprint()

    def test_default_arguments_are_the_default_model(self):
        explicit = model_fingerprint(default_compilers(), list(ALL_LEVELS))
        assert explicit == model_fingerprint()

    def test_compiler_order_is_irrelevant(self):
        compilers = default_compilers()
        assert model_fingerprint(compilers) == model_fingerprint(
            list(reversed(compilers))
        )

    def test_version_bump_changes_fingerprint(self):
        class NewerGcc(GccCompiler):
            version = GccCompiler.version + "-patched"

        old = [GccCompiler()]
        new = [NewerGcc()]
        assert model_fingerprint(old) != model_fingerprint(new)

    def test_level_matrix_is_part_of_the_model(self):
        assert model_fingerprint(levels=list(ALL_LEVELS)[:2]) != model_fingerprint()

    def test_compiler_subset_changes_fingerprint(self):
        compilers = default_compilers()
        assert model_fingerprint(compilers[:-1]) != model_fingerprint(compilers)

    def test_pass_parameter_changes_fingerprint(self):
        class ShallowPowGcc(GccCompiler):
            def pipeline(self, level):
                pipeline = super().pipeline(level)
                return PassPipeline(
                    FunctionSubstitution(max_pow_expand=2, pow_half_to_sqrt=True)
                    if isinstance(p, FunctionSubstitution)
                    else p
                    for p in pipeline.passes
                )

        assert ShallowPowGcc().pipeline(OptLevel.O3_FASTMATH).names == (
            GccCompiler().pipeline(OptLevel.O3_FASTMATH).names
        )
        assert model_fingerprint([ShallowPowGcc()]) != model_fingerprint([GccCompiler()])

    def test_pass_order_changes_fingerprint(self):
        class ReversedGcc(GccCompiler):
            def pipeline(self, level):
                return PassPipeline(reversed(super().pipeline(level).passes))

        assert model_fingerprint([ReversedGcc()]) != model_fingerprint([GccCompiler()])
