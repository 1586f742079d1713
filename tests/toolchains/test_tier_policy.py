"""The per-compiler tier-policy table and its toolchain wiring."""

import pytest

from repro.fp.formats import Precision
from repro.toolchains import (
    ALL_LEVELS,
    ClangCompiler,
    GccCompiler,
    NvccCompiler,
    OptLevel,
    TIER_PROFILES,
    default_compilers,
    tier_policy,
)

FAMILIES = ("gcc", "clang", "nvcc")


class TestPolicyTable:
    def test_baseline_placement_matches_the_documented_table(self):
        # docs/vectorization.md, "Toolchain placement"
        host_widths = {OptLevel.O2: 4, OptLevel.O3: 8, OptLevel.O3_FASTMATH: 8}
        for level in ALL_LEVELS:
            for family in ("gcc", "clang"):
                pol = tier_policy(family, level)
                assert pol.vector_width == host_widths.get(level, 0)
                assert pol.if_convert == (
                    level in (OptLevel.O3, OptLevel.O3_FASTMATH)
                )
            nvcc = tier_policy("nvcc", level)
            masked = level is not OptLevel.O0_NOFMA
            assert nvcc.vector_width == (32 if masked else 0)
            assert nvcc.if_convert == masked

    def test_baseline_never_enables_the_new_tiers(self):
        for family in FAMILIES:
            for level in ALL_LEVELS:
                pol = tier_policy(family, level, "baseline")
                assert not pol.int_guards
                assert not pol.vec_libm
                assert not pol.mixed_precision

    def test_full_profile_widths_and_if_convert_are_unchanged(self):
        for family in FAMILIES:
            for level in ALL_LEVELS:
                base = tier_policy(family, level, "baseline")
                full = tier_policy(family, level, "full")
                assert full.vector_width == base.vector_width
                assert full.if_convert == base.if_convert

    def test_full_profile_vec_libm_only_under_fast_math(self):
        for family in FAMILIES:
            for level in ALL_LEVELS:
                pol = tier_policy(family, level, "full")
                expected = (
                    level is OptLevel.O3_FASTMATH and pol.vector_width > 0
                )
                assert pol.vec_libm == expected

    def test_full_profile_int_guards_follow_if_conversion(self):
        for family in FAMILIES:
            for level in ALL_LEVELS:
                pol = tier_policy(family, level, "full")
                assert pol.int_guards == pol.if_convert

    def test_full_profile_mixed_precision_follows_the_vectorizer(self):
        for family in FAMILIES:
            for level in ALL_LEVELS:
                pol = tier_policy(family, level, "full")
                assert pol.mixed_precision == (pol.vector_width > 0)

    def test_unknown_profile_and_family_raise(self):
        with pytest.raises(KeyError, match="tier profile"):
            tier_policy("gcc", OptLevel.O2, "turbo")
        with pytest.raises(KeyError, match="compiler family"):
            tier_policy("icc", OptLevel.O2)

    def test_profiles_constant(self):
        assert TIER_PROFILES == ("baseline", "full")


class TestCompilerWiring:
    def test_default_compilers_forward_the_profile(self):
        for c in default_compilers():
            assert c.tiers == "baseline"
        for c in default_compilers(tiers="full"):
            assert c.tiers == "full"

    @pytest.mark.parametrize("tiers", TIER_PROFILES)
    def test_level_classes(self, tiers):
        # Levels with equal cache tokens share one (pipeline, environment)
        # pair; the engine's pass memo, triage's bisection memo and the
        # corpus model fingerprint all rest on this partition.
        def classes(compiler):
            by_token: dict = {}
            for level in ALL_LEVELS:
                by_token.setdefault(compiler.cache_token(level), []).append(str(level))
            return list(by_token.values())

        host = [["O0_nofma", "O0"], ["O1"], ["O2"], ["O3"], ["O3_fastmath"]]
        assert classes(GccCompiler(tiers=tiers)) == host
        assert classes(ClangCompiler(tiers=tiers)) == host
        assert classes(NvccCompiler(tiers=tiers)) == [
            ["O0_nofma"],
            ["O0", "O1", "O2", "O3", "O3_fastmath"],
        ]
        assert classes(NvccCompiler(Precision.SINGLE, tiers=tiers)) == [
            ["O0_nofma"],
            ["O0", "O1", "O2", "O3"],
            ["O3_fastmath"],
        ]

    @pytest.mark.parametrize(
        "cls,libname", [(GccCompiler, "libmvec"), (ClangCompiler, "sleef")]
    )
    def test_host_veclibm_attaches_at_fastmath_only(self, cls, libname):
        full = cls(tiers="full")
        for level in ALL_LEVELS:
            env = full.environment(level)
            if level is OptLevel.O3_FASTMATH:
                assert env.veclibm is not None and env.veclibm.name == libname
            else:
                assert env.veclibm is None
        for level in ALL_LEVELS:
            assert cls().environment(level).veclibm is None

    def test_nvcc_veclibm_only_in_the_fast32_environment(self):
        from repro.fp.formats import Precision

        # SIMT intrinsics follow CUDA fast math's single-precision scope:
        # a double-precision kernel keeps scalar CUDA libm even at
        # O3_fastmath under the full profile.
        full32 = NvccCompiler(precision=Precision.SINGLE, tiers="full")
        env = full32.environment(OptLevel.O3_FASTMATH)
        assert env.veclibm is not None and env.veclibm.name == "simt-intrinsic"
        for level in ALL_LEVELS:
            if level is not OptLevel.O3_FASTMATH:
                assert full32.environment(level).veclibm is None
        full64 = NvccCompiler(tiers="full")
        assert full64.environment(OptLevel.O3_FASTMATH).veclibm is None
        base32 = NvccCompiler(precision=Precision.SINGLE)
        assert base32.environment(OptLevel.O3_FASTMATH).veclibm is None

    def test_environment_describe_names_the_vector_library(self):
        env = GccCompiler(tiers="full").environment(OptLevel.O3_FASTMATH)
        assert "veclibm=libmvec" in env.describe()
