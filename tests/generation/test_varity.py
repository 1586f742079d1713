"""Varity baseline generator: validity, determinism, character."""

from repro.frontend.parser import parse_program
from repro.frontend.sema import check_program
from repro.generation.varity import VarityGenerator
from repro.utils.rng import SplittableRng


def make(seed=1):
    return VarityGenerator(SplittableRng(seed))


class TestValidity:
    def test_programs_parse_and_check(self):
        gen = make()
        ok = 0
        for _ in range(40):
            p = gen.generate()
            try:
                check_program(parse_program(p.source))
                ok += 1
            except Exception:
                pass
        # Varity emits well-formed programs by construction.
        assert ok >= 38

    def test_has_compute_and_main(self):
        p = make().generate()
        unit = parse_program(p.source)
        assert {f.name for f in unit.functions} == {"compute", "main"}

    def test_prints_result(self):
        p = make().generate()
        assert 'printf("%.17g\\n", comp);' in p.source

    def test_inputs_match_params(self):
        gen = make(7)
        for _ in range(20):
            p = gen.generate()
            unit = parse_program(p.source)
            compute = unit.function("compute")
            assert len(p.inputs) == len(compute.params)
            for param, value in zip(compute.params, p.inputs):
                if param.type.pointers:
                    assert isinstance(value, tuple)
                elif param.type.base == "int":
                    assert isinstance(value, int)
                else:
                    assert isinstance(value, float)


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        g1, g2 = make(42), make(42)
        for _ in range(5):
            assert g1.generate().source == g2.generate().source

    def test_distinct_programs_in_sequence(self):
        gen = make(3)
        sources = {gen.generate().source for _ in range(20)}
        assert len(sources) >= 19  # no degenerate repetition

    def test_inputs_unique_per_program(self):
        gen = make(5)
        inputs = [gen.generate().inputs for _ in range(10)]
        assert len(set(inputs)) == len(inputs)


class TestCharacter:
    def test_wide_input_profile(self):
        gen = make(11)
        magnitudes = []
        for _ in range(60):
            for v in gen.generate().inputs:
                if isinstance(v, float) and v != 0.0:
                    magnitudes.append(abs(v))
        assert any(m > 1e50 for m in magnitudes)  # huge inputs occur
        assert any(m < 1e-50 for m in magnitudes)  # tiny inputs occur

    def test_unguarded_divisions_exist(self):
        gen = make(13)
        assert any("/" in gen.generate().source for _ in range(10))

    def test_meta_strategy(self):
        assert make().generate().strategy == "varity"
