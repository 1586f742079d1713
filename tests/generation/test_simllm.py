"""SimLLM behaviour: validity, prompt sensitivity, penalties, mutation."""

import pytest

from repro.difftest.record import ProgramOutcome
from repro.frontend import ast
from repro.frontend.parser import parse_program
from repro.frontend.sema import check_program
from repro.fp.formats import Precision
from repro.generation.llm.base import GenerationConfig, LatencyModel, SuccessSet
from repro.generation.llm.generator import LLMProgramGenerator
from repro.generation.llm.mutator import Mutator
from repro.generation.llm.simllm import SimLLM
from repro.generation.prompts import direct_prompt, grammar_prompt, mutation_prompt
from repro.utils.rng import SplittableRng

EXAMPLE = """#include <stdio.h>
#include <stdlib.h>
#include <math.h>

void compute(double x, double y, int n) {
  double comp = 0.0;
  double t = sin(x) * cos(y);
  for (int i = 0; i < n; ++i) {
    comp += t * x + 0.5;
  }
  printf("%.17g\\n", comp);
}

int main(int argc, char **argv) {
  compute(atof(argv[1]), atof(argv[2]), atoi(argv[3]));
  return 0;
}
"""


def llm(seed=1, **cfg):
    config = GenerationConfig(**cfg) if cfg else None
    return SimLLM(SplittableRng(seed), config=config)


class TestValidity:
    @pytest.mark.parametrize("builder", [direct_prompt, grammar_prompt])
    def test_outputs_valid_programs(self, builder):
        model = llm()
        for _ in range(25):
            source = model.complete(builder())
            check_program(parse_program(source))  # must not raise

    def test_mutations_valid(self):
        model = llm(3)
        prompt = mutation_prompt(EXAMPLE)
        for _ in range(15):
            check_program(parse_program(model.complete(prompt)))

    def test_output_is_plain_code(self):
        source = llm().complete(grammar_prompt())
        assert not source.startswith("```")
        assert source.startswith("#include")


class TestPromptSensitivity:
    def test_single_precision_respected(self):
        source = llm(5).complete(grammar_prompt(Precision.SINGLE))
        unit = parse_program(source)
        compute = unit.function("compute")
        fp_params = [p for p in compute.params if p.type.base != "int"]
        assert all(p.type.base == "float" for p in fp_params)

    def test_grammar_prompt_avoids_non_grammar_constructs(self):
        model = llm(7)
        for _ in range(20):
            source = model.complete(grammar_prompt())
            unit = parse_program(source)
            stmts = list(ast.walk_stmts(unit.function("compute").body))
            assert not any(isinstance(s, ast.While) for s in stmts)

    def test_direct_prompt_sometimes_freer(self):
        model = llm(11)
        saw_free = False
        for _ in range(40):
            source = model.complete(direct_prompt())
            if "while (" in source or "?" in source:
                saw_free = True
                break
        assert saw_free

    def test_mutation_preserves_structure(self):
        source = llm(13).complete(mutation_prompt(EXAMPLE))
        unit = parse_program(source)
        compute = unit.function("compute")
        assert [p.type.base for p in compute.params] == ["double", "double", "int"]

    def test_mutation_changes_program(self):
        source = llm(17).complete(mutation_prompt(EXAMPLE))
        assert source.strip() != EXAMPLE.strip()

    def test_unparsable_example_falls_back(self):
        source = llm(19).complete(mutation_prompt("not C at all {{{"))
        check_program(parse_program(source))  # fresh valid program


class TestSampling:
    def test_deterministic_given_seed(self):
        a = llm(23).complete(grammar_prompt())
        b = llm(23).complete(grammar_prompt())
        assert a == b

    def test_calls_counted(self):
        model = llm()
        model.complete(direct_prompt())
        model.complete(direct_prompt())
        assert model.calls == 2

    def test_latency_model_charges(self):
        latency = LatencyModel(SplittableRng(1), mean_seconds=2.0)
        model = SimLLM(SplittableRng(2), latency=latency)
        model.complete(direct_prompt())
        model.complete(direct_prompt())
        assert latency.calls == 2
        assert model.simulated_latency_seconds > 1.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GenerationConfig(temperature=0.0)
        with pytest.raises(ValueError):
            GenerationConfig(frequency_penalty=3.0)


class TestSuccessSet:
    def test_add_and_sample(self):
        s = SuccessSet(SplittableRng(1))
        s.add("prog-a")
        assert s.sample() == "prog-a"

    def test_deduplicates(self):
        s = SuccessSet(SplittableRng(1))
        s.add("x")
        s.add("x")
        assert len(s) == 1

    def test_empty_sample_raises(self):
        with pytest.raises(LookupError):
            SuccessSet(SplittableRng(1)).sample()

    def test_capacity_bounds(self):
        s = SuccessSet(SplittableRng(1), capacity=3)
        for i in range(5):
            s.add(f"p{i}")
        assert len(s) == 3


class TestLLMProgramGenerator:
    def test_direct_config_never_mutates(self):
        gen = LLMProgramGenerator(
            "direct-prompt",
            llm(29),
            SplittableRng(29),
            use_grammar=False,
            use_feedback=False,
        )
        p = gen.generate()
        gen.observe(ProgramOutcome(index=0, program=p, triggered=True))  # ignored
        strategies = {gen.generate().strategy for _ in range(10)}
        assert strategies == {"direct"}

    def test_llm4fp_first_program_is_grammar(self):
        gen = LLMProgramGenerator(
            "llm4fp", llm(31), SplittableRng(31), use_grammar=True, use_feedback=True
        )
        assert gen.generate().strategy == "grammar"

    def test_llm4fp_mutates_after_success(self):
        gen = LLMProgramGenerator(
            "llm4fp",
            llm(37),
            SplittableRng(37),
            use_grammar=True,
            use_feedback=True,
            mutation_prob=1.0,
        )
        p = gen.generate()
        gen.observe(ProgramOutcome(index=0, program=p, triggered=True))
        assert gen.generate().strategy == "mutation"

    def test_inputs_match_signature(self):
        gen = LLMProgramGenerator(
            "grammar-guided", llm(41), SplittableRng(41), use_grammar=True
        )
        for _ in range(10):
            p = gen.generate()
            unit = parse_program(p.source)
            assert len(p.inputs) == len(unit.function("compute").params)

    def test_mutation_prob_validated(self):
        with pytest.raises(ValueError):
            LLMProgramGenerator(
                "x", llm(), SplittableRng(1), mutation_prob=1.5
            )


class TestMutator:
    def test_returns_none_on_garbage(self):
        m = Mutator(GenerationConfig())
        assert m.mutate(SplittableRng(1), "not a program", Precision.DOUBLE) is None

    def test_mutations_recorded(self):
        m = Mutator(GenerationConfig())
        out = m.mutate(SplittableRng(2), EXAMPLE, Precision.DOUBLE)
        assert out is not None
        source, applied = out
        assert applied  # at least one strategy applied
        check_program(parse_program(source))

    def test_mutation_keeps_transcendental_sites(self):
        m = Mutator(GenerationConfig())
        kept = 0
        for seed in range(10):
            out = m.mutate(SplittableRng(seed), EXAMPLE, Precision.DOUBLE)
            if out is None:
                continue
            source, _ = out
            if any(fn in source for fn in ("sin(", "cos(", "tanh(", "atan(", "erf(", "cbrt(")):
                kept += 1
        assert kept >= 8  # effective trigger patterns survive mutation
