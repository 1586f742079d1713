"""Single-program testing and the campaign loop."""

import pytest

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine
from repro.difftest.harness import run_campaign
from repro.difftest.report import CampaignReport
from repro.generation.program import GeneratedProgram
from repro.toolchains import ClangCompiler, GccCompiler, NvccCompiler
from repro.utils.rng import SplittableRng

TRANSCENDENTAL = """
#include <stdio.h>
#include <math.h>
void compute(double a, double b, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    comp += sin(a + i) * b;
  }
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  compute(atof(argv[1]), atof(argv[2]), atoi(argv[3]));
  return 0;
}
"""

PURE_ARITH = """
#include <stdio.h>
void compute(double a, double b) {
  double comp = a + b;
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  compute(atof(argv[1]), atof(argv[2]));
  return 0;
}
"""

BROKEN = "void compute( {"

TRAPPING = """
#include <stdio.h>
void compute(double a, int n) {
  double t[2];
  t[0] = a;
  double comp = t[n];
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  compute(atof(argv[1]), atoi(argv[2]));
  return 0;
}
"""


def harness(budget=4):
    compilers = [GccCompiler(), ClangCompiler(), NvccCompiler()]
    return CampaignEngine(compilers, CampaignConfig(budget=budget))


def prog(source, inputs):
    return GeneratedProgram(source=source, inputs=inputs)


class TestHarness:
    def test_transcendental_triggers_host_device(self):
        outcome = harness().test_program(0, prog(TRANSCENDENTAL, (0.37, 1.91, 23)))
        assert outcome.triggered
        pairs = {c.pair for c in outcome.inconsistent_comparisons}
        assert ("gcc", "nvcc") in pairs or ("clang", "nvcc") in pairs

    def test_pure_addition_fully_consistent(self):
        outcome = harness().test_program(0, prog(PURE_ARITH, (1.25, 2.5)))
        assert not outcome.triggered
        # all 3 pairs x 6 levels comparable and consistent
        assert len(outcome.comparisons) == 18

    def test_parse_failure_no_comparisons(self):
        outcome = harness().test_program(0, prog(BROKEN, ()))
        assert not outcome.triggered
        assert outcome.comparisons == []
        assert all(not ok for ok in outcome.compiled.values())

    def test_trap_removes_binary_from_comparisons(self):
        outcome = harness().test_program(0, prog(TRAPPING, (1.0, 7)))
        assert outcome.comparisons == []  # every run trapped
        assert all(not ok for ok in outcome.ran.values())

    def test_signatures_recorded_per_binary(self):
        outcome = harness().test_program(0, prog(PURE_ARITH, (1.0, 2.0)))
        assert "gcc/O0_nofma" in outcome.signatures
        assert "nvcc/O3_fastmath" in outcome.signatures
        assert len(outcome.signatures) == 18

    def test_needs_two_compilers(self):
        with pytest.raises(ValueError):
            CampaignEngine([GccCompiler()], CampaignConfig(budget=1))

    def test_unique_names_required(self):
        with pytest.raises(ValueError):
            CampaignEngine(
                [GccCompiler(), GccCompiler()], CampaignConfig(budget=1)
            )


class _StubGenerator:
    name = "stub"

    def __init__(self, programs):
        self._programs = list(programs)
        self.successes = []

    def generate(self):
        return self._programs.pop(0)

    def notify_success(self, program):
        self.successes.append(program)


class TestRunCampaign:
    def test_feedback_called_on_trigger(self):
        programs = [
            prog(TRANSCENDENTAL, (0.37, 1.91, 23)),
            prog(PURE_ARITH, (1.0, 2.0)),
        ]
        gen = _StubGenerator(programs)
        compilers = [GccCompiler(), ClangCompiler(), NvccCompiler()]
        result = run_campaign(gen, compilers, CampaignConfig(budget=2))
        assert len(gen.successes) == 1
        assert result.budget == 2
        assert result.total_comparisons == 3 * 6 * 2

    def test_report_rates(self):
        gen = _StubGenerator([prog(TRANSCENDENTAL, (0.37, 1.91, 23))])
        compilers = [GccCompiler(), ClangCompiler(), NvccCompiler()]
        result = run_campaign(gen, compilers, CampaignConfig(budget=1))
        report = CampaignReport(result)
        summary = report.summary()
        assert 0.0 < summary["inconsistency_rate"] <= 1.0
        assert summary["inconsistencies"] == result.inconsistencies

    def test_progress_callback(self):
        seen = []
        gen = _StubGenerator([prog(PURE_ARITH, (1.0, 2.0))])
        compilers = [GccCompiler(), NvccCompiler()]
        run_campaign(
            gen,
            compilers,
            CampaignConfig(budget=1),
            progress=lambda i, o: seen.append(i),
        )
        assert seen == [0]

    def test_campaign_deterministic(self):
        from repro.experiments.approaches import make_generator

        def run_once():
            rng = SplittableRng(99, "det")
            gen = make_generator("llm4fp", rng)
            compilers = [GccCompiler(), ClangCompiler(), NvccCompiler()]
            return run_campaign(gen, compilers, CampaignConfig(budget=6))

        r1, r2 = run_once(), run_once()
        assert r1.inconsistencies == r2.inconsistencies
        assert [o.program.source for o in r1.outcomes] == [
            o.program.source for o in r2.outcomes
        ]


class TestVsO0Nofma:
    def test_nvcc_differs_from_baseline_hosts_do_not(self):
        # FMA-sensitive shape: nvcc contracts at O0..O3, hosts never do.
        src = """
#include <stdio.h>
void compute(double a, double b, double c) {
  double comp = a * b + c;
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  compute(atof(argv[1]), atof(argv[2]), atof(argv[3]));
  return 0;
}
"""
        gen = _StubGenerator([prog(src, (1.0 + 2.0**-30, 1.0 + 2.0**-30, -1.0))])
        # Force full contraction so the single multiply-add site fuses.
        compilers = [GccCompiler(), ClangCompiler(), NvccCompiler(fmad_prob=1.0)]
        result = run_campaign(gen, compilers, CampaignConfig(budget=1))
        rates = CampaignReport(result).vs_o0_nofma()
        assert sum(rates["nvcc"].values()) > 0
        assert sum(rates["gcc"].values()) == 0
        assert sum(rates["clang"].values()) == 0
