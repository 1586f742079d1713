"""Reducer: determinism, strict shrinkage, dead-code removal, validation."""

import pytest

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine
from repro.errors import TriageError
from repro.execution.limits import DEFAULT_MAX_STEPS
from repro.frontend import ast
from repro.frontend.parser import parse_program
from repro.toolchains import OptLevel, default_compilers
from repro.toolchains.base import Binary
from repro.triage import (
    canonical_signature,
    distilled_trigger,
    reduce_program,
)
from repro.triage.oracle import PairOracle, compilers_by_name

#: The distilled trigger padded with statements irrelevant to the
#: divergence: dead arithmetic, a no-op branch, and an unused array.
PADDED = """
#include <stdio.h>
#include <stdlib.h>
#include <math.h>

void compute(double x, double coef, int steps) {
  double junk = x * 2.0;
  double comp = 0.0;
  double unused[4] = {1.0, 2.0, 3.0, 4.0};
  junk += unused[2];
  double k = sin(0.731);
  if (junk > 100.0) {
    comp = junk;
  }
  for (int i = 0; i < steps; ++i) {
    comp += sin(x + i) * coef + k;
  }
  printf("%.17g\\n", comp);
}

int main(int argc, char **argv) {
  compute(atof(argv[1]), atof(argv[2]), atoi(argv[3]));
  return 0;
}
"""


@pytest.fixture(scope="module")
def compilers():
    return default_compilers()


@pytest.fixture(scope="module")
def distilled_target(compilers):
    engine = CampaignEngine(compilers, CampaignConfig(budget=1))
    program = distilled_trigger()
    outcome = engine.test_program(0, program)
    assert outcome.triggered
    return program, canonical_signature(outcome)


def test_reduced_is_strictly_smaller_and_still_triggers(compilers, distilled_target):
    program, target = distilled_target
    result = reduce_program(program.source, program.inputs, target, compilers)
    assert result.shrunk
    assert result.reduced_nodes < result.original_nodes
    # The reduced program still exhibits the exact same inconsistency.
    by_name = compilers_by_name(compilers)
    oracle = PairOracle(
        by_name[target.compiler_a], by_name[target.compiler_b], target.level
    )
    assert oracle.matches(result.reduced_source, program.inputs, target)


def test_same_trigger_reduces_to_same_minimal_program(compilers, distilled_target):
    program, target = distilled_target
    first = reduce_program(program.source, program.inputs, target, compilers)
    second = reduce_program(program.source, program.inputs, target, compilers)
    assert first.reduced_source == second.reduced_source
    assert first.tests == second.tests
    assert first.accepted_edits == second.accepted_edits


def test_reduction_is_idempotent(compilers, distilled_target):
    program, target = distilled_target
    first = reduce_program(program.source, program.inputs, target, compilers)
    again = reduce_program(first.reduced_source, program.inputs, target, compilers)
    assert again.reduced_source == first.reduced_source


def test_dead_statements_are_removed(compilers):
    engine = CampaignEngine(compilers, CampaignConfig(budget=1))
    program = distilled_trigger()
    outcome = engine.test_program(
        0, type(program)(source=PADDED, inputs=program.inputs)
    )
    assert outcome.triggered
    target = canonical_signature(outcome)
    result = reduce_program(PADDED, program.inputs, target, compilers)
    assert "junk" not in result.reduced_source
    assert "unused" not in result.reduced_source
    assert "if (" not in result.reduced_source
    # The padded trigger reduces at least as far as the loop kernel.
    assert "sin" in result.reduced_source


def test_padded_and_plain_trigger_converge(compilers, distilled_target):
    """Padding with dead statements must not change the minimal program."""
    program, target = distilled_target
    plain = reduce_program(program.source, program.inputs, target, compilers)
    padded = reduce_program(PADDED, program.inputs, target, compilers)
    assert padded.reduced_source == plain.reduced_source


def test_non_trigger_is_rejected(compilers, distilled_target):
    _, target = distilled_target
    consistent = (
        "#include <stdio.h>\n"
        "void compute(double x, double coef, int steps) {\n"
        '  printf("%.17g\\n", x);\n'
        "}\n"
        "#include <stdlib.h>\n"
    )
    # (malformed source also goes through TriageError — via the oracle)
    with pytest.raises(TriageError):
        reduce_program(consistent, (0.37, 1.91, 23), target, compilers)


def test_test_budget_is_respected(compilers, distilled_target):
    program, target = distilled_target
    result = reduce_program(
        program.source, program.inputs, target, compilers, max_tests=5
    )
    assert result.tests <= 5
    # Budget-capped reduction still returns a valid (possibly unreduced)
    # program exhibiting the target.
    by_name = compilers_by_name(compilers)
    oracle = PairOracle(
        by_name[target.compiler_a], by_name[target.compiler_b], target.level
    )
    assert oracle.matches(result.reduced_source, program.inputs, target)


# -- the structural-edit substrate ------------------------------------------------


#: Indexes past its array when ``n >= 2``: every binary faults.
TRAPPING = """
#include <stdio.h>
#include <stdlib.h>
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


def test_oracle_skips_side_b_when_side_a_faults(compilers, monkeypatch):
    runs = 0
    run = Binary.run

    def counted(self, inputs, max_steps=DEFAULT_MAX_STEPS):
        nonlocal runs
        runs += 1
        return run(self, inputs, max_steps)

    monkeypatch.setattr(Binary, "run", counted)
    by_name = compilers_by_name(compilers)
    oracle = PairOracle(by_name["gcc"], by_name["nvcc"], OptLevel.O0_NOFMA)
    observation = oracle.observe(TRAPPING, (1.0, 7))
    assert not observation.ok
    assert runs == 1
    assert oracle.observe(TRAPPING, (1.0, 0)).ok  # in bounds: both sides run
    assert runs == 3


def test_ast_replace_at_roundtrip():
    unit = parse_program(PADDED)
    paths = [(path, node) for path, node in ast.walk_paths(unit)]
    assert paths[0] == ((), unit)
    for path, node in paths:
        assert ast.node_at(unit, path) is node
        # Replacing a node with itself rebuilds an equal tree.
        assert ast.replace_at(unit, path, node) == unit


def test_ast_node_count_matches_walk():
    unit = parse_program(PADDED)
    assert ast.node_count(unit) == len(list(ast.walk_paths(unit)))
    fn = unit.function("compute")
    assert ast.node_count(fn) < ast.node_count(unit)


@pytest.mark.parametrize("budget", [1, 5, 17, 60])
def test_reduction_evaluates_only_what_it_charges(
    compilers, distilled_target, monkeypatch, budget
):
    """Every oracle evaluation is a charged test, plus the one probe that
    checks the trigger before reduction starts: nothing runs
    speculatively."""
    program, target = distilled_target
    calls = 0
    observe = PairOracle.observe

    def counted(self, source, inputs):
        nonlocal calls
        calls += 1
        return observe(self, source, inputs)

    monkeypatch.setattr(PairOracle, "observe", counted)
    result = reduce_program(
        PADDED, program.inputs, target, compilers, max_tests=budget
    )
    assert calls == result.tests + 1
    assert result.tests <= budget
