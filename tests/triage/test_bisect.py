"""Bisector: pass attribution, environment deltas, determinism."""

import pytest

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine
from repro.errors import TriageError
from repro.toolchains import (
    ClangCompiler,
    GccCompiler,
    NvccCompiler,
    OptLevel,
    default_compilers,
)
from repro.triage import (
    bisect_cell,
    bisect_signature,
    distilled_trigger,
    signatures_of,
)

#: Host-host divergence: clang's front end folds sin(1.01) with the
#: correctly-rounded model at every level, gcc calls glibc at run time,
#: and the two values differ by an ulp at this point.
FOLD_TRIGGER = """
#include <stdio.h>
#include <math.h>
void compute(double x) {
  double k = sin(1.01);
  printf("%.17g\\n", k + x);
}
int main(int argc, char **argv) { compute(atof(argv[1])); return 0; }
"""

#: Pure environment divergence: no pipeline touches sin(x) at O0_nofma,
#: but glibc and the CUDA Math Library round 2.37 differently.
LIBM_TRIGGER = """
#include <stdio.h>
#include <math.h>
void compute(double x) {
  printf("%.17g\\n", sin(x));
}
int main(int argc, char **argv) { compute(atof(argv[1])); return 0; }
"""


@pytest.fixture(scope="module")
def compilers():
    return default_compilers()


def test_distilled_trigger_names_fma_contraction(compilers):
    """The acceptance scenario: the distilled trigger's host-vs-device
    divergence is pinned on nvcc's FMA contraction, with the libm swap as
    the first observable environment delta."""
    program = distilled_trigger()
    engine = CampaignEngine(compilers, CampaignConfig(budget=1))
    outcome = engine.test_program(0, program)
    sig = next(
        s
        for s in signatures_of(outcome)
        if s.pair == ("gcc", "nvcc") and s.level is OptLevel.O0
    )
    result = bisect_signature(program.source, program.inputs, sig, compilers)
    assert result.responsible_pass is not None
    assert result.responsible_pass.name == "fma-contract"
    assert result.responsible_pass.compiler == "nvcc"
    assert result.responsible == "nvcc:fma-contract"
    assert result.env_delta is not None
    assert result.env_delta.field == "libm"
    assert result.env_delta.label() == "libm: glibc -> cuda"
    # The replay trace records the flip at nvcc's pass, not before it.
    assert any("fma-contract" in line and "DIVERGES" in line for line in result.trace)


def test_host_pair_divergence_names_constant_fold():
    result = bisect_cell(
        FOLD_TRIGGER, (0.25,), GccCompiler(), ClangCompiler(), OptLevel.O0
    )
    assert result.responsible == "clang:constant-fold"
    # Same environment on both sides: no delta to report.
    assert result.env_deltas == ()
    assert result.env_delta is None


def test_environment_only_divergence(compilers):
    """With empty pipelines on both sides (O0_nofma) the bisector must
    blame the environment, and name libm as the delta that flips it."""
    result = bisect_cell(
        LIBM_TRIGGER, (2.37,), GccCompiler(), NvccCompiler(), OptLevel.O0_NOFMA
    )
    assert result.responsible_pass is None
    assert result.env_delta is not None
    assert result.env_delta.field == "libm"
    assert result.responsible == "environment(libm)"


def test_bisection_is_deterministic(compilers):
    program = distilled_trigger()
    engine = CampaignEngine(compilers, CampaignConfig(budget=1))
    outcome = engine.test_program(0, program)
    sig = signatures_of(outcome)[0]
    first = bisect_signature(program.source, program.inputs, sig, compilers)
    second = bisect_signature(program.source, program.inputs, sig, compilers)
    assert first == second


def test_unknown_compiler_is_rejected(compilers):
    program = distilled_trigger()
    engine = CampaignEngine(compilers, CampaignConfig(budget=1))
    outcome = engine.test_program(0, program)
    sig = signatures_of(outcome)[0]
    hosts_only = [GccCompiler(), ClangCompiler()]
    with pytest.raises(TriageError):
        bisect_signature(program.source, program.inputs, sig, hosts_only)


def test_frontend_failure_is_rejected():
    with pytest.raises(TriageError):
        bisect_cell(
            "not a program", (1.0,), GccCompiler(), NvccCompiler(), OptLevel.O0
        )


# -- the vectorization tier ---------------------------------------------------

#: A dot-product reduction over cancellation-heavy values: gcc's adjacent
#: and clang's ladder lane reductions round differently at O2/O3, so the
#: host pair diverges with equal environments — a vector-reduction kind.
VECTOR_TRIGGER = """
#include <stdio.h>
#include <stdlib.h>
#include <math.h>
void compute(double *a, double s, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    comp += a[i] * s + sin(s + i);
  }
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  double in_a[16] = {atof(argv[1]), atof(argv[2]), atof(argv[3]), atof(argv[4]),
                     atof(argv[5]), atof(argv[6]), atof(argv[7]), atof(argv[8]),
                     atof(argv[9]), atof(argv[10]), atof(argv[11]), atof(argv[12]),
                     atof(argv[13]), atof(argv[14]), atof(argv[15]), atof(argv[16])};
  compute(in_a, atof(argv[17]), atoi(argv[18]));
  return 0;
}
"""

VECTOR_INPUTS = (
    (
        -2.161244991344777, 16.744850325199423, -2140.123310536274,
        -667.4296376438043, 33.12432414736006, 8604.15565518937,
        4.366101377828139, -373427.6696042438, -13.557686496180793,
        -856.9062739358501, 2.8392700153319588, 46.56981918402771,
        6.836221364114393, 21.37550366737585, -134.8944261290064,
        294524.6182501556,
    ),
    4.192660422628809,
    16,
)


def _vector_outcome(compilers):
    from repro.generation.program import GeneratedProgram

    engine = CampaignEngine(compilers, CampaignConfig(budget=1))
    return engine.test_program(
        0, GeneratedProgram(source=VECTOR_TRIGGER, inputs=VECTOR_INPUTS)
    )


def test_vector_reduction_kind_reaches_signatures(compilers):
    outcome = _vector_outcome(compilers)
    assert outcome.triggered
    vec_sigs = [s for s in signatures_of(outcome) if s.kind == "vector-reduction"]
    assert vec_sigs, "host pair at O2/O3 should tag as vector-reduction"
    # the tag applies only where environments coincide (host-host cells)
    assert all(s.pair == ("gcc", "clang") for s in vec_sigs)


def test_bisection_attributes_vector_flip_to_vectorize(compilers):
    """The acceptance scenario: a vector-reduction flip is pinned on the
    vectorize pass with no change to the prefix-replay logic.  The
    pipelines run loop-unroll after vectorize, so the walk stops at the
    flip before it reaches the unroller."""
    outcome = _vector_outcome(compilers)
    sig = next(
        s for s in signatures_of(outcome) if s.kind == "vector-reduction"
    )
    result = bisect_signature(
        VECTOR_TRIGGER, VECTOR_INPUTS, sig, compilers
    )
    assert result.responsible_pass is not None
    assert result.responsible_pass.name == "vectorize"
    assert result.env_deltas == ()  # host pair: same environment
    last = [line for line in result.trace if line.startswith("passes")][-1]
    assert "+ gcc:vectorize" in last and "DIVERGES" in last


def test_reducer_preserves_vector_reduction_kind(compilers):
    """Delta debugging keeps the structural kind: every candidate the
    reducer accepts still diverges as vector-reduction in the same cell."""
    from repro.triage import reduce_program

    outcome = _vector_outcome(compilers)
    sig = next(
        s for s in signatures_of(outcome) if s.kind == "vector-reduction"
    )
    reduction = reduce_program(
        VECTOR_TRIGGER, VECTOR_INPUTS, sig, compilers, max_tests=200
    )
    assert reduction.reduced_nodes <= reduction.original_nodes
    # the reduced program still exhibits the same vector-reduction cell
    from repro.triage.oracle import PairOracle
    from repro.triage.oracle import compilers_by_name

    by_name = compilers_by_name(compilers)
    oracle = PairOracle(
        by_name[sig.compiler_a], by_name[sig.compiler_b], sig.level
    )
    assert oracle.matches(reduction.reduced_source, VECTOR_INPUTS, sig)


# -- the masked-lane (if-conversion) kind ---------------------------------------

#: A conditional reduction body: at O3 both hosts if-convert it to masked
#: select form and widen to 8 lanes, diverging only through their
#: horizontal reduction styles — a masked-lane kind.  At O2 neither host
#: if-converts, so the loop stays a scalar branch on both sides.
MASKED_TRIGGER = """
#include <stdio.h>
#include <stdlib.h>
#include <math.h>
void compute(double *a, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    if (a[i] > 0.0) {
      comp += a[i];
    }
  }
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  double in_a[16] = {atof(argv[1]), atof(argv[2]), atof(argv[3]), atof(argv[4]),
                     atof(argv[5]), atof(argv[6]), atof(argv[7]), atof(argv[8]),
                     atof(argv[9]), atof(argv[10]), atof(argv[11]), atof(argv[12]),
                     atof(argv[13]), atof(argv[14]), atof(argv[15]), atof(argv[16])};
  compute(in_a, atoi(argv[17]));
  return 0;
}
"""

#: the cancellation-heavy array alone; the guarded kernel takes no scalar
MASKED_INPUTS = (VECTOR_INPUTS[0], 16)


def _masked_outcome(compilers):
    from repro.generation.program import GeneratedProgram

    engine = CampaignEngine(compilers, CampaignConfig(budget=1))
    return engine.test_program(
        0, GeneratedProgram(source=MASKED_TRIGGER, inputs=MASKED_INPUTS)
    )


def test_masked_lane_kind_reaches_signatures(compilers):
    outcome = _masked_outcome(compilers)
    assert outcome.triggered
    masked = [s for s in signatures_of(outcome) if s.kind == "masked-lane"]
    assert masked, "host pair at O3 should tag as masked-lane"
    # only host-host cells have equal environments, and only O3/fast-math
    # if-convert on the hosts
    assert all(s.pair == ("gcc", "clang") for s in masked)
    assert all(
        s.level in (OptLevel.O3, OptLevel.O3_FASTMATH) for s in masked
    )


def test_bisection_attributes_masked_flip(compilers):
    """The acceptance scenario: the existing prefix-replay bisector pins a
    masked-lane flip on the widening (vectorize) or the conversion
    (if-convert) with no bisector changes — and never on loop-unroll."""
    outcome = _masked_outcome(compilers)
    sig = next(s for s in signatures_of(outcome) if s.kind == "masked-lane")
    result = bisect_signature(MASKED_TRIGGER, MASKED_INPUTS, sig, compilers)
    assert result.responsible_pass is not None
    assert result.responsible_pass.name in ("vectorize", "if-convert")
    assert result.env_deltas == ()  # host pair: same environment
    trace = "\n".join(result.trace)
    # the if-convert prefix was replayed on the walk to the flip
    assert "if-convert" in trace


def test_reducer_preserves_masked_lane_kind(compilers):
    from repro.triage import reduce_program
    from repro.triage.oracle import PairOracle, compilers_by_name

    outcome = _masked_outcome(compilers)
    sig = next(s for s in signatures_of(outcome) if s.kind == "masked-lane")
    reduction = reduce_program(
        MASKED_TRIGGER, MASKED_INPUTS, sig, compilers, max_tests=200
    )
    assert reduction.reduced_nodes <= reduction.original_nodes
    by_name = compilers_by_name(compilers)
    oracle = PairOracle(
        by_name[sig.compiler_a], by_name[sig.compiler_b], sig.level
    )
    assert oracle.matches(reduction.reduced_source, MASKED_INPUTS, sig)
