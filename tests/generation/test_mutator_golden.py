"""Golden mutator output: one SHA-256 over the mutated sources of a fixed
set of seeds, across every mutation operator.

Mutation callbacks draw from the RNG at each node they visit, so the
digest pins both what each operator does and the exact order in which
the AST rewrites visit nodes.  Each operator runs on its own over every
seed, and ``Mutator.mutate`` runs with and without each prompt focus
line.  The example programs nest loops, conditionals that declare
locals in both branches, ternaries, casts, array initializers and
multi-declarator declarations, so a visit-order slip anywhere in the
tree changes the digest.
"""

import hashlib

from repro.fp.formats import Precision
from repro.frontend.parser import parse_program
from repro.frontend.printer import print_c
from repro.generation.llm.base import GenerationConfig
from repro.generation.llm.mutator import Mutator, _fp_scalars, _MutState
from repro.generation.prompts import MUTATION_STRATEGIES
from repro.utils.rng import SplittableRng

MAIN = """
int main(int argc, char **argv) {
  compute(atof(argv[1]), atof(argv[2]), atoi(argv[3]));
  return 0;
}
"""

EXAMPLES = (
    """
#include <stdio.h>
#include <stdlib.h>
#include <math.h>

void compute(double x, double y, int n) {
  double comp = x * 0.5;
  double t = sin(x) * cos(y), u = 1.25, w[3] = {0.5, x, 2.0};
  comp += t;
  comp -= 0.125 * t;
  for (int i = 0; i < n && comp < 1.0e6; ++i) {
    comp += tanh(x + i) / (fabs(y) + 1.5);
    if (comp > 2.5) {
      double v = atan(cos(comp * 0.75) + 1.0);
      comp -= v * 0.25;
    } else {
      comp *= 1.0 + 0.5 * erf(w[i % 3]);
    }
  }
  comp = comp * u + (y > 0.0 ? sin(y * 0.3) : cos(-y));
  printf("%.17g\\n", comp);
}
"""
    + MAIN,
    """
#include <stdio.h>
#include <stdlib.h>
#include <math.h>

void compute(double a, double b, int m) {
  double comp = 0.0;
  double acc = b;
  int k = 0;
  while (k < m) {
    acc = acc * 0.5 + sqrt(fabs(a) + 1.0);
    for (int j = 0; j < 3; j++) {
      acc += (double)j * exp(-0.1 * acc);
    }
    k++;
  }
  {
    double inner = acc / (1.0 + fabs(a));
    comp += inner - cbrt(b * 2.0 + 0.125);
  }
  if (acc < 1.0) {
    double lo = acc * 0.5;
    comp += lo;
  } else {
    double hi = acc * 0.25;
    if (hi > 2.0) {
      double top = sqrt(hi);
      comp -= top;
    } else {
      double bot = hi * hi;
      comp += bot;
    }
  }
  comp += acc * 0.01;
  comp /= 1.5 + tanh(sin(cos(a * b)));
  printf("%.17g\\n", comp);
}
"""
    + MAIN,
)

SEEDS = range(8)

#: Every operator the mutator can apply, including the ones ``mutate``
#: always runs (seed thinning, renaming).
OPS = (
    "_perturb_constants",
    "_swap_functions",
    "_nest_expression",
    "_wrap_in_loop",
    "_wrap_in_conditional",
    "_insert_transcendental",
    "_insert_fma_chain",
    "_insert_guarded_div",
    "_thin_seed",
    "_drop_update",
    "_graft_pattern",
    "_reorder_statements",
    "_insert_intermediate",
)

GOLDEN_DIGEST = "ea1297f27861a5ba9d6ec08f367c490e6c6dc629db8e7310c280c60dda483962"


def _digest() -> str:
    mutator = Mutator(GenerationConfig())
    mutator._precision = Precision.DOUBLE
    digest = hashlib.sha256()
    for source in EXAMPLES:
        unit = parse_program(source)
        for seed in SEEDS:
            for name in OPS:
                state = _MutState(SplittableRng(seed, name), scalars=_fp_scalars(unit))
                op = getattr(mutator, name)
                out = mutator._on_compute(unit, lambda block: op(state, block))
                digest.update(f"{name}\0{print_c(out)}\0{state.applied}\n".encode())
            state = _MutState(SplittableRng(seed, "rename"), scalars=_fp_scalars(unit))
            out = mutator._rename_locals(state, unit)
            digest.update(f"rename\0{print_c(out)}\n".encode())
            for focus in (None, *MUTATION_STRATEGIES):
                result = mutator.mutate(
                    SplittableRng(seed, "mutate"), source, Precision.DOUBLE, focus
                )
                digest.update(f"mutate\0{focus}\0{result}\n".encode())
    return digest.hexdigest()


def test_golden_mutator_output():
    assert _digest() == GOLDEN_DIGEST
