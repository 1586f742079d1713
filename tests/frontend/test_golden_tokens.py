"""Golden token stream: one SHA-256 over every token the lexer produces
for the committed corpus fixture and the first 100 programs of each
generator at the CLI's default seed.

The digest was computed with the original character-at-a-time lexer, so
it pins the compiled scanner to that lexer's exact output on real
programs.  It also pins ``metrics.ctokens``, which the diversity metrics
rest on.  A change to any generator's program stream changes it too.
"""

import hashlib
import json
from pathlib import Path

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine
from repro.experiments.approaches import make_generator
from repro.frontend.lexer import tokenize
from repro.toolchains import default_compilers
from repro.utils.rng import SplittableRng

FIXTURE = Path(__file__).parents[2] / "benchmarks" / "fixtures" / "corpus_fixture.jsonl"

#: The CLI's default ``--seed``.
DEFAULT_SEED = 20250916

GOLDEN_TOKENS = 97407
GOLDEN_DIGEST = "b465436e4c18b2e330aefe2b350acf3f3e04a339f34eaeb85ce5188c65e0eee9"


def fixture_sources():
    with open(FIXTURE, encoding="utf-8") as f:
        records = [json.loads(line) for line in f]
    return [r["seed"]["source"] for r in records if r.get("kind") == "sig"]


def generator_sources(approach, budget=100):
    generator = make_generator(approach, SplittableRng(DEFAULT_SEED, f"cli-{approach}"))
    if approach != "llm4fp":
        # feedback-free: the campaign tests exactly this stream
        return [generator.generate().source for _ in range(budget)]
    engine = CampaignEngine(
        default_compilers(), CampaignConfig(budget=budget, seed=DEFAULT_SEED)
    )
    result = engine.run(generator)
    return [outcome.program.source for outcome in result.outcomes]


def test_golden_token_stream():
    sources = fixture_sources()
    assert len(sources) == 5
    for approach in ("varity", "llm4fp", "loops"):
        sources += generator_sources(approach)
    digest = hashlib.sha256()
    count = 0
    for source in sources:
        for t in tokenize(source).tokens:
            digest.update(f"{t.kind.name}\0{t.text}\0{t.line}\0{t.column}\n".encode())
            count += 1
        digest.update(b"\x1e")
    assert (count, digest.hexdigest()) == (GOLDEN_TOKENS, GOLDEN_DIGEST)
