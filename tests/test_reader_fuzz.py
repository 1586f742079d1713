"""Reader fuzz: a damaged checkpoint, corpus or queue file either loads or
fails with the reader's named error, never a bare traceback.

Each reader gets the same seeded damage: single-bit flips, truncations
and byte substitutions (biased toward JSON punctuation, digits and hex
letters, which keep a line decodable far more often than random bytes
do).  Every damaged file must load, or raise ``CampaignStoreError``,
``CorpusError``, ``QueueError`` or ``BackendError``.
"""

import random
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.corpus import CorpusError, TriggerCorpus
from repro.difftest.backend import BackendError
from repro.difftest.store import CampaignStoreError, load_result
from repro.fleet.queue import QueueError, load_jobs

CORPUS_FIXTURE = Path(__file__).parents[1] / "benchmarks" / "fixtures" / "corpus_fixture.jsonl"

QUEUE = (
    b'{"name": "nightly", "approach": "varity", "budget": 20, "seed": 1, "shards": 2}\n'
    b'{"approach": "loops", "budget": 8, "seed": 2, "backend": "process", "jobs": 2}\n'
)

CASES = 300

#: Bytes a substitution draws from: mostly ones that keep JSON decodable.
_SUBSTITUTES = b'{}[],:"-.0123456789abcdefxyzE \\'


def damaged(data: bytes, rng: random.Random) -> bytes:
    """``data`` after one seeded flip, truncation or substitution."""
    kind = rng.randrange(3)
    pos = rng.randrange(len(data))
    if kind == 0:
        return data[:pos] + bytes([data[pos] ^ (1 << rng.randrange(8))]) + data[pos + 1 :]
    if kind == 1:
        return data[:pos]
    return data[:pos] + bytes([rng.choice(_SUBSTITUTES)]) + data[pos + 1 :]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("fuzz") / "ckpt.jsonl"
    assert cli_main(
        ["run", "--approach", "varity", "--budget", "2", "--quiet", "--resume", str(path)]
    ) == 0
    return path.read_bytes()


def fuzz(tmp_path, data: bytes, load, named, seed: int) -> int:
    """Load ``CASES`` damaged copies of ``data``; returns how many failed
    with a named error (the rest loaded)."""
    rng = random.Random(seed)
    path = tmp_path / "damaged.jsonl"
    failures = 0
    for _ in range(CASES):
        path.write_bytes(damaged(data, rng))
        try:
            load(path)
        except named:
            failures += 1
    return failures


def test_checkpoint_reader(tmp_path, checkpoint):
    assert fuzz(tmp_path, checkpoint, load_result, CampaignStoreError, 1) > 0


def test_corpus_reader(tmp_path):
    data = CORPUS_FIXTURE.read_bytes()
    assert fuzz(tmp_path, data, TriggerCorpus.load, CorpusError, 2) > 0


def test_queue_reader(tmp_path):
    assert fuzz(tmp_path, QUEUE, load_jobs, (QueueError, BackendError), 3) > 0
