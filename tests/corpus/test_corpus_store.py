"""The trigger corpus store: key codec, ingest/diff semantics, seed
minimization, durability, and the byte-determinism contract."""

import json

import pytest

from corpus_testlib import key_of, quiet_outcome, trigger_outcome
from repro.corpus import (
    CorpusError,
    TriggerCorpus,
    model_fingerprint,
    parse_key,
    signature_key,
)
from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine, EngineConfig
from repro.difftest.store import CampaignStore, load_result, merge_shard_stores
from repro.experiments.approaches import make_generator
from repro.toolchains import OptLevel, default_compilers
from repro.utils.rng import SplittableRng


class TestKeyCodec:
    def test_round_trip(self):
        kinds = ("masked-lane", "{Real, Real}")
        cells = ("gcc-clang@O3", "gcc-nvcc@O3 -ffast-math")
        key = signature_key(kinds, cells)
        assert parse_key(key) == (kinds, cells)

    def test_empty_signature_round_trips(self):
        assert parse_key(signature_key((), ())) == ((), ())

    def test_keys_are_compact_single_line(self):
        key = signature_key(("k",), ("c",))
        assert "\n" not in key and " " not in key

    def test_malformed_key_rejected(self):
        with pytest.raises(CorpusError, match="malformed signature key"):
            parse_key("not json at all")


class TestLifecycle:
    def test_open_creates_file_with_header(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        with TriggerCorpus(path) as corpus:
            assert len(corpus) == 0
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"kind": "corpus", "version": 1}

    def test_load_missing_path_is_empty(self, tmp_path):
        corpus = TriggerCorpus.load(tmp_path / "absent.jsonl")
        assert len(corpus) == 0
        assert corpus.seeds() == []
        assert not (tmp_path / "absent.jsonl").exists()

    def test_ingest_requires_open(self, tmp_path):
        corpus = TriggerCorpus.load(tmp_path / "corpus.jsonl")
        with pytest.raises(CorpusError, match="not open"):
            corpus.ingest([trigger_outcome()])

    def test_refuses_foreign_file(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("important notes, not a corpus\n")
        with pytest.raises(CorpusError, match="not a trigger corpus"):
            TriggerCorpus(path).open()
        assert path.read_text() == "important notes, not a corpus\n"

    def test_refuses_future_version(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        for version in ("99", "[1]"):
            path.write_text('{"kind":"corpus","version":%s}\n' % version)
            with pytest.raises(CorpusError, match="unsupported corpus version"):
                TriggerCorpus.load(path)

    def test_unknown_record_kind_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        with TriggerCorpus(path) as corpus:
            corpus.ingest([trigger_outcome()])
        with path.open("a", encoding="utf-8") as f:
            f.write('{"kind":"archipelago"}\n')
        with pytest.raises(CorpusError, match="archipelago"):
            TriggerCorpus.load(path)

    @pytest.mark.parametrize(
        "record, error",
        [
            ('{"kind":"sig"}', "KeyError: 'key'"),
            ('{"kind":"sig","key":"[[],[]]","seed":{"inputs":[]}}', "KeyError: 'source'"),
            ('{"kind":"sig","key":"[[],[]]","seed":{"source":"x"}}', "KeyError: 'inputs'"),
            (
                '{"kind":"sig","key":"[[],[]]","seed":{"source":"x","inputs":[{"f":"zz"}]}}',
                "ValueError",
            ),
            ('{"kind":"sig","key":"[[],[]]","seed":{"source":5,"inputs":[]}}', "not a string"),
            ('{"kind":"sig","key":"[[],"}', "malformed signature key"),
        ],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, record, error):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"kind":"corpus","version":1}\n' + record + "\n")
        for read in (TriggerCorpus.load, lambda p: TriggerCorpus(p).open().close()):
            with pytest.raises(CorpusError, match=f"corpus.jsonl:2: .*{error}"):
                read(path)


class TestIngest:
    def test_first_ingest_is_all_new(self, tmp_path):
        with TriggerCorpus(tmp_path / "c.jsonl") as corpus:
            report = corpus.ingest(
                [trigger_outcome(0, tag="t-a"), trigger_outcome(1, tag="t-b")],
                "first",
            )
        assert report.ingest_id == 1
        assert len(report.new_keys) == 2
        assert report.known_keys == ()
        assert report.programs == 2 and report.triggers == 2

    def test_reingest_same_checkpoint_reports_zero_new(self, tmp_path):
        outcomes = [trigger_outcome(0, tag="t-a"), trigger_outcome(1, tag="t-b")]
        with TriggerCorpus(tmp_path / "c.jsonl") as corpus:
            corpus.ingest(outcomes, "first")
            again = corpus.ingest(outcomes, "second")
        assert again.new_keys == ()
        assert len(again.known_keys) == 2
        assert again.improved_keys == ()

    def test_counts_accumulate_across_ingests(self, tmp_path):
        with TriggerCorpus(tmp_path / "c.jsonl") as corpus:
            corpus.ingest([trigger_outcome(0), trigger_outcome(1)])
            corpus.ingest([trigger_outcome(2)])
            (entry,) = corpus.sorted_entries()
        assert entry.count == 3
        assert entry.first_ingest == 1 and entry.last_ingest == 2

    def test_quiet_outcomes_count_as_programs_only(self, tmp_path):
        with TriggerCorpus(tmp_path / "c.jsonl") as corpus:
            report = corpus.ingest([quiet_outcome(0), trigger_outcome(1)])
        assert report.programs == 2
        assert report.triggers == 1

    def test_labels_timestamps_and_model_recorded(self, tmp_path):
        with TriggerCorpus(tmp_path / "c.jsonl") as corpus:
            corpus.ingest([trigger_outcome()], "alpha", timestamp="2026-08-01")
            corpus.ingest([trigger_outcome()], "beta", timestamp="2026-08-02")
            (entry,) = corpus.sorted_entries()
        assert (entry.first_label, entry.last_label) == ("alpha", "beta")
        assert entry.first_timestamp == "2026-08-01"
        assert entry.last_timestamp == "2026-08-02"
        assert entry.first_model == model_fingerprint()
        assert entry.last_model == model_fingerprint()

    def test_explicit_model_overrides_fingerprint(self, tmp_path):
        with TriggerCorpus(tmp_path / "c.jsonl") as corpus:
            corpus.ingest([trigger_outcome()], model="gcc-model-v2")
            (entry,) = corpus.sorted_entries()
        assert entry.first_model == "gcc-model-v2"


class TestSeeds:
    def test_seed_is_smallest_source_in_the_ingest(self, tmp_path):
        big = trigger_outcome(0, source="void compute(double x) { x + x + x; }")
        small = trigger_outcome(1, source="void compute(double x) {}")
        with TriggerCorpus(tmp_path / "c.jsonl") as corpus:
            corpus.ingest([big, small], "lab")
            (entry,) = corpus.sorted_entries()
        assert entry.seed_source == small.program.source
        assert entry.seed_origin_index == 1
        assert entry.seed_origin_label == "lab"

    def test_seed_improves_when_smaller_trigger_arrives(self, tmp_path):
        big = trigger_outcome(0, source="void compute(double x) { x + x; }")
        small = trigger_outcome(5, source="void compute(double x) {}")
        with TriggerCorpus(tmp_path / "c.jsonl") as corpus:
            corpus.ingest([big])
            report = corpus.ingest([small])
            (entry,) = corpus.sorted_entries()
        assert report.improved_keys == (key_of(small),)
        assert entry.seed_source == small.program.source
        assert entry.seed_origin_index == 5

    def test_seed_keeps_smaller_holder_against_bigger_arrival(self, tmp_path):
        small = trigger_outcome(0, source="void compute(double x) {}")
        big = trigger_outcome(1, source="void compute(double x) { x + x; }")
        with TriggerCorpus(tmp_path / "c.jsonl") as corpus:
            corpus.ingest([small])
            before = (tmp_path / "c.jsonl").read_bytes()
            report = corpus.ingest([big])
        assert report.improved_keys == ()
        # the second sig record carries no seed block at all
        tail = (tmp_path / "c.jsonl").read_bytes()[len(before):]
        sig_lines = [
            json.loads(line)
            for line in tail.decode().splitlines()
            if json.loads(line)["kind"] == "sig"
        ]
        assert sig_lines and all("seed" not in r for r in sig_lines)

    def test_seed_inputs_round_trip_bit_exactly(self, tmp_path):
        import math

        outcome = trigger_outcome(
            0, inputs=(1.5, -0.0, 7, (float("inf"), float("nan"), -2.5e-308))
        )
        path = tmp_path / "c.jsonl"
        with TriggerCorpus(path) as corpus:
            corpus.ingest([outcome])
        (seed,) = TriggerCorpus.load(path).seeds()
        assert seed.inputs[0] == 1.5
        assert math.copysign(1.0, seed.inputs[1]) == -1.0
        assert seed.inputs[2] == 7 and type(seed.inputs[2]) is int
        arr = seed.inputs[3]
        assert arr[0] == float("inf") and math.isnan(arr[1]) and arr[2] == -2.5e-308

    def test_seeds_sorted_by_key(self, tmp_path):
        with TriggerCorpus(tmp_path / "c.jsonl") as corpus:
            corpus.ingest(
                [
                    trigger_outcome(0, tag="zz-last"),
                    trigger_outcome(1, tag="aa-first"),
                ]
            )
            seeds = corpus.seeds()
        assert [s.key for s in seeds] == sorted(s.key for s in seeds)
        assert seeds[0].signature[0] == ("aa-first",)


class TestTriageReportIngest:
    def _report(self):
        from repro.triage.cluster import (
            TriageCluster,
            TriageEntry,
            TriageReport,
        )
        from repro.triage.signature import InconsistencySignature

        sig = InconsistencySignature("gcc", "clang", OptLevel.O3, "masked-lane")
        entry = TriageEntry(
            source_label="nightly",
            index=4,
            program_source="void compute(double x) { x * x; }",
            inputs=(2.0,),
            canonical=sig,
            cells=("gcc-clang@O3",),
            kinds=("masked-lane",),
            bisections=(),
            reduction=None,
        )
        cluster = TriageCluster(key=entry.cluster_key, entries=[entry, entry])
        return TriageReport(
            clusters=[cluster], campaigns=("nightly",), programs_seen=50, triggers=2
        )

    def test_clusters_ingest_with_their_weight(self, tmp_path):
        with TriggerCorpus(tmp_path / "c.jsonl") as corpus:
            report = corpus.ingest(self._report(), "nightly")
            (entry,) = corpus.sorted_entries()
        assert report.programs == 50 and report.triggers == 2
        assert entry.count == 2  # cluster weight, not one-per-call
        assert entry.seed_source == "void compute(double x) { x * x; }"
        assert entry.seed_origin_label == "nightly"
        assert entry.seed_origin_index == 4

    def test_triage_and_outcome_ingests_share_keys(self, tmp_path):
        outcome = trigger_outcome(0, tag="masked-lane")
        with TriggerCorpus(tmp_path / "c.jsonl") as corpus:
            corpus.ingest(self._report())
            diff = corpus.diff([outcome])
        assert diff.new_keys == ()
        assert diff.known_keys == (key_of(outcome),)


class TestDiff:
    def test_empty_corpus_reports_every_signature_exactly_once(self, tmp_path):
        corpus = TriggerCorpus.load(tmp_path / "absent.jsonl")
        # duplicates of the same root cause collapse to one NEW line
        outcomes = [
            trigger_outcome(0, tag="t-a"),
            trigger_outcome(1, tag="t-a"),
            trigger_outcome(2, tag="t-b"),
        ]
        report = corpus.diff(outcomes)
        assert sorted(report.new_keys) == sorted(
            {key_of(o) for o in outcomes}
        )
        assert len(report.new_keys) == 2
        assert len(set(report.new_keys)) == 2
        assert report.known_keys == ()
        assert report.counts[key_of(outcomes[0])] == 2

    def test_diff_partitions_new_vs_known(self, tmp_path):
        known = trigger_outcome(0, tag="t-known")
        new = trigger_outcome(1, tag="t-new")
        path = tmp_path / "c.jsonl"
        with TriggerCorpus(path) as corpus:
            corpus.ingest([known])
        report = TriggerCorpus.load(path).diff([known, new])
        assert report.new_keys == (key_of(new),)
        assert report.known_keys == (key_of(known),)

    def test_diff_never_writes(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with TriggerCorpus(path) as corpus:
            corpus.ingest([trigger_outcome(0)])
        before = path.read_bytes()
        TriggerCorpus.load(path).diff([trigger_outcome(1, tag="t-other")])
        assert path.read_bytes() == before

    def test_diff_after_ingest_of_same_checkpoint_is_empty(self, tmp_path):
        outcomes = [trigger_outcome(0, tag="t-a"), trigger_outcome(1, tag="t-b")]
        with TriggerCorpus(tmp_path / "c.jsonl") as corpus:
            corpus.ingest(outcomes)
            report = corpus.diff(outcomes)
        assert report.new_keys == ()
        assert len(report.known_keys) == 2


class TestDurability:
    def test_reload_equals_written_state(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with TriggerCorpus(path) as corpus:
            corpus.ingest([trigger_outcome(0, tag="t-a")], "one")
            corpus.ingest(
                [trigger_outcome(1, tag="t-a"), trigger_outcome(2, tag="t-b")],
                "two",
            )
            live = corpus.sorted_entries()
            live_ingests = corpus.ingests
        reloaded = TriggerCorpus.load(path)
        assert reloaded.sorted_entries() == live
        assert reloaded.ingests == live_ingests

    def test_crash_tail_truncated_on_open(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with TriggerCorpus(path) as corpus:
            corpus.ingest([trigger_outcome(0, tag="t-a")])
        with path.open("a", encoding="utf-8") as f:
            f.write('{"kind":"sig","ingest":2,"key":"[["')  # died mid-append
        with TriggerCorpus(path) as corpus:
            assert len(corpus) == 1
            corpus.ingest([trigger_outcome(1, tag="t-b")])
        reloaded = TriggerCorpus.load(path)
        assert len(reloaded) == 2
        # every line in the recovered file decodes cleanly
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_crash_between_ingest_and_sig_records_replays(self, tmp_path):
        # the ingest record lands first; a crash right after it leaves a
        # replayable prefix whose ingest counter is already advanced
        path = tmp_path / "c.jsonl"
        with TriggerCorpus(path) as corpus:
            corpus.ingest([trigger_outcome(0)])
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]), encoding="utf-8")  # header + ingest
        reloaded = TriggerCorpus.load(path)
        assert reloaded.ingests == 1
        assert len(reloaded) == 0

    def test_load_does_not_truncate(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with TriggerCorpus(path) as corpus:
            corpus.ingest([trigger_outcome(0)])
        with path.open("a", encoding="utf-8") as f:
            f.write('{"kind":"sig","par')
        before = path.read_bytes()
        TriggerCorpus.load(path)
        assert path.read_bytes() == before  # read-only stays read-only

    def test_append_preserves_existing_bytes(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with TriggerCorpus(path) as corpus:
            corpus.ingest([trigger_outcome(0, tag="t-a")])
        before = path.read_bytes()
        with TriggerCorpus(path) as corpus:
            corpus.ingest([trigger_outcome(1, tag="t-b")])
        assert path.read_bytes().startswith(before)


def _ingest_bytes(tmp_path, name, ingests):
    """Corpus bytes after ingesting each (outcomes, label) in order."""
    path = tmp_path / name
    with TriggerCorpus(path) as corpus:
        for outcomes, label in ingests:
            corpus.ingest(outcomes, label)
    return path.read_bytes()


def _run_checkpoint(tmp_path, name, *, backend="serial", jobs=1, shard=(0, 1)):
    """A real varity campaign checkpoint (budget 12 / seed 3: 3 distinct
    signatures) under the given backend and shard topology."""
    path = tmp_path / name
    engine = CampaignEngine(
        default_compilers(),
        CampaignConfig(budget=12, seed=3),
        EngineConfig(
            backend=backend, jobs=jobs, shard_index=shard[0], shard_count=shard[1]
        ),
    )
    engine.run(
        make_generator("varity", SplittableRng(3, "corpus-varity")),
        store=CampaignStore(path),
    )
    return path


class TestByteDeterminism:
    """Fixed (corpus, checkpoints, labels) => fixed bytes, whatever
    produced the checkpoints.  The contract CI's fixture diff rests on."""

    def test_same_ingest_sequence_same_bytes(self, tmp_path):
        ingests = [
            ([trigger_outcome(0, tag="t-a"), trigger_outcome(1, tag="t-b")], "one"),
            ([trigger_outcome(2, tag="t-a")], "two"),
        ]
        a = _ingest_bytes(tmp_path, "a.jsonl", ingests)
        b = _ingest_bytes(tmp_path, "b.jsonl", ingests)
        assert a == b

    def test_outcome_order_within_ingest_is_irrelevant(self, tmp_path):
        outcomes = [
            trigger_outcome(0, tag="t-a", source="void compute(double x) {}"),
            trigger_outcome(1, tag="t-b", source="void compute(double y) {}"),
            trigger_outcome(2, tag="t-a", source="void compute(double z) { z; }"),
        ]
        a = _ingest_bytes(tmp_path, "a.jsonl", [(outcomes, "lab")])
        b = _ingest_bytes(tmp_path, "b.jsonl", [(list(reversed(outcomes)), "lab")])
        assert a == b

    @pytest.mark.parametrize("backend,jobs", [("process", 2)])
    def test_backend_never_changes_corpus_bytes(self, tmp_path, backend, jobs):
        serial = _run_checkpoint(tmp_path, "serial.jsonl")
        other = _run_checkpoint(
            tmp_path, f"{backend}.jsonl", backend=backend, jobs=jobs
        )
        a = _ingest_bytes(
            tmp_path, "a.jsonl", [(load_result(serial).outcomes, "run")]
        )
        b = _ingest_bytes(
            tmp_path, "b.jsonl", [(load_result(other).outcomes, "run")]
        )
        assert a == b

    def test_shard_topology_never_changes_corpus_bytes(self, tmp_path):
        whole = _run_checkpoint(tmp_path, "whole.jsonl")
        shards = [
            _run_checkpoint(tmp_path, f"shard{i}.jsonl", shard=(i, 2))
            for i in range(2)
        ]
        merged = merge_shard_stores(shards, tmp_path / "merged.jsonl")
        a = _ingest_bytes(
            tmp_path, "a.jsonl", [(load_result(whole).outcomes, "run")]
        )
        b = _ingest_bytes(
            tmp_path, "b.jsonl", [(load_result(merged).outcomes, "run")]
        )
        assert a == b
        # and the campaign actually found something to remember
        assert len(TriggerCorpus.load(tmp_path / "a.jsonl")) >= 2

    def test_no_wall_clock_in_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with TriggerCorpus(path) as corpus:
            corpus.ingest([trigger_outcome(0)], "lab")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        ingest = next(r for r in records if r["kind"] == "ingest")
        assert ingest["timestamp"] == ""  # empty unless the operator passes one
