"""The campaign checkpoint store: bit-exact round-trips, crash recovery,
resume, header validation."""

import json
import math

import pytest

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine, EngineConfig
from repro.difftest.store import (
    CampaignStore,
    CampaignStoreError,
    decode_outcome,
    encode_outcome,
    load_result,
    merge_shard_stores,
    tail_outcomes,
)
from repro.experiments.approaches import make_generator
from repro.toolchains import GccCompiler, NvccCompiler, OptLevel, default_compilers
from repro.utils.rng import SplittableRng

from conftest import HEADER, make_outcome, outcome_bits, write_legacy_checkpoint
from test_engine import result_key

_outcome_bits = outcome_bits


class TestRoundTrip:
    def test_outcome_round_trips_bit_exactly(self):
        outcome = make_outcome()
        decoded = decode_outcome(encode_outcome(outcome))
        assert _outcome_bits(decoded) == _outcome_bits(outcome)

    def test_encoding_is_json_serializable(self):
        line = json.dumps(encode_outcome(make_outcome()))
        assert _outcome_bits(decode_outcome(json.loads(line))) == _outcome_bits(
            make_outcome()
        )

    def test_int_inputs_stay_ints(self):
        decoded = decode_outcome(encode_outcome(make_outcome()))
        assert decoded.program.inputs[2] == 7
        assert type(decoded.program.inputs[2]) is int
        assert type(decoded.program.inputs[0]) is float

    def test_signed_zero_and_nan_preserved(self):
        decoded = decode_outcome(encode_outcome(make_outcome()))
        assert math.copysign(1.0, decoded.values["clang/O2"]) == -1.0
        assert math.isnan(decoded.values["gcc/O0"])


class TestStoreFile:
    def test_open_append_reload(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        assert store.open(HEADER) == {}
        store.append(make_outcome(0))
        store.append(make_outcome(1))
        done = CampaignStore(store.path).open(HEADER)
        assert sorted(done) == [0, 1]
        assert _outcome_bits(done[1]) == _outcome_bits(make_outcome(1))

    def test_creates_parent_directories(self, tmp_path):
        store = CampaignStore(tmp_path / "deep" / "nested" / "c.jsonl")
        store.open(HEADER)
        assert store.path.exists()

    def test_header_mismatch_rejected(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        store.open(HEADER)
        other = dict(HEADER, seed=2)
        with pytest.raises(CampaignStoreError, match="different campaign"):
            CampaignStore(store.path).open(other)

    def test_crash_tail_truncated_and_recovered(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        store.open(HEADER)
        store.append(make_outcome(0))
        # simulate a crash mid-append: a half-written record at EOF
        with store.path.open("a", encoding="utf-8") as f:
            f.write('{"kind": "outcome", "index": 1, "progr')
        done = CampaignStore(store.path).open(HEADER)
        assert sorted(done) == [0]
        # the partial line is gone; appending again yields a clean file
        store2 = CampaignStore(store.path)
        store2.open(HEADER)
        store2.append(make_outcome(1))
        assert sorted(CampaignStore(store.path).open(HEADER)) == [0, 1]

    def test_refuses_to_overwrite_foreign_file(self, tmp_path):
        # --resume pointed at a file that is not a checkpoint must never
        # destroy it
        path = tmp_path / "notes.txt"
        path.write_text("important non-JSON notes\n")
        with pytest.raises(CampaignStoreError, match="refusing to overwrite"):
            CampaignStore(path).open(HEADER)
        assert path.read_text() == "important non-JSON notes\n"

    def test_non_object_header_is_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("[1,2]\n")
        with pytest.raises(CampaignStoreError, match="not a campaign checkpoint"):
            load_result(path)
        with pytest.raises(CampaignStoreError, match="refusing to overwrite"):
            CampaignStore(path).open(HEADER)
        assert path.read_text() == "[1,2]\n"

    def test_outcome_without_index_names_the_file(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        store.open(HEADER)
        record = encode_outcome(make_outcome(0))
        del record["index"]
        with store.path.open("a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
        with pytest.raises(CampaignStoreError, match="malformed outcome.*c.jsonl"):
            load_result(store.path)
        with pytest.raises(CampaignStoreError, match="malformed outcome.*c.jsonl"):
            CampaignStore(store.path).open(HEADER)

    @pytest.mark.parametrize("command", ["triage", "run"])
    def test_cli_exits_2_on_a_malformed_checkpoint(self, tmp_path, capsys, command):
        from repro.cli import main as cli_main

        path = tmp_path / "garbage.jsonl"
        path.write_text("[1,2]\n")
        argv = (
            ["triage", str(path)]
            if command == "triage"
            else ["run", "--budget", "1", "--quiet", "--resume", str(path)]
        )
        assert cli_main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0 and "garbage.jsonl" in err

    def test_unknown_record_kind_rejected(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        store.open(HEADER)
        with store.path.open("a", encoding="utf-8") as f:
            f.write('{"kind": "mystery"}\n')
        with pytest.raises(CampaignStoreError, match="mystery"):
            CampaignStore(store.path).open(HEADER)


class _KillAfter:
    """Progress callback that dies after n completed programs."""

    class Dead(RuntimeError):
        pass

    def __init__(self, n):
        self.remaining = n

    def __call__(self, index, outcome):
        self.remaining -= 1
        if self.remaining == 0:
            raise self.Dead(f"killed at program {index}")


def _engine(budget, engine_config=None):
    return CampaignEngine(
        default_compilers(),
        CampaignConfig(budget=budget),
        engine_config or EngineConfig(),
    )


def _generator(approach="varity", seed=123):
    return make_generator(approach, SplittableRng(seed, f"engine-{approach}"))


class TestResume:
    @pytest.mark.parametrize("approach", ["varity", "llm4fp"])
    def test_killed_campaign_resumes_bit_identically(self, tmp_path, approach):
        budget = 6
        baseline = _engine(budget).run(_generator(approach))
        path = tmp_path / "campaign.jsonl"
        with pytest.raises(_KillAfter.Dead):
            _engine(budget).run(
                _generator(approach),
                progress=_KillAfter(3),
                store=CampaignStore(path),
            )
        checkpointed = len(path.read_text().splitlines()) - 1  # minus header
        assert checkpointed == 3
        resumed = _engine(budget).run(
            _generator(approach), store=CampaignStore(path)
        )
        assert result_key(resumed) == result_key(baseline)
        # the full campaign is now checkpointed
        assert sorted(CampaignStore(path).open(
            _engine(budget)._store_header(baseline)
        )) == list(range(budget))

    def test_resume_skips_recompute(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        _engine(4).run(_generator(), store=CampaignStore(path))
        fresh = _engine(4)
        result = fresh.run(_generator(), store=CampaignStore(path))
        # everything replayed from the store: no program is re-tested
        assert result.total_runs == 0
        assert len(result.outcomes) == 4

    def test_wrong_seed_store_rejected(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        _engine(4).run(_generator(seed=123), store=CampaignStore(path))
        with pytest.raises(CampaignStoreError, match="different campaign"):
            CampaignEngine(
                default_compilers(),
                CampaignConfig(budget=4, seed=999),
                EngineConfig(),
            ).run(_generator(seed=999), store=CampaignStore(path))

    def test_replay_source_mismatch_detected(self, tmp_path):
        # same campaign identity, different stored program => corruption
        path = tmp_path / "campaign.jsonl"
        engine = _engine(4)
        engine.run(_generator(), store=CampaignStore(path))
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["program"]["source"] = "void compute(double x) {}"
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="checkpoint mismatch"):
            _engine(4).run(_generator(), store=CampaignStore(path))

    def test_sharded_resume(self, tmp_path):
        budget = 6
        config = EngineConfig(shard_index=1, shard_count=2)
        baseline = _engine(budget, config).run(_generator())
        path = tmp_path / "shard1.jsonl"
        with pytest.raises(_KillAfter.Dead):
            _engine(budget, config).run(
                _generator(), progress=_KillAfter(2), store=CampaignStore(path)
            )
        resumed = _engine(budget, config).run(
            _generator(), store=CampaignStore(path)
        )
        assert result_key(resumed) == result_key(baseline)


class TestLoadResult:
    """The multi-machine half of sharding: checkpoints reload into
    CampaignResults that merge bit-identically."""

    def test_sharded_checkpoints_load_and_merge(self, tmp_path):
        budget = 6
        unsharded = _engine(budget).run(_generator())
        paths = []
        for i in range(2):
            path = tmp_path / f"shard{i}.jsonl"
            _engine(
                budget, EngineConfig(shard_index=i, shard_count=2)
            ).run(_generator(), store=CampaignStore(path))
            paths.append(path)
        assert [load_result(p).shard_index for p in paths] == [0, 1]
        merged = load_result(merge_shard_stores(paths, tmp_path / "merged.jsonl"))
        assert result_key(merged) == result_key(unsharded)

    def test_loaded_result_matches_in_memory(self, tmp_path):
        path = tmp_path / "c.jsonl"
        in_memory = _engine(4).run(_generator(), store=CampaignStore(path))
        assert result_key(load_result(path)) == result_key(in_memory)

    def test_load_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(CampaignStoreError, match="not a campaign checkpoint"):
            load_result(path)


class TestTailOutcomes:
    """Incremental progress reads — the fleet supervisor's heartbeat."""

    def test_tail_reads_are_incremental(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _engine(4).run(_generator(), store=CampaignStore(path))
        indices, offset = tail_outcomes(path)
        assert indices == [0, 1, 2, 3]
        assert offset == path.stat().st_size
        # nothing new since: an empty read from the same offset
        again, offset2 = tail_outcomes(path, offset)
        assert again == [] and offset2 == offset

    def test_new_rows_appear_after_the_offset(self, tmp_path):
        path = tmp_path / "c.jsonl"
        engine = _engine(2)
        result = engine.run(_generator(), store=CampaignStore(path))
        _, offset = tail_outcomes(path)
        # another process appends one more record
        extra = encode_outcome(result.outcomes[0])
        extra["index"] = 2
        with path.open("a") as f:
            f.write(json.dumps(extra, separators=(",", ":")) + "\n")
        indices, _ = tail_outcomes(path, offset)
        assert indices == [2]

    def test_partial_final_line_left_for_next_call(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _engine(2).run(_generator(), store=CampaignStore(path))
        _, complete = tail_outcomes(path)
        with path.open("ab") as f:
            f.write(b'{"kind":"outcome","index":2')  # mid-append
        indices, offset = tail_outcomes(path)
        assert indices == [0, 1]
        assert offset == complete  # the torn tail was not consumed

    def test_missing_file_reads_as_no_progress(self, tmp_path):
        assert tail_outcomes(tmp_path / "nope.jsonl") == ([], 0)

    def test_header_is_consumed_but_not_reported(self, tmp_path):
        path = tmp_path / "c.jsonl"
        CampaignStore(path).open({"approach": "x", "budget": 1})
        indices, offset = tail_outcomes(path)
        assert indices == []
        assert offset == path.stat().st_size


class TestMergeShardStores:
    """Byte-level shard splicing — the fleet's merged-store contract."""

    def _shard_files(self, tmp_path, budget=6, count=2):
        paths = []
        for i in range(count):
            path = tmp_path / f"shard{i}.jsonl"
            _engine(
                budget, EngineConfig(shard_index=i, shard_count=count)
            ).run(_generator(), store=CampaignStore(path))
            paths.append(path)
        return paths

    def test_merged_file_byte_identical_to_unsharded_checkpoint(self, tmp_path):
        budget = 6
        golden = tmp_path / "golden.jsonl"
        _engine(budget).run(_generator(), store=CampaignStore(golden))
        paths = self._shard_files(tmp_path, budget=budget)
        out = merge_shard_stores(paths, tmp_path / "merged.jsonl")
        assert out.read_bytes() == golden.read_bytes()

    def test_merged_file_loads_as_an_unsharded_result(self, tmp_path):
        paths = self._shard_files(tmp_path)
        out = merge_shard_stores(paths, tmp_path / "merged.jsonl")
        result = load_result(out)
        assert (result.shard_index, result.shard_count) == (0, 1)
        assert [o.index for o in result.outcomes] == list(range(6))

    def test_missing_shard_rejected(self, tmp_path):
        paths = self._shard_files(tmp_path)
        with pytest.raises(CampaignStoreError, match="missing"):
            merge_shard_stores(paths[:1], tmp_path / "merged.jsonl")

    def test_duplicate_coverage_rejected(self, tmp_path):
        paths = self._shard_files(tmp_path)
        with pytest.raises(CampaignStoreError, match="duplicate outcome"):
            merge_shard_stores(
                [paths[0], paths[0], paths[1]], tmp_path / "merged.jsonl"
            )

    def test_foreign_campaign_rejected(self, tmp_path):
        paths = self._shard_files(tmp_path)
        other = tmp_path / "other0.jsonl"
        CampaignEngine(
            default_compilers(),
            CampaignConfig(budget=6, seed=999),
            EngineConfig(shard_index=0, shard_count=2),
        ).run(_generator(seed=999), store=CampaignStore(other))
        with pytest.raises(CampaignStoreError, match="different campaigns"):
            merge_shard_stores([other, paths[1]], tmp_path / "merged.jsonl")

    def test_non_checkpoint_input_rejected(self, tmp_path):
        junk = tmp_path / "junk.txt"
        junk.write_text("hello\n")
        with pytest.raises(CampaignStoreError, match="not a campaign checkpoint"):
            merge_shard_stores([junk], tmp_path / "merged.jsonl")

    def test_failed_merge_writes_nothing(self, tmp_path):
        paths = self._shard_files(tmp_path)
        out = tmp_path / "merged.jsonl"
        with pytest.raises(CampaignStoreError):
            merge_shard_stores(paths[:1], out)
        assert not out.exists()

    def test_cli_merge_command(self, tmp_path, capsys):
        from repro.cli import main

        budget = 6
        paths = []
        for i in range(2):
            path = tmp_path / f"shard{i}.jsonl"
            _engine(
                budget, EngineConfig(shard_index=i, shard_count=2)
            ).run(_generator(), store=CampaignStore(path))
            paths.append(str(path))
        assert main(["merge", *paths]) == 0
        out = capsys.readouterr().out
        assert "shards merged:        2" in out
        assert "programs:             6" in out

    @pytest.mark.parametrize(
        "case, message",
        [
            ("mixed-seed", "different campaigns (mismatched: seed)"),
            ("incomplete", "incomplete shard set: missing [1] of /2"),
            ("same-file-twice", "duplicate outcome for budget index 0"),
            ("missing-path", "cannot read checkpoint"),
            ("triage-missing-path", "cannot read checkpoint"),
        ],
    )
    def test_cli_refuses_a_set_that_is_not_one_campaign(
        self, tmp_path, capsys, case, message
    ):
        # Each case fails by name: exit 2, one line on stderr, no traceback.
        from repro.cli import main

        paths = [str(p) for p in self._shard_files(tmp_path, budget=4)]
        other = tmp_path / "seed2-shard1.jsonl"
        if case == "mixed-seed":
            CampaignEngine(
                default_compilers(),
                CampaignConfig(budget=4, seed=2),
                EngineConfig(shard_index=1, shard_count=2),
            ).run(_generator(), store=CampaignStore(other))
        nope = str(tmp_path / "nope.jsonl")
        argv = {
            "mixed-seed": ["merge", paths[0], str(other)],
            "incomplete": ["merge", paths[0]],
            "same-file-twice": ["merge", paths[0], paths[0]],
            "missing-path": ["merge", paths[0], nope],
            "triage-missing-path": ["triage", nope],
        }[case]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith(f"llm4fp {argv[0]}: ") and "\n" not in err
        assert message in err


class TestMalformedShardRecords:
    """The heartbeat and the shard merge read records through the same
    checks as ``open`` and ``load_result``: a damaged record is a named
    error that names its file, never a raw ``KeyError``/``TypeError``."""

    def _shard(self, tmp_path, damage):
        store = CampaignStore(tmp_path / "shard0.jsonl")
        store.open(dict(HEADER, islands=1, merge_every=1))
        record = encode_outcome(make_outcome(0))
        damage(record)
        with store.path.open("a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
        return store.path

    def test_merge_outcome_without_index(self, tmp_path):
        path = self._shard(tmp_path, lambda r: r.pop("index"))
        with pytest.raises(CampaignStoreError, match="malformed outcome.*shard0.jsonl"):
            merge_shard_stores([path], tmp_path / "merged.jsonl")

    def test_tail_outcome_without_index(self, tmp_path):
        path = self._shard(tmp_path, lambda r: r.pop("index"))
        with pytest.raises(CampaignStoreError, match="malformed outcome.*shard0.jsonl"):
            tail_outcomes(path)

    def test_merge_string_index(self, tmp_path):
        path = self._shard(tmp_path, lambda r: r.update(index="0"))
        with pytest.raises(CampaignStoreError, match="malformed outcome.*shard0.jsonl"):
            merge_shard_stores([path], tmp_path / "merged.jsonl")

    def test_merge_island_without_after(self, tmp_path):
        def to_island(record):
            record.clear()
            record.update(TestIslandRecords.ISLAND)
            del record["after"]

        path = self._shard(tmp_path, to_island)
        with pytest.raises(CampaignStoreError, match="malformed island.*shard0.jsonl"):
            merge_shard_stores([path], tmp_path / "merged.jsonl")

    @pytest.mark.parametrize("key", ["shard_index", "shard_count", "budget"])
    def test_merge_header_int_field_not_an_int(self, tmp_path, key):
        store = CampaignStore(tmp_path / "shard0.jsonl")
        store.open(dict(HEADER, **{key: [0]}))
        with pytest.raises(
            CampaignStoreError, match=f"malformed checkpoint header in .*shard0.jsonl.*{key}"
        ):
            merge_shard_stores([store.path], tmp_path / "merged.jsonl")


class TestLegacyVersions:
    """Read-side compat: v1/v2 nightly checkpoints stay usable."""

    def test_v1_file_loads_with_none_tags(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        write_legacy_checkpoint(path, version=1)
        result = load_result(path)
        assert len(result.outcomes) == 2
        comparisons = result.outcomes[0].comparisons
        assert comparisons and all(c.tag is None for c in comparisons)
        # bit-exact payloads survive the version bridge
        assert math.isnan(result.outcomes[0].values["gcc/O0"])

    def test_v2_file_loads(self, tmp_path):
        path = tmp_path / "v2.jsonl"
        write_legacy_checkpoint(path, version=2)
        result = load_result(path)
        assert [o.index for o in result.outcomes] == [0, 1]
        assert result.outcomes[0].comparisons[1].tag == "vector-reduction"

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "v99.jsonl"
        write_legacy_checkpoint(path, version=99)
        with pytest.raises(CampaignStoreError, match="unsupported checkpoint"):
            load_result(path)

    def test_resume_accepts_legacy_header(self, tmp_path):
        # --resume pointed at an old-version checkpoint of the *same*
        # campaign replays its rows instead of rejecting the file.
        path = tmp_path / "v1.jsonl"
        write_legacy_checkpoint(path, version=1)
        done = CampaignStore(path).open(HEADER)
        assert sorted(done) == [0, 1]
        assert all(c.tag is None for c in done[0].comparisons)

    def test_legacy_resume_upgrades_header_in_place(self, tmp_path):
        # After a legacy open the header names the current (newest
        # writer's) version while the legacy record bytes are untouched,
        # so rows appended by the resumed campaign never sit under a
        # stale version label.
        from repro.difftest.store import _FORMAT_VERSION

        path = tmp_path / "v1.jsonl"
        write_legacy_checkpoint(path, version=1)
        old_records = path.read_bytes().partition(b"\n")[2]
        CampaignStore(path).open(HEADER)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["version"] == _FORMAT_VERSION
        assert path.read_bytes().partition(b"\n")[2] == old_records
        # reopening is now the plain (non-legacy) path
        assert sorted(CampaignStore(path).open(HEADER)) == [0, 1]

    def test_resume_rejects_legacy_header_of_other_campaign(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        write_legacy_checkpoint(path, version=1)
        with pytest.raises(CampaignStoreError, match="different campaign"):
            CampaignStore(path).open(dict(HEADER, seed=42))

    def test_resume_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "v99.jsonl"
        write_legacy_checkpoint(path, version=99)
        with pytest.raises(CampaignStoreError, match="different campaign"):
            CampaignStore(path).open(HEADER)

    def test_v1_triggers_load_for_triage(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        write_legacy_checkpoint(path, version=1)
        triggers = load_result(path).triggering_outcomes
        assert [o.index for o in triggers] == [0, 1]

    def test_v1_shards_merge(self, tmp_path):
        # One complete legacy shard set splices like a current one.
        paths = []
        for i in range(2):
            path = tmp_path / f"v1-shard{i}.jsonl"
            header = {
                "kind": "campaign",
                "version": 1,
                **HEADER,
                "shard_index": i,
                "shard_count": 2,
            }
            record = encode_outcome(make_outcome(i))
            for comparison in record["comparisons"]:
                del comparison["tag"]
            path.write_text(
                json.dumps(header) + "\n" + json.dumps(record) + "\n",
                encoding="utf-8",
            )
            paths.append(path)
        merged = load_result(merge_shard_stores(paths, tmp_path / "merged.jsonl"))
        assert [o.index for o in merged.outcomes] == [0, 1]


class TestHeaderDiagnostics:
    """The identity check names exactly the mismatching fields."""

    def test_single_mismatching_field_named(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        store.open(HEADER)
        with pytest.raises(CampaignStoreError, match="mismatched: seed"):
            CampaignStore(store.path).open(dict(HEADER, seed=2))

    def test_all_mismatching_fields_named_sorted(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        store.open(HEADER)
        other = dict(HEADER, budget=9, seed=2, islands=4, merge_every=10)
        with pytest.raises(
            CampaignStoreError,
            match="mismatched: budget, islands, merge_every, seed",
        ):
            CampaignStore(store.path).open(other)

    def test_island_shape_alone_is_a_different_campaign(self, tmp_path):
        # same seed/budget but a different island partition generates a
        # different program stream — resume must refuse, and say why
        store = CampaignStore(tmp_path / "c.jsonl")
        store.open(dict(HEADER, islands=2, merge_every=5))
        with pytest.raises(CampaignStoreError, match="mismatched: islands"):
            CampaignStore(store.path).open(dict(HEADER, islands=4, merge_every=5))


class TestIslandRecords:
    ISLAND = {
        "kind": "island",
        "island": 0,
        "generation": 1,
        "after": 0,
        "migrants": [{"source": "s", "signature": [["kind"], []], "strategy": None}],
    }

    def _island_file(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        store.open(dict(HEADER, islands=1, merge_every=1))
        store.append(make_outcome(0))
        store.append_island(self.ISLAND)
        store.append(make_outcome(1))
        return store

    def test_append_island_round_trips_on_open(self, tmp_path):
        store = self._island_file(tmp_path)
        assert store.island_records == [self.ISLAND]
        reopened = CampaignStore(store.path)
        done = reopened.open(dict(HEADER, islands=1, merge_every=1))
        assert sorted(done) == [0, 1]
        assert reopened.island_records == [self.ISLAND]

    def test_read_island_records_without_identity(self, tmp_path):
        # triage/merge tooling reads island records with no expected
        # header to validate against
        from repro.difftest.store import read_island_records

        store = self._island_file(tmp_path)
        assert read_island_records(store.path) == [self.ISLAND]

    def test_load_result_skips_island_records(self, tmp_path):
        store = self._island_file(tmp_path)
        result = load_result(store.path)
        assert [o.index for o in result.outcomes] == [0, 1]

    def test_merge_splices_island_records_after_their_outcome(self, tmp_path):
        # a single complete 1-island "shard set": the merged file keeps
        # the record at its original file position (right after index 0)
        store = self._island_file(tmp_path)
        src = store.path.rename(tmp_path / "shard0.jsonl")
        out = merge_shard_stores([src], tmp_path / "merged.jsonl")
        kinds = [json.loads(line)["kind"] for line in out.read_text().splitlines()]
        assert kinds == ["campaign", "outcome", "island", "outcome"]
        merged_rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert merged_rows[2] == self.ISLAND

    def test_other_unknown_kinds_still_rejected(self, tmp_path):
        store = self._island_file(tmp_path)
        with store.path.open("a", encoding="utf-8") as f:
            f.write('{"kind": "archipelago"}\n')
        with pytest.raises(CampaignStoreError, match="archipelago"):
            CampaignStore(store.path).open(dict(HEADER, islands=1, merge_every=1))


class TestV3Legacy:
    """v3 checkpoints predate the island fields: their headers imply
    ``islands=0, merge_every=0`` and stay resumable/mergeable."""

    def test_v3_resumes_as_an_island_free_campaign(self, tmp_path):
        from repro.difftest.store import _FORMAT_VERSION

        path = tmp_path / "v3.jsonl"
        write_legacy_checkpoint(path, version=3)
        done = CampaignStore(path).open(dict(HEADER, islands=0, merge_every=0))
        assert sorted(done) == [0, 1]
        header = json.loads(path.read_text().splitlines()[0])
        assert header["version"] == _FORMAT_VERSION

    def test_v3_rejected_for_an_island_campaign(self, tmp_path):
        path = tmp_path / "v3.jsonl"
        write_legacy_checkpoint(path, version=3)
        with pytest.raises(CampaignStoreError, match="mismatched: islands"):
            CampaignStore(path).open(dict(HEADER, islands=2, merge_every=5))

    def test_v3_loads_for_triage(self, tmp_path):
        path = tmp_path / "v3.jsonl"
        write_legacy_checkpoint(path, version=3)
        result = load_result(path)
        assert [o.index for o in result.outcomes] == [0, 1]
        assert result.outcomes[0].comparisons[1].tag == "vector-reduction"

    def test_v3_shards_merge(self, tmp_path):
        paths = []
        for i in range(2):
            path = tmp_path / f"v3-shard{i}.jsonl"
            write_legacy_checkpoint(path, version=3, shard=(i, 2))
            paths.append(path)
        out = merge_shard_stores(paths, tmp_path / "merged.jsonl")
        merged = load_result(out)
        assert [o.index for o in merged.outcomes] == [0, 1]


class TestValidationHelpers:
    def test_unsupported_input_type_rejected(self):
        from repro.difftest.store import _enc_input

        with pytest.raises(CampaignStoreError, match="unsupported input"):
            _enc_input("a string")

    def test_level_round_trip(self):
        for level in OptLevel:
            assert OptLevel(str(level)) is level

    def test_store_header_reflects_config(self):
        engine = CampaignEngine(
            [GccCompiler(), NvccCompiler()],
            CampaignConfig(budget=3, seed=7),
            EngineConfig(shard_index=0, shard_count=1),
        )
        result = engine.run(_generator())
        header = engine._store_header(result)
        assert header["budget"] == 3 and header["seed"] == 7
        assert header["compilers"] == ["gcc", "nvcc"]
