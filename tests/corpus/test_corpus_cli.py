"""The ``llm4fp corpus`` CLI and ``llm4fp run --corpus`` replay wiring:
golden diff output, exactly-once reporting, exit codes, env-knob default."""

import json

from corpus_testlib import quiet_outcome, trigger_outcome, write_checkpoint
from repro.cli import main
from repro.corpus import TriggerCorpus
from repro.difftest.store import load_result


def _fixture_checkpoint(tmp_path, name="campaign.jsonl"):
    """4 programs, 3 triggers, 2 distinct signatures (t-a x2, t-b x1)."""
    return write_checkpoint(
        tmp_path / name,
        [
            trigger_outcome(0, tag="t-a"),
            trigger_outcome(1, tag="t-a", source="void compute(double y) {}"),
            trigger_outcome(2, tag="t-b"),
            quiet_outcome(3),
        ],
    )


class TestCorpusDiff:
    def test_golden_output_against_empty_corpus(self, tmp_path, capsys):
        ckpt = _fixture_checkpoint(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        assert main(["corpus", "diff", str(corpus), str(ckpt)]) == 0
        assert capsys.readouterr().out == (
            "corpus: corpus.jsonl — 0 known signature(s)\n"
            "checked: 1 checkpoint(s), 4 programs, 3 triggers, "
            "2 distinct signature(s)\n"
            "known signatures: 0\n"
            "new signatures: 2\n"
            "  NEW x2 t-a :: gcc-clang@O3\n"
            "  NEW x1 t-b :: gcc-clang@O3\n"
        )

    def test_empty_corpus_diff_reports_each_signature_exactly_once(
        self, tmp_path, capsys
    ):
        ckpt = _fixture_checkpoint(tmp_path)
        main(["corpus", "diff", str(tmp_path / "corpus.jsonl"), str(ckpt)])
        out = capsys.readouterr().out
        assert out.count("t-a ::") == 1
        assert out.count("t-b ::") == 1

    def test_diff_prints_only_never_seen_signatures(self, tmp_path, capsys):
        ckpt = _fixture_checkpoint(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        with TriggerCorpus(corpus) as c:
            c.ingest([trigger_outcome(0, tag="t-a")], "seeded")
        capsys.readouterr()
        assert main(["corpus", "diff", str(corpus), str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "new signatures: 1" in out
        assert "t-b ::" in out
        assert "NEW x2 t-a" not in out  # known: summarized, never re-listed

    def test_diff_is_deterministic_and_out_matches_stdout(self, tmp_path, capsys):
        ckpt = _fixture_checkpoint(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        report = tmp_path / "new.txt"
        main(["corpus", "diff", str(corpus), str(ckpt), "--out", str(report)])
        first = capsys.readouterr().out
        assert report.read_text() == first
        main(["corpus", "diff", str(corpus), str(ckpt)])
        assert capsys.readouterr().out == first

    def test_divergence_tier_tags_flow_through_unchanged(self, tmp_path, capsys):
        # The new tiers' tags ride the same outcome_signature -> signature_key
        # path as the legacy tags: a vec-libm trigger is one corpus
        # signature, reported exactly once and golden-stable.
        ckpt = write_checkpoint(
            tmp_path / "tiers.jsonl",
            [
                trigger_outcome(0, tag="vec-libm"),
                trigger_outcome(1, tag="mixed-precision"),
                trigger_outcome(2, tag="vec-libm"),
                quiet_outcome(3),
            ],
        )
        corpus = tmp_path / "corpus.jsonl"
        assert main(["corpus", "diff", str(corpus), str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "  NEW x2 vec-libm :: gcc-clang@O3\n" in out
        assert "  NEW x1 mixed-precision :: gcc-clang@O3\n" in out
        assert out.count("vec-libm ::") == 1

    def test_diff_without_checkpoints_is_an_error(self, tmp_path, capsys):
        assert main(["corpus", "diff", str(tmp_path / "c.jsonl")]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_diff_two_checkpoints_pool_their_signatures(self, tmp_path, capsys):
        a = _fixture_checkpoint(tmp_path, "a.jsonl")
        b = write_checkpoint(
            tmp_path / "b.jsonl", [trigger_outcome(0, tag="t-c")]
        )
        main(["corpus", "diff", str(tmp_path / "corpus.jsonl"), str(a), str(b)])
        out = capsys.readouterr().out
        assert "checked: 2 checkpoint(s), 5 programs" in out
        assert "new signatures: 3" in out


class TestCorpusIngest:
    def test_ingest_creates_corpus_and_reports_new(self, tmp_path, capsys):
        ckpt = _fixture_checkpoint(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        assert main(["corpus", "ingest", str(corpus), str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "ingest #1 into corpus.jsonl: campaign.jsonl" in out
        assert "2 new" in out
        assert len(TriggerCorpus.load(corpus)) == 2

    def test_second_ingest_of_same_checkpoint_reports_zero_new(
        self, tmp_path, capsys
    ):
        ckpt = _fixture_checkpoint(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        main(["corpus", "ingest", str(corpus), str(ckpt)])
        capsys.readouterr()
        assert main(["corpus", "ingest", str(corpus), str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "0 new" in out
        assert "NEW" not in out

    def test_ingest_out_file_lists_new_signatures(self, tmp_path):
        ckpt = _fixture_checkpoint(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        report = tmp_path / "new.txt"
        main(["corpus", "ingest", str(corpus), str(ckpt), "--out", str(report)])
        lines = report.read_text().splitlines()
        assert lines[0] == "new signatures: 2"
        assert lines[1:] == ["t-a :: gcc-clang@O3", "t-b :: gcc-clang@O3"]

    def test_ingest_label_and_timestamp_flags(self, tmp_path, capsys):
        ckpt = _fixture_checkpoint(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        main(
            [
                "corpus", "ingest", str(corpus), str(ckpt),
                "--label", "nightly", "--timestamp", "2026-08-08",
            ]
        )
        assert "nightly" in capsys.readouterr().out
        for entry in TriggerCorpus.load(corpus).sorted_entries():
            assert entry.first_label == "nightly"
            assert entry.first_timestamp == "2026-08-08"

    def test_ingest_without_checkpoints_is_an_error(self, tmp_path, capsys):
        assert main(["corpus", "ingest", str(tmp_path / "c.jsonl")]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_foreign_corpus_file_exits_2(self, tmp_path, capsys):
        ckpt = _fixture_checkpoint(tmp_path)
        foreign = tmp_path / "notes.txt"
        foreign.write_text("not a corpus\n")
        assert main(["corpus", "ingest", str(foreign), str(ckpt)]) == 2
        assert "not a trigger corpus" in capsys.readouterr().err

    def test_malformed_corpus_record_exits_2_with_one_line(self, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text('{"kind":"corpus","version":1}\n{"kind":"sig"}\n')
        assert main(["corpus", "seeds", str(corpus)]) == 2
        assert main(["run", "--approach", "varity", "--budget", "1", "--corpus", str(corpus)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"{corpus}:2: bad corpus record (KeyError: 'key')"] * 2

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        missing = tmp_path / "nope.jsonl"
        assert main(["corpus", "ingest", str(corpus), str(missing)]) == 2
        assert capsys.readouterr().err


class TestCorpusListAndSeeds:
    def test_list_shows_lifetime_rows(self, tmp_path, capsys):
        ckpt = _fixture_checkpoint(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        main(["corpus", "ingest", str(corpus), str(ckpt)])
        capsys.readouterr()
        assert main(["corpus", "list", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "corpus: corpus.jsonl — 2 signature(s)" in out
        assert "x2 first=#1 last=#1" in out

    def test_seeds_prints_sources(self, tmp_path, capsys):
        ckpt = _fixture_checkpoint(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        main(["corpus", "ingest", str(corpus), str(ckpt)])
        capsys.readouterr()
        assert main(["corpus", "seeds", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "2 regression seed(s)" in out
        assert "void compute(double y) {}" in out  # the smaller t-a trigger

    def test_seeds_dir_writes_files_and_manifest(self, tmp_path, capsys):
        ckpt = _fixture_checkpoint(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        main(["corpus", "ingest", str(corpus), str(ckpt)])
        outdir = tmp_path / "seeds"
        assert main(["corpus", "seeds", str(corpus), "--dir", str(outdir)]) == 0
        manifest = json.loads((outdir / "seeds.json").read_text())
        assert len(manifest) == 2
        assert (outdir / manifest[0]["file"]).exists()
        assert manifest[0]["signature"] == "t-a :: gcc-clang@O3"

    def test_list_of_missing_corpus_is_empty_not_an_error(self, tmp_path, capsys):
        assert main(["corpus", "list", str(tmp_path / "absent.jsonl")]) == 0
        assert "0 signature(s)" in capsys.readouterr().out


class TestRunWithCorpus:
    def _harvested_corpus(self, tmp_path):
        ckpt = tmp_path / "harvest.jsonl"
        main(
            [
                "run", "--approach", "varity", "--budget", "12", "--seed", "3",
                "--quiet", "--resume", str(ckpt),
            ]
        )
        corpus = tmp_path / "corpus.jsonl"
        with TriggerCorpus(corpus) as c:
            c.ingest(load_result(ckpt).outcomes, "harvest")
        return corpus, len(TriggerCorpus.load(corpus).seeds())

    def test_run_replays_corpus_seeds_first(self, tmp_path, capsys):
        corpus, n_seeds = self._harvested_corpus(tmp_path)
        assert n_seeds >= 2
        ckpt = tmp_path / "replay.jsonl"
        capsys.readouterr()
        assert main(
            [
                "run", "--approach", "varity", "--budget", "8", "--seed", "9",
                "--quiet", "--corpus", str(corpus), "--resume", str(ckpt),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert f"corpus replay:        {n_seeds} seed(s) from {corpus}" in out
        header = json.loads(ckpt.read_text().splitlines()[0])
        assert header["approach"] == "corpus-replay+varity"
        prelude = load_result(ckpt).outcomes[:n_seeds]
        assert all(
            o.program.meta.get("strategy") == "corpus-replay" for o in prelude
        )

    def test_corpus_path_env_knob_is_the_default(self, tmp_path, capsys, monkeypatch):
        corpus, n_seeds = self._harvested_corpus(tmp_path)
        monkeypatch.setenv("REPRO_CORPUS_PATH", str(corpus))
        capsys.readouterr()
        assert main(
            ["run", "--approach", "varity", "--budget", "6", "--seed", "9", "--quiet"]
        ) == 0
        assert f"corpus replay:        {n_seeds} seed(s)" in capsys.readouterr().out

    def test_run_without_corpus_mentions_no_replay(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CORPUS_PATH", raising=False)
        assert main(
            ["run", "--approach", "varity", "--budget", "4", "--seed", "9", "--quiet"]
        ) == 0
        assert "corpus replay" not in capsys.readouterr().out

    def test_run_with_corrupt_corpus_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("definitely not a corpus\n")
        assert main(
            [
                "run", "--approach", "varity", "--budget", "4", "--seed", "9",
                "--quiet", "--corpus", str(bad),
            ]
        ) == 2
        assert "not a trigger corpus" in capsys.readouterr().err
