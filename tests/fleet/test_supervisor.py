"""The fleet supervisor's happy path: spawn, heartbeat, merge, serve CLI.

The substrate campaign is tiny (budget 20, ``loops`` approach) but the
workers are *real* ``llm4fp run`` subprocesses — the tests exercise the
exact process tree an operator's ``llm4fp serve`` builds.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine
from repro.difftest.store import CampaignStore
from repro.experiments.approaches import make_generator
from repro.fleet.events import read_events
from repro.fleet.queue import job_dirname, load_jobs
from repro.fleet.supervisor import (
    CampaignSpec,
    FleetConfig,
    FleetResult,
    ShardState,
    run_fleet,
)
from repro.toolchains import default_compilers
from repro.utils.rng import SplittableRng

BUDGET = 20
SEED = 11


def golden_checkpoint(path, budget=BUDGET, seed=SEED):
    """The unkilled single-process run every fleet is audited against."""
    engine = CampaignEngine(
        default_compilers(), CampaignConfig(budget=budget, seed=seed)
    )
    engine.run(
        make_generator("loops", SplittableRng(seed, "cli-loops")),
        store=CampaignStore(path),
    )
    return path.read_bytes()


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "golden.jsonl"
    return golden_checkpoint(path)


def fast_config(**overrides):
    defaults = dict(workers=2, heartbeat=0.05, stall_timeout=60.0, backoff=0.0)
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestCampaignSpec:
    def test_worker_argv_is_a_real_run_invocation(self, tmp_path):
        spec = CampaignSpec(approach="varity", budget=500, seed=3, jobs="auto",
                            backend="process")
        argv = spec.worker_argv(2, 8, tmp_path / "s2.jsonl")
        joined = " ".join(argv)
        assert "-m repro.cli run" in joined
        assert "--shard 2/8" in joined
        assert "--resume" in joined and "s2.jsonl" in joined
        assert "--backend process" in joined
        assert "--jobs auto" in joined
        assert "--progress-json" in joined

    def test_unpinned_fields_are_omitted(self, tmp_path):
        argv = CampaignSpec().worker_argv(0, 2, tmp_path / "s.jsonl")
        joined = " ".join(argv)
        assert "--backend" not in joined
        assert "--jobs" not in joined
        assert "--exec-mode" not in joined

    def test_owned_partitions_the_budget(self):
        spec = CampaignSpec(budget=10)
        assert [spec.owned(i, 3) for i in range(3)] == [4, 3, 3]
        assert sum(spec.owned(i, 4) for i in range(4)) == 10

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown job field"):
            CampaignSpec.from_json({"approach": "loops", "budgets": 5})

    def test_from_json_accepts_shards_alongside_spec_fields(self):
        spec = CampaignSpec.from_json(
            {"approach": "varity", "budget": 7, "shards": 3}
        )
        assert spec.approach == "varity" and spec.budget == 7


class TestFleetHappyPath:
    def test_fleet_merge_matches_single_process_run(self, tmp_path, golden):
        result = run_fleet(
            CampaignSpec(approach="loops", budget=BUDGET, seed=SEED),
            shard_count=4,
            workdir=tmp_path / "fleet",
            config=fast_config(),
        )
        assert result.ok and result.status == "ok"
        assert result.deaths == 0
        assert all(s.status == "done" for s in result.shards)
        assert result.merged_path.read_bytes() == golden

    def test_event_log_narrates_the_lifecycle(self, tmp_path):
        result = run_fleet(
            CampaignSpec(approach="loops", budget=6, seed=2),
            shard_count=2,
            workdir=tmp_path / "fleet",
            config=fast_config(),
        )
        events = read_events(result.events_path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "fleet-start"
        assert kinds[-1] == "fleet-done"
        assert kinds.count("spawn") == 2
        assert kinds.count("shard-done") == 2
        assert "merge" in kinds
        # timestamps are monotone non-decreasing
        ts = [e["t"] for e in events]
        assert ts == sorted(ts)
        done = events[-1]
        assert done["status"] == "ok" and done["failed_shards"] == []

    def test_per_attempt_worker_logs_capture_json_progress(self, tmp_path):
        result = run_fleet(
            CampaignSpec(approach="loops", budget=4, seed=2),
            shard_count=2,
            workdir=tmp_path / "fleet",
            config=fast_config(),
        )
        assert result.ok
        log = tmp_path / "fleet" / "logs" / "shard0.attempt1.log"
        lines = [json.loads(line) for line in log.read_text().splitlines()
                 if line.startswith("{")]
        assert any(e.get("event") == "program" for e in lines)
        assert any(e.get("event") == "campaign-done" for e in lines)

    def test_more_shards_than_budget(self, tmp_path):
        # shards owning zero indices must complete, not hang the fleet
        golden = golden_checkpoint(tmp_path / "golden.jsonl", budget=2, seed=9)
        result = run_fleet(
            CampaignSpec(approach="loops", budget=2, seed=9),
            shard_count=4,
            workdir=tmp_path / "fleet",
            config=fast_config(),
        )
        assert result.ok
        assert result.merged_path.read_bytes() == golden


class TestServeCli:
    def test_serve_exit_zero_and_summary(self, tmp_path, capsys):
        code = cli_main([
            "serve", "--dir", str(tmp_path / "fleet"), "--shards", "2",
            "--workers", "2", "--approach", "loops", "--budget", "6",
            "--seed", "3", "--heartbeat", "0.05",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "status:      ok" in out
        assert "merged:" in out
        assert (tmp_path / "fleet" / "merged.jsonl").exists()
        assert (tmp_path / "fleet" / "fleet_events.jsonl").exists()

    def test_serve_queue_mode_drains_every_job(self, tmp_path, capsys):
        queue = tmp_path / "jobs.jsonl"
        queue.write_text(
            "# nightly queue\n"
            '{"name": "first", "approach": "loops", "budget": 4, '
            '"seed": 1, "shards": 2}\n'
            "\n"
            '{"approach": "varity", "budget": 4, "seed": 2, "shards": 1}\n'
        )
        code = cli_main([
            "serve", "--dir", str(tmp_path / "fleet"), "--queue", str(queue),
            "--workers", "2", "--heartbeat", "0.05",
        ])
        assert code == 0
        assert (tmp_path / "fleet" / "001-first" / "merged.jsonl").exists()
        assert (tmp_path / "fleet" / "002-varity" / "merged.jsonl").exists()
        out = capsys.readouterr().out
        assert out.count("status:      ok") == 2


class TestQueueFile:
    def test_load_jobs_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text('# comment\n\n{"approach": "loops", "shards": 2}\n')
        jobs = load_jobs(path)
        assert len(jobs) == 1
        assert jobs[0][0].approach == "loops" and jobs[0][1] == 2

    def test_malformed_line_fails_fast_with_location(self, tmp_path, capsys):
        path = tmp_path / "jobs.jsonl"
        path.write_text('{"approach": "loops"}\n{not json}\n')
        with pytest.raises(ValueError, match="jobs.jsonl:2"):
            load_jobs(path)
        fleet = tmp_path / "fleet"
        assert cli_main(["serve", "--dir", str(fleet), "--queue", str(path)]) == 2
        assert "jobs.jsonl:2: not valid JSON" in capsys.readouterr().err

    def test_bad_shard_count_rejected(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text('{"approach": "loops", "shards": 0}\n')
        with pytest.raises(ValueError, match="'shards' must be"):
            load_jobs(path)

    def test_zero_budget_rejected_before_any_worker(self, tmp_path, capsys):
        path = tmp_path / "jobs.jsonl"
        path.write_text('{"approach": "loops", "budget": 0}\n')
        fleet = tmp_path / "fleet"
        assert cli_main(["serve", "--dir", str(fleet), "--queue", str(path)]) == 2
        assert not fleet.exists() or not any(fleet.iterdir())
        assert "jobs.jsonl:1: budget must be positive" in capsys.readouterr().err

    def test_empty_queue_rejected(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no jobs"):
            load_jobs(path)

    def test_unknown_exec_mode_rejected_before_any_worker(self, tmp_path, capsys):
        for mode in ("jit", "tree"):
            path = tmp_path / f"jobs-{mode}.jsonl"
            path.write_text(
                '{"approach": "loops", "budget": 2}\n'
                f'{{"approach": "varity", "budget": 2, "exec_mode": "{mode}"}}\n'
            )
            with pytest.raises(ValueError, match=f"jobs-{mode}.jsonl:2: exec_mode"):
                load_jobs(path)
            fleet = tmp_path / f"fleet-{mode}"
            assert cli_main(["serve", "--dir", str(fleet), "--queue", str(path)]) == 2
            assert not fleet.exists() or not any(fleet.iterdir())
            err = capsys.readouterr().err.strip()
            assert err.count("\n") == 0 and f"jobs-{mode}.jsonl:2" in err
            assert f"exec_mode must be one of tape, check, got '{mode}'" in err

    def test_not_utf8_queue_exits_2_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "jobs.jsonl"
        path.write_bytes(b'{"approach": "loops"}\n\xff\n')
        with pytest.raises(ValueError, match="jobs.jsonl:2: not UTF-8"):
            load_jobs(path)
        fleet = tmp_path / "fleet"
        assert cli_main(["serve", "--dir", str(fleet), "--queue", str(path)]) == 2
        assert "jobs.jsonl:2" in capsys.readouterr().err

    def test_job_dirname_sanitizes(self):
        assert job_dirname(3, CampaignSpec(name="a b/c")) == "003-a-b-c"
        assert job_dirname(1, CampaignSpec(approach="loops")) == "001-loops"


class TestFleetResult:
    def test_deaths_aggregates_shards(self, tmp_path):
        shards = [
            ShardState(index=0, checkpoint=tmp_path / "a", owned=5, deaths=2),
            ShardState(index=1, checkpoint=tmp_path / "b", owned=5, deaths=1),
        ]
        result = FleetResult(
            spec=CampaignSpec(), shards=shards, events_path=tmp_path / "e"
        )
        assert result.deaths == 3
        assert not result.ok
