"""Execute-stage modes: campaign results identical for tape and check.

The engine's ``exec_mode`` swaps the executor under the execute stage;
nothing downstream may be able to tell.  These tests pin that at the
strongest level available — the v3 checkpoint byte stream — across every
(mode, backend) combination, and cover the knob's plumbing
(validation, ``REPRO_EXEC_MODE``, experiment settings).
"""

import pytest

from repro.cli import main as cli_main
from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine, EngineConfig
from repro.difftest.store import CampaignStore
from repro.experiments.approaches import make_generator
from repro.experiments.settings import ExperimentSettings
from repro.toolchains import default_compilers
from repro.utils.rng import SplittableRng


def _checkpoint_bytes(tmp_path, name, mode, backend, jobs):
    path = tmp_path / f"{name}.jsonl"
    CampaignEngine(
        default_compilers(),
        CampaignConfig(budget=4, seed=11),
        EngineConfig(exec_mode=mode, backend=backend, jobs=jobs),
    ).run(
        make_generator("loops", SplittableRng(11, "exec-modes")),
        store=CampaignStore(path),
    )
    return path.read_bytes()


class TestCampaignIdentity:
    @pytest.mark.parametrize(
        "mode,backend,jobs",
        [
            ("tape", "serial", 1),
            ("tape", "process", 2),
            ("check", "process", 2),
        ],
    )
    def test_checkpoints_byte_identical(self, tmp_path, mode, backend, jobs):
        reference = _checkpoint_bytes(tmp_path, "ref", "check", "serial", 1)
        assert (
            _checkpoint_bytes(tmp_path, f"{mode}-{backend}", mode, backend, jobs)
            == reference
        )


class TestExecModeKnob:
    def test_default_is_tape(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_MODE", raising=False)
        assert EngineConfig().exec_mode == "tape"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_MODE", "check")
        assert EngineConfig().exec_mode == "check"
        assert ExperimentSettings().exec_mode == "check"

    def test_invalid_mode_rejected(self):
        for mode in ("jit", "tree"):
            with pytest.raises(ValueError, match="exec_mode must be one of"):
                EngineConfig(exec_mode=mode)
            with pytest.raises(ValueError, match="exec_mode must be one of"):
                ExperimentSettings(exec_mode=mode)

    def test_env_tree_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_MODE", "tree")
        with pytest.raises(ValueError, match="exec_mode must be one of tape, check"):
            EngineConfig()
        with pytest.raises(ValueError, match="exec_mode must be one of tape, check"):
            ExperimentSettings()

    @pytest.mark.parametrize("command", ["run", "tables", "serve"])
    def test_cli_refuses_tree(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--exec-mode", "tree"])
        assert exc.value.code == 2
        assert "invalid choice: 'tree'" in capsys.readouterr().err

    def test_settings_flow_into_engine_config(self):
        from repro.experiments.runner import ExperimentContext

        ctx = ExperimentContext(ExperimentSettings(exec_mode="check"))
        assert ctx.engine_config().exec_mode == "check"

    def test_check_mode_engine_smoke(self):
        # check mode re-runs every execution through both executors and
        # raises on the first diverging bit; a clean campaign is itself
        # the assertion.
        engine = CampaignEngine(
            default_compilers(),
            CampaignConfig(budget=2, seed=5),
            engine_config=EngineConfig(exec_mode="check"),
        )
        result = engine.run(make_generator("varity", SplittableRng(5, "chk")))
        assert len(result.outcomes) == 2
