"""Golden triage reports: one SHA-256 per rendered report.

Two reports are pinned, both with reduction on: the ``llm4fp triage
--demo`` report of the distilled trigger, and the report of a budget-12
``loops`` campaign at the CLI's default seed (the campaign
``llm4fp run --approach loops --budget 12`` writes).  The digest covers
every byte of :meth:`TriageReport.render`: the ranked findings, each
reduced program, its edit and oracle-test counts, and the bisection
traces.  A refactor of reduction, bisection or clustering must leave it
unchanged; a change that means to alter a report re-pins it and says
why.

Triage runs every candidate and bisection replay on the compiled tape.
The same two digests are asserted once more with those runs in
``check`` mode, which also runs the reference interpreter and raises on
any diverging bit.
"""

import hashlib
from functools import partial

import pytest

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine
from repro.execution.worker import run_kernel
from repro.experiments.approaches import make_generator
from repro.toolchains import default_compilers
from repro.triage import distilled_trigger, triage_campaign, triage_single
from repro.utils.rng import SplittableRng

#: The CLI's default ``--seed``.
DEFAULT_SEED = 20250916
BUDGET = 12

GOLDEN = {
    "demo": (
        "bd038ce8f1c92e50d83e7e3462a83280"
        "d6075fb920de753c670ed4a9973e0627"
    ),
    "loops": (
        "c9889e34e488a6ee8fd54dead0cc9531"
        "a0545a2d40cf2c5b0e77d0bb5b75401d"
    ),
}


def demo_report():
    compilers = default_compilers()
    engine = CampaignEngine(compilers, CampaignConfig(budget=1))
    outcome = engine.test_program(0, distilled_trigger())
    return triage_single(outcome, compilers, label="demo")


def loops_report():
    generator = make_generator(
        "loops", SplittableRng(DEFAULT_SEED, "cli-loops"), tiers="baseline"
    )
    engine = CampaignEngine(
        default_compilers(), CampaignConfig(budget=BUDGET, seed=DEFAULT_SEED)
    )
    return triage_campaign(engine.run(generator))


REPORTS = {"demo": demo_report, "loops": loops_report}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_triage_report_matches_golden_digest(name):
    text = REPORTS[name]().render()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]


def test_triage_on_the_tape_matches_the_interpreter(monkeypatch):
    checked = partial(run_kernel, mode="check")
    monkeypatch.setattr("repro.toolchains.base.run_kernel", checked)
    monkeypatch.setattr("repro.triage.bisect.run_kernel", checked)
    for name in sorted(GOLDEN):
        text = REPORTS[name]().render()
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name], name
