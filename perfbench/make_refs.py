"""Regenerate the committed reference digests in ``perfbench/refs/``.

    python3 perfbench/make_refs.py                      # every workload
    python3 perfbench/make_refs.py --workload loops-process

Each pool campaign runs once under ``exec_mode="check"``, which executes
every kernel on both the compiled tape and the tree interpreter and raises
on any differing bit, and the SHA-256 of every program's ``encode_outcome``
row is recorded.  For a checkpointed workload the campaign's checkpoint
must also be byte-identical to the file ``llm4fp run --resume`` writes for
the same approach, backend, jobs, budget and seed; its SHA-256 is recorded
too.  Regenerate only when a change is meant to alter campaign outcomes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time

from run import DEADLINE_S, REFS, ROOT, WORK, _child_env, launch
from workloads import BUDGET, WORKLOADS, Workload


def cli_checkpoint(workload: Workload, campaign_seed: int, budget: int = BUDGET) -> bytes:
    """The checkpoint ``llm4fp run`` writes for this workload campaign."""
    path = WORK / f"{workload.name}-{campaign_seed}.cli.jsonl"
    path.unlink(missing_ok=True)
    env = _child_env()
    env["PYTHONPATH"] = str(ROOT / "src")
    subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "run",
            "--approach", workload.approach,
            "--backend", workload.backend,
            "--jobs", str(workload.jobs),
            "--budget", str(budget),
            "--seed", str(campaign_seed),
            "--resume", str(path),
            "--quiet",
        ],
        cwd=ROOT,
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=DEADLINE_S,
    )
    return path.read_bytes()


def make_refs(workload: Workload) -> dict:
    campaigns = {}
    for campaign_seed in workload.campaign_seeds:
        deadline = time.monotonic() + DEADLINE_S
        report = launch(
            workload, campaign_seed, BUDGET, False, deadline, ("--exec-mode", "check")
        )
        entry = {"digests": report["digests"]}
        if workload.checkpoint:
            ours = (WORK / f"{workload.name}-{campaign_seed}.jsonl").read_bytes()
            theirs = cli_checkpoint(workload, campaign_seed)
            if ours != theirs:
                raise SystemExit(
                    f"{workload.name} campaign {campaign_seed}: checkpoint differs "
                    "from the one llm4fp run --resume writes"
                )
            entry["checkpoint_sha256"] = hashlib.sha256(theirs).hexdigest()
        campaigns[str(campaign_seed)] = entry
        print(f"{workload.name} {campaign_seed}: {len(entry['digests'])} digests", file=sys.stderr)
    return {"workload": workload.name, "budget": BUDGET, "exec_mode": "check", "campaigns": campaigns}


def write_refs(refs: dict) -> None:
    """One line per campaign, so a changed campaign shows as one changed line."""
    head = {k: v for k, v in refs.items() if k != "campaigns"}
    body = ",\n".join(
        f"  {json.dumps(seed)}: {json.dumps(entry)}"
        for seed, entry in refs["campaigns"].items()
    )
    text = json.dumps(head)[:-1] + ', "campaigns": {\n' + body + "\n}}\n"
    REFS.mkdir(exist_ok=True)
    (REFS / f"{refs['workload']}.json").write_text(text, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    WORK.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        write_refs(make_refs(WORKLOADS[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
