"""Pool workers of ``llm4fp run --backend process`` exit with their parent.

A SIGKILLed parent cannot shut its pool down; each worker watches its
parent's sentinel and exits on its own.  The campaign runs in a session
of its own, so every process it started can be found, and stopped,
through that session.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="finds the session's processes in /proc"
)

#: ``llm4fp`` with the start method given as the first argument.
RUN = (
    "import multiprocessing, sys\n"
    "multiprocessing.set_start_method(sys.argv[1])\n"
    "from repro.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


def _session(sid):
    """``{pid: ppid}`` of the live processes in session ``sid``; a zombie
    has exited, it only waits to be reaped."""
    members = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        state, ppid, _pgrp, session = stat.rpartition(")")[2].split()[:4]
        if int(session) == sid and state not in "ZX":
            members[int(entry)] = int(ppid)
    return members


def _wait_for(condition, seconds):
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_pool_workers_exit_when_the_parent_is_killed(tmp_path, method):
    checkpoint = tmp_path / "campaign.jsonl"
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    parent = subprocess.Popen(
        [
            sys.executable, "-c", RUN, method,
            "run", "--approach", "loops", "--budget", "5000", "--quiet",
            "--backend", "process", "--jobs", "2", "--resume", str(checkpoint),
        ],
        env=env,
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    sid = parent.pid
    try:
        # Past the header and a few outcomes, so the pool is running.
        assert _wait_for(
            lambda: checkpoint.exists()
            and checkpoint.read_bytes().count(b"\n") >= 4,
            60,
        ), "the campaign never reached its fourth outcome"
        workers = set(_session(sid)) - {parent.pid}
        assert workers, "no pool worker in the campaign's session"
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=10)
        assert _wait_for(lambda: not set(_session(sid)) & workers, 5), (
            f"pool workers outlived their parent: {sorted(set(_session(sid)) & workers)}"
        )
    finally:
        try:
            os.killpg(sid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if parent.poll() is None:
            parent.kill()
            parent.wait(timeout=10)
