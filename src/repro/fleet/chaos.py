"""Worker side of ``llm4fp serve --chaos-kill-after N``.

``python -m repro.fleet.chaos N run ...`` runs ``llm4fp run ...`` and
SIGKILLs itself right after its N-th fsync'd checkpoint row: a program
takes milliseconds, too little for a supervisor's kill to land mid-shard.
"""

from __future__ import annotations

import os
import signal
import sys

from repro.cli import main
from repro.difftest.store import CampaignStore


def die_after(rows: int) -> None:
    """SIGKILL this process once ``rows`` outcomes are durably appended."""
    append = CampaignStore.append
    written = 0

    def append_then_die(store: CampaignStore, outcome) -> None:
        nonlocal written
        append(store, outcome)
        written += 1
        if written >= rows:
            os.kill(os.getpid(), signal.SIGKILL)

    CampaignStore.append = append_then_die


if __name__ == "__main__":
    die_after(int(sys.argv[1]))
    raise SystemExit(main(sys.argv[2:]))
