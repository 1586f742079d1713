"""CLI: regenerate paper artefacts.

    python -m repro.experiments table2
    python -m repro.experiments all
    REPRO_BUDGET=1000 python -m repro.experiments table4
"""

from __future__ import annotations

import sys

from repro.cli import TABLES
from repro.experiments.runner import ExperimentContext
from repro.experiments.settings import ExperimentSettings


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if not args or args[0] in ("-h", "--help"):
        print(__doc__)
        print("artefacts:", ", ".join([*TABLES, "all"]))
        return 0
    name = args[0]
    ctx = ExperimentContext(ExperimentSettings())
    if name == "all":
        for runner in TABLES.values():
            print(runner(ctx))
            print()
        return 0
    runner = TABLES.get(name)
    if runner is None:
        print(f"unknown artefact {name!r}; expected one of {list(TABLES)} or 'all'")
        return 2
    print(runner(ctx))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
