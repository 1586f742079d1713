"""Docs CI: run the documentation's code snippets and check its links.

Documentation that never executes rots silently.  This driver keeps the
docs honest two ways:

* every fenced ```python block in ``docs/*.md`` and ``README.md`` that
  contains ``>>>`` interpreter sessions is executed through
  :mod:`doctest` (one shared namespace per file, so later snippets can
  build on earlier ones);
* every relative markdown link/image target must resolve to an existing
  file (external ``http(s)``/``mailto`` links and pure ``#`` anchors are
  skipped — CI must not depend on the network);
* every backticked ``repro.…`` dotted name must import as a module or
  resolve as an attribute of one, so a deleted or renamed API cannot
  linger in prose;
* every ``*.md`` file named in the docs or in a ``src/`` module must
  exist, relative to the naming file's directory or to the repo root,
  so prose cannot point at a document that was never written or has
  since been deleted;
* every ``llm4fp`` subcommand registered in ``src/repro/cli.py`` and
  every ``REPRO_*`` environment knob referenced anywhere under ``src/``
  must be mentioned somewhere in the documentation — a new subcommand or
  knob that ships undocumented fails the job (the coverage sweep runs
  only on unfiltered invocations).

Any doctest failure, dangling link, missing document, stale name or
coverage gap fails the job.

    python scripts/check_docs.py            # all docs
    python scripts/check_docs.py vector     # substring filter on file names
"""

from __future__ import annotations

import doctest
import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
#: [text](target) and ![alt](target), ignoring images' titles
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: a backticked dotted name in the package (also the head of
#: ``repro.x.f(...)``)
_REPRO_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")
#: a markdown file named in prose or a link (``fleet.md``, ``docs/fleet.md``)
_MD_NAME = re.compile(r"[\w./-]*\w\.md\b")
#: subcommand registrations in the CLI module
_SUBCOMMAND = re.compile(r"add_parser\(\s*\n?\s*\"([a-z][a-z-]*)\"")
#: environment knobs anywhere in the package source (no trailing
#: underscore: prose like ``REPRO_FLEET_*`` is a family, not a knob)
_ENV_KNOB = re.compile(r"\bREPRO_[A-Z]+(?:_[A-Z]+)*\b")


def doctest_blocks(path: Path) -> tuple[int, int]:
    """Run every ``>>>`` snippet in ``path``; returns (attempted, failed)."""
    text = path.read_text(encoding="utf-8")
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    parser = doctest.DocTestParser()
    globs: dict = {}  # shared across the file's blocks, like one session
    attempted = failed = 0
    for i, match in enumerate(_FENCE.finditer(text)):
        block = match.group(1)
        if ">>>" not in block:
            continue
        test = parser.get_doctest(block, globs, f"{path.name}[{i}]", str(path), 0)
        result = runner.run(test, clear_globs=False)
        globs.update(test.globs)  # get_doctest copies; carry state forward
        attempted += result.attempted
        failed += result.failed
    return attempted, failed


def check_links(path: Path) -> list[str]:
    """Dangling relative link targets in ``path`` (empty = all resolve)."""
    problems = []
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(f"{path.relative_to(REPO)}: dangling link -> {target}")
    return problems


def missing_documents(path: Path) -> list[str]:
    """``*.md`` names in ``path`` that exist neither next to ``path`` nor
    under the repo root."""
    problems = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        for name in _MD_NAME.findall(line):
            if not ((path.parent / name).exists() or (REPO / name).exists()):
                problems.append(f"{path.relative_to(REPO)}:{lineno}: no such document {name}")
    return problems


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` imports as a module or resolves as an attribute
    of its longest importable prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def stale_names(path: Path) -> list[str]:
    """Backticked ``repro.…`` names in ``path`` that no longer resolve."""
    names = sorted(set(_REPRO_NAME.findall(path.read_text(encoding="utf-8"))))
    return [
        f"{path.relative_to(REPO)}: `{name}` does not resolve"
        for name in names
        if not resolves(name)
    ]


def coverage_problems() -> list[str]:
    """CLI subcommands and ``REPRO_*`` knobs the docs fail to mention.

    Mention-level coverage, deliberately grep-based: ``llm4fp <name>``
    must appear verbatim in some doc page for every registered
    subcommand, and every environment knob the source reads must appear
    by name.  ``docs/configuration.md`` is the natural home for knobs;
    anywhere in the docs (README included) counts.
    """
    docs_text = "\n".join(
        path.read_text(encoding="utf-8") for path in DOC_FILES if path.exists()
    )
    problems = []
    cli_source = (REPO / "src" / "repro" / "cli.py").read_text(encoding="utf-8")
    for name in sorted(set(_SUBCOMMAND.findall(cli_source))):
        if f"llm4fp {name}" not in docs_text:
            problems.append(
                f"undocumented CLI subcommand: `llm4fp {name}` appears in "
                "no doc page (add it to README.md or docs/)"
            )
    knobs: set[str] = set()
    for path in sorted((REPO / "src").rglob("*.py")):
        knobs.update(_ENV_KNOB.findall(path.read_text(encoding="utf-8")))
    for knob in sorted(knobs):
        if knob not in docs_text:
            problems.append(
                f"undocumented environment knob: {knob} appears in no doc "
                "page (docs/configuration.md is its reference table)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    needle = args[0] if args else ""
    failures = 0
    total = 0
    checked = 0
    file_problems: list[str] = []
    for path in DOC_FILES:
        if needle and needle not in path.name:
            continue
        if not path.exists():
            print(f"MISSING: {path}", file=sys.stderr)
            failures += 1
            continue
        checked += 1
        attempted, failed = doctest_blocks(path)
        total += attempted
        failures += failed
        file_problems.extend(check_links(path))
        file_problems.extend(missing_documents(path))
        file_problems.extend(stale_names(path))
        status = "ok" if not failed else f"{failed} FAILED"
        print(f"{path.relative_to(REPO)}: {attempted} doctest example(s), {status}")
    if not needle:
        for path in sorted((REPO / "src").rglob("*.py")):
            file_problems.extend(missing_documents(path))
    coverage = coverage_problems() if not needle else []
    for problem in (*file_problems, *coverage):
        print(problem, file=sys.stderr)
    if not checked:
        print(f"no doc file matches {needle!r}", file=sys.stderr)
        return 2
    if not total and not needle:
        print("no doctest examples found — docs missing?", file=sys.stderr)
        return 2
    return 1 if failures or file_problems or coverage else 0


if __name__ == "__main__":
    raise SystemExit(main())
