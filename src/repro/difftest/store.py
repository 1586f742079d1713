"""Persistent campaign checkpoints and shard merging.

A :class:`CampaignStore` is an append-only JSONL file: one header line
identifying the campaign (approach, budget, levels, compilers, seed,
shard), then one self-contained record per completed program.  The engine
appends a record the moment a program's matrix finishes, so a campaign
killed at program *k* resumes from *k* — the cheap generate stage replays
(restoring generator/feedback state) and only unfinished programs
recompute.

Every float crosses the file boundary as its IEEE-754 bit pattern
(16 hex digits via :func:`repro.fp.bits.double_to_hex`), never as a
decimal string, so NaNs, infinities, signed zeros and subnormals
round-trip bit-exactly and a resumed :class:`CampaignResult` is
byte-identical to an uninterrupted one.

A truncated final line — the signature of a crash mid-append — is
detected on open and the file is truncated back to the last complete
record; everything before it is trusted, everything after recomputed.

:func:`merge_shard_stores` is the other half of ``--shard i/n``: it
checks that a set of shard checkpoints is every shard of one campaign,
covering the full budget, and splices their records back into index
order, so the merged file is byte-identical to an unsharded run's
checkpoint.  ``llm4fp merge`` reads a shard set through the same checks.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator

from repro.difftest.record import CampaignResult, ComparisonRecord, ProgramOutcome
from repro.fp.bits import double_to_hex, hex_to_double
from repro.generation.program import GeneratedProgram
from repro.toolchains.optlevels import OptLevel

__all__ = [
    "CampaignStore",
    "CampaignStoreError",
    "load_result",
    "merge_shard_stores",
    "read_island_records",
    "read_complete_lines",
    "tail_outcomes",
    "encode_outcome",
    "decode_outcome",
]

# Version history:
#
# * v1 — pre-vectorization compiler models; comparison rows carry no
#   structural ``tag`` field.
# * v2 — added the per-comparison structural ``tag`` (vector-reduction)
#   alongside the vectorizing toolchain pipelines.
# * v3 — the if-conversion (masked vectorization) tier: ``tag`` may now
#   also be ``masked-lane``, and the host/device pipelines if-convert, so
#   v3 campaigns compute different matrices than v2 ones.
# * v4 — island-model generation: the header gains ``islands`` and
#   ``merge_every`` (0/0 when the campaign is not island-partitioned) and
#   files may carry ``island`` merge-point records between outcomes.  A
#   v3 header reads as islands=0/merge_every=0.  Later v4 writers add an
#   optional ``tiers`` header field when the campaign ran under a
#   non-default divergence-tier profile (see :mod:`repro.tiers`), in
#   which case rows may carry the newer tier tags (``vec-libm``,
#   ``mixed-precision``, ``masked-int-guard``); a header without the
#   field reads as ``tiers="baseline"``, whose rows — and bytes — are
#   identical to pre-registry v4 files.
#
# New checkpoints are written at the current version.  Older versions
# remain *readable* (``load_result`` / ``merge`` / ``triage`` — missing
# ``tag`` fields decode as None) and *resumable*: the stored outcomes are
# trusted as recorded, which is what an operator pointing ``--resume`` at
# a pre-existing nightly checkpoint asks for.  Opening a legacy file for
# resume upgrades its header to the current version (rows appended from
# that point on are computed by the current models, and the header names
# the newest writer); the retained legacy rows still describe the models
# of the version that wrote them — analyses mixing versions are comparing
# those models, not a bug in the store.
_FORMAT_VERSION = 4
_READABLE_VERSIONS = frozenset({1, 2, 3, _FORMAT_VERSION})

#: Optional header fields, with the value their absence implies: the v4
#: island fields (pre-v4 headers) and the divergence-tier profile
#: (written only when non-default, so baseline headers keep pre-registry
#: bytes).
_ISLAND_DEFAULTS = {"islands": 0, "merge_every": 0}
_HEADER_DEFAULTS = {**_ISLAND_DEFAULTS, "tiers": "baseline"}


class CampaignStoreError(ValueError):
    """The checkpoint file is malformed or belongs to another campaign."""


# -- the complete-line reader ----------------------------------------------------


def _complete_lines(data: bytes) -> Iterator[tuple[bytes, dict]]:
    """Yield ``(raw line, record)`` for each leading complete JSON object.

    Stops at the first line that is partial, undecodable or not a JSON
    object (a record half-written when the process died); writers
    truncate the file there.  Every append-only JSONL log of the package
    — checkpoints, the trigger corpus, fleet events — reads through it.
    """
    for raw in data.splitlines(keepends=True):
        if not raw.endswith(b"\n"):
            return  # partial final line
        try:
            record = json.loads(raw.decode("utf-8"))
        except ValueError:  # also UnicodeDecodeError
            return
        if not isinstance(record, dict):
            return
        yield raw, record


def read_complete_lines(path: str | os.PathLike) -> tuple[list[dict], int, int]:
    """``path``'s complete leading records, the byte offset they end at,
    and the file size (see :func:`_complete_lines`)."""
    data = Path(path).read_bytes()
    records: list[dict] = []
    good = 0
    for raw, record in _complete_lines(data):
        records.append(record)
        good += len(raw)
    return records, good, len(data)


# -- bit-exact scalar encoding --------------------------------------------------


def _enc_float(v: float | None) -> str | None:
    return None if v is None else double_to_hex(v)


def _dec_float(s: str | None) -> float | None:
    return None if s is None else hex_to_double(s)


def _enc_input(v) -> dict:
    """One ``compute`` argument: int scalar, float scalar, or float array."""
    if isinstance(v, (tuple, list)):
        return {"a": [double_to_hex(float(x)) for x in v]}
    if isinstance(v, float):
        return {"f": double_to_hex(v)}
    if isinstance(v, int) and not isinstance(v, bool):
        return {"i": v}
    raise CampaignStoreError(f"unsupported input type {type(v).__name__}: {v!r}")


def _dec_input(d: dict):
    if "a" in d:
        return tuple(hex_to_double(x) for x in d["a"])
    if "f" in d:
        return hex_to_double(d["f"])
    if "i" in d:
        return d["i"]
    raise CampaignStoreError(f"unrecognized input encoding: {d!r}")


# -- outcome (de)serialization --------------------------------------------------


def encode_outcome(outcome: ProgramOutcome) -> dict:
    """One program's complete record as a JSON-safe dict."""
    return {
        "kind": "outcome",
        "index": outcome.index,
        "program": {
            "source": outcome.program.source,
            "inputs": [_enc_input(v) for v in outcome.program.inputs],
            "meta": outcome.program.meta,
        },
        "compiled": outcome.compiled,
        "ran": outcome.ran,
        "signatures": outcome.signatures,
        "values": {k: double_to_hex(v) for k, v in outcome.values.items()},
        "comparisons": [
            {
                "a": c.compiler_a,
                "b": c.compiler_b,
                "level": str(c.level),
                "consistent": c.consistent,
                "value_a": _enc_float(c.value_a),
                "value_b": _enc_float(c.value_b),
                "digit_diff": c.digit_diff,
                "tag": c.tag,
            }
            for c in outcome.comparisons
        ],
        "triggered": outcome.triggered,
    }


def _budget_index(record: dict, key: str) -> int:
    """``record[key]`` as a budget index: ``KeyError`` when it is missing,
    ``TypeError`` when it is not an int."""
    value = record[key]
    if type(value) is not int:  # bool is an int subclass
        raise TypeError(f"{key!r} must be an int, got {value!r}")
    return value


def decode_outcome(record: dict) -> ProgramOutcome:
    """Inverse of :func:`encode_outcome` (bit-exact)."""
    index = _budget_index(record, "index")
    prog = record["program"]
    program = GeneratedProgram(
        source=prog["source"],
        inputs=tuple(_dec_input(v) for v in prog["inputs"]),
        meta=dict(prog["meta"]),
    )
    outcome = ProgramOutcome(
        index=index,
        program=program,
        compiled=dict(record["compiled"]),
        ran=dict(record["ran"]),
        triggered=record["triggered"],
        signatures=dict(record["signatures"]),
        values={k: hex_to_double(v) for k, v in record["values"].items()},
    )
    outcome.comparisons = [
        ComparisonRecord(
            program_index=index,
            compiler_a=c["a"],
            compiler_b=c["b"],
            level=OptLevel(c["level"]),
            consistent=c["consistent"],
            value_a=_dec_float(c["value_a"]),
            value_b=_dec_float(c["value_b"]),
            digit_diff=c["digit_diff"],
            tag=c.get("tag"),
        )
        for c in record["comparisons"]
    ]
    return outcome


# -- the store -------------------------------------------------------------------


class CampaignStore:
    """Append-only JSONL checkpoint of one campaign (or one shard of one).

    Usage is mediated by the engine: :meth:`open` validates the header
    against the campaign about to run (writing it on first use) and
    returns the already-completed outcomes; :meth:`append` durably
    records one more.  A store file is self-describing — ``--resume`` on
    a different machine only needs the file and the same campaign
    invocation.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        #: ``island`` merge-point records found by :meth:`open` (file
        #: order), extended by :meth:`append_island` — the engine replays
        #: these into the island coordinator on ``--resume``.
        self.island_records: list[dict] = []

    def open(self, header: dict) -> dict[int, ProgramOutcome]:
        """Validate/initialize the file; return checkpointed outcomes."""
        expected = {"kind": "campaign", "version": _FORMAT_VERSION, **header}
        if not self.path.exists() or self.path.stat().st_size == 0:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._write_line(expected, mode="w")
            return {}
        lines, good_bytes, total_bytes = read_complete_lines(self.path)
        if not lines:
            # A non-empty file with no decodable header is NOT ours to
            # reinitialize — --resume may have been pointed at the wrong
            # path, and overwriting would destroy it.
            raise CampaignStoreError(
                f"{self.path} exists but is not a campaign checkpoint "
                "(no decodable header line); refusing to overwrite — "
                "delete it or pass a different path"
            )
        stored_header = lines[0]
        legacy = stored_header != expected
        if legacy and not self._legacy_match(stored_header, expected):
            si, ei = self._identity(stored_header), self._identity(expected)
            fields = sorted(k for k in si | ei if si.get(k) != ei.get(k))
            if not fields:  # identities agree: an unreadable version is the cause
                fields = ["version"]
            raise CampaignStoreError(
                f"checkpoint {self.path} belongs to a different campaign "
                f"(mismatched: {', '.join(fields)}):\n"
                f"  stored:   {stored_header}\n  expected: {expected}"
            )
        if good_bytes < total_bytes:
            # crash tail: drop the partial record, keep the complete prefix
            with self.path.open("r+b") as f:
                f.truncate(good_bytes)
        if legacy:
            # Upgrade the header before any append: rows this campaign
            # adds are computed by the *current* models, and the header
            # must describe the newest writer — the retained legacy rows
            # stay trusted as recorded (that is what resuming an old
            # nightly asks for), their bytes untouched.
            self._rewrite_header(expected)
        outcomes, self.island_records = _decode_records(lines[1:], self.path)
        return {outcome.index: outcome for outcome in outcomes}

    def append(self, outcome: ProgramOutcome) -> None:
        """Durably checkpoint one completed program."""
        self._write_line(encode_outcome(outcome), mode="a")

    def append_island(self, record: dict) -> None:
        """Durably checkpoint one island merge-point record.

        Written immediately after the outcome the boundary fell on, so
        the record's file position encodes where
        :func:`merge_shard_stores` must splice it in the merged file.
        """
        self._write_line(record, mode="a")
        self.island_records.append(record)

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _identity(header: dict) -> dict:
        """The campaign identity a header pins, normalized across versions
        (pre-v4 headers imply islands=0 / merge_every=0)."""
        ident = {k: v for k, v in header.items() if k != "version"}
        for key, default in _HEADER_DEFAULTS.items():
            ident.setdefault(key, default)
        return ident

    @classmethod
    def _legacy_match(cls, stored: dict, expected: dict) -> bool:
        """Whether ``stored`` is the same campaign at an older, readable
        format version — the ``--resume`` compat path for pre-masked-tier
        nightly checkpoints (rows simply decode with ``tag=None``, headers
        without island fields as islands=0)."""
        if stored.get("version") not in _READABLE_VERSIONS:
            return False
        return cls._identity(stored) == cls._identity(expected)

    def _rewrite_header(self, header: dict) -> None:
        """Replace the first line with ``header``, record bytes untouched
        (atomic via temp-file rename, like the append path's fsync this
        never leaves a torn file behind)."""
        data = self.path.read_bytes()
        _, _, records = data.partition(b"\n")
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("wb") as f:
            f.write(
                json.dumps(header, separators=(",", ":")).encode("utf-8")
                + b"\n"
                + records
            )
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.path)

    def _write_line(self, record: dict, mode: str) -> None:
        with self.path.open(mode, encoding="utf-8") as f:
            f.write(json.dumps(record, separators=(",", ":")) + "\n")
            f.flush()
            os.fsync(f.fileno())


def _decode_records(
    records: list[dict], path: str | os.PathLike
) -> tuple[list[ProgramOutcome], list[dict]]:
    """Split a checkpoint's body into decoded outcomes and island records.

    Raises :class:`CampaignStoreError` naming ``path`` on an unknown
    record kind, an outcome record missing or mistyping a field, or an
    island record without an int ``after``.  Every reader of checkpoint
    bodies goes through here, the heartbeat and the shard merge included.
    """
    outcomes: list[ProgramOutcome] = []
    islands: list[dict] = []
    for record in records:
        kind = record.get("kind")
        if kind not in ("outcome", "island"):
            raise CampaignStoreError(f"unexpected record kind {kind!r} in {path}")
        try:
            if kind == "island":
                _budget_index(record, "after")
                islands.append(record)
            else:
                outcomes.append(decode_outcome(record))
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            raise CampaignStoreError(
                f"malformed {kind} record in {path}: {type(e).__name__}: {e}"
            ) from e
    return outcomes, islands


def _read_checkpoint(path: str | os.PathLike) -> tuple[dict, list[tuple[bytes, dict]]]:
    """``path``'s header and its complete body lines as ``(raw, record)``.

    A crash tail is skipped: the complete prefix is what resume trusts.
    Raises :class:`CampaignStoreError` naming ``path`` when the file
    cannot be read, has no campaign header or has an unreadable version.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise CampaignStoreError(f"cannot read checkpoint {path}: {e.strerror}") from e
    lines = list(_complete_lines(data))
    if not lines or lines[0][1].get("kind") != "campaign":
        raise CampaignStoreError(f"{path} is not a campaign checkpoint")
    header = lines[0][1]
    if header.get("version") not in _READABLE_VERSIONS:
        raise CampaignStoreError(
            f"{path}: unsupported checkpoint version {header.get('version')!r}"
        )
    return header, lines[1:]


def _result(
    header: dict, outcomes: list[ProgramOutcome], path: str | os.PathLike
) -> CampaignResult:
    """The :class:`CampaignResult` a checkpoint header and its outcomes
    describe, outcomes in index order."""
    try:
        return CampaignResult(
            approach=header["approach"],
            budget=_budget_index(header, "budget"),
            levels=tuple(OptLevel(s) for s in header["levels"]),
            compilers=tuple(header["compilers"]),
            outcomes=sorted(outcomes, key=lambda o: o.index),
            shard_index=_budget_index(header, "shard_index"),
            shard_count=_budget_index(header, "shard_count"),
            tiers=header.get("tiers", "baseline"),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise CampaignStoreError(
            f"malformed checkpoint header in {path}: {type(e).__name__}: {e}"
        ) from e


def load_result(path: str | os.PathLike) -> CampaignResult:
    """Reconstruct a :class:`CampaignResult` from a checkpoint file alone.

    The file is self-describing (the header pins approach, budget, levels,
    compilers and shard).  Timing and dedup counters are not
    checkpointed — they describe the machine that ran the campaign, not
    the campaign — so they read zero on a loaded result.
    """
    header, lines = _read_checkpoint(path)
    outcomes, _ = _decode_records([record for _, record in lines], path)
    return _result(header, outcomes, path)


def read_island_records(path: str | os.PathLike) -> list[dict]:
    """All complete ``island`` merge-point records in a checkpoint.

    The sharded exchange path: an island polls its siblings' checkpoint
    files for the exports it needs to cross a merge point.  A file that
    does not exist yet (the sibling has not started) reads as ``[]``, as
    does a crash tail — only complete, fsync'd records are visible.
    """
    p = Path(path)
    if not p.exists():
        return []
    lines, _, _ = read_complete_lines(p)
    return [r for r in lines if r.get("kind") == "island"]


# -- incremental progress reads ---------------------------------------------------


def tail_outcomes(
    path: str | os.PathLike, offset: int = 0
) -> tuple[list[int], int]:
    """Budget indices of complete outcome records appended since ``offset``.

    The fleet supervisor's heartbeat: a worker's only obligation is to
    keep appending fsync'd records to its checkpoint, so *row growth at
    the file's tail* is liveness.  This reads from byte ``offset``
    (0 = start of file), decodes only the complete trailing records —
    never re-reading the prefix a previous call already consumed — and
    returns ``(new_indices, new_offset)`` where ``new_offset`` is the
    position after the last complete line.  A partial final line (a
    record being appended right now, or a crash tail) is left for the
    next call.  A file that does not exist yet reads as ``([], 0)``:
    a freshly assigned worker simply has not created its store yet.

    Non-outcome records (the header) are consumed but not reported; a
    malformed outcome record raises :class:`CampaignStoreError` naming
    ``path``.
    """
    p = Path(path)
    try:
        with p.open("rb") as f:
            f.seek(offset)
            data = f.read()
    except FileNotFoundError:
        return [], 0
    indices: list[int] = []
    good = offset
    for raw, record in _complete_lines(data):
        good += len(raw)
        if record.get("kind") == "outcome":
            (outcome,), _ = _decode_records([record], path)
            indices.append(outcome.index)
    return indices, good


# -- shard merging ---------------------------------------------------------------


_SHARD_KEYS = ("shard_index", "shard_count")


def _read_shard_set(
    paths: list[str | os.PathLike],
) -> tuple[dict, list[bytes], CampaignResult]:
    """Read and check the checkpoint files of every shard of one campaign.

    Checks one campaign identity (the whole header but its shard), a
    common shard count, no duplicate or missing shard, and exact coverage
    of the budget; a crash tail is skipped.  Returns the merged header
    (shard 0's, with the shard rewritten to ``0/1``), the body lines in
    the order an unsharded run writes them, and the merged result decoded
    from them.  Raises :class:`CampaignStoreError` on any violation.
    """
    if not paths:
        raise CampaignStoreError("a shard set needs at least one checkpoint file")
    headers: list[dict] = []
    rows: dict[int, bytes] = {}
    island_rows: dict[int, list[bytes]] = {}  # budget index -> island lines after it
    outcomes: list[ProgramOutcome] = []
    for path in paths:
        header, lines = _read_checkpoint(path)
        headers.append(header)
        for raw, record in lines:
            decoded, islands = _decode_records([record], path)
            if islands:
                island_rows.setdefault(record["after"], []).append(raw)
                continue
            index = decoded[0].index
            if index in rows:
                raise CampaignStoreError(
                    f"duplicate outcome for budget index {index} "
                    f"(shards overlap or a file was passed twice)"
                )
            rows[index] = raw
            outcomes.extend(decoded)

    def identity(h: dict) -> dict:
        return {k: v for k, v in h.items() if k not in _SHARD_KEYS}

    first = headers[0]
    count = _result(first, [], paths[0]).shard_count
    seen: set[int] = set()
    for path, h in zip(paths, headers):
        if identity(h) != identity(first):
            fields = sorted(
                k for k in identity(h) | identity(first) if h.get(k) != first.get(k)
            )
            raise CampaignStoreError(
                "shard checkpoints describe different campaigns "
                f"(mismatched: {', '.join(fields)}): {paths[0]} vs {path}"
            )
        shard = _result(h, [], path)
        if shard.shard_count != count:
            raise CampaignStoreError(f"mixed shard counts: {shard.shard_count} vs {count}")
        if shard.shard_index in seen:
            raise CampaignStoreError(f"duplicate shard {shard.shard_index}/{count}")
        seen.add(shard.shard_index)
    if seen != set(range(count)):
        missing = sorted(set(range(count)) - seen)
        raise CampaignStoreError(f"incomplete shard set: missing {missing} of /{count}")
    merged_header = {**first, "shard_index": 0, "shard_count": 1}
    result = _result(merged_header, outcomes, paths[0])
    if sorted(rows) != list(range(result.budget)):
        raise CampaignStoreError(
            "merged shards do not cover the budget exactly "
            f"({len(rows)} outcomes for budget {result.budget})"
        )
    # Each shard wrote its island records right after the boundary
    # outcome; replaying them at the same index reproduces the byte
    # layout of the unsharded --islands run.
    body = [
        line
        for index in range(result.budget)
        for line in (rows[index], *island_rows.get(index, ()))
    ]
    return merged_header, body, result


def merge_shard_stores(
    paths: list[str | os.PathLike], out_path: str | os.PathLike
) -> Path:
    """Splice shard checkpoint files into one merged checkpoint file.

    Each shard's record lines are kept verbatim (never re-encoded) and
    written to ``out_path`` in budget-index order under a header whose
    shard is rewritten to ``0/1``.  Because every shard replays the
    identical program stream and the engine's encoding is deterministic,
    the merged file is **byte-identical to the checkpoint an unsharded
    ``run --resume`` would have written** — the property the fleet
    supervisor's kill/reassign contract is audited against.

    Raises :class:`CampaignStoreError` when the files are not every shard
    of one campaign (see :func:`_read_shard_set`); the merged file is
    then not written.
    """
    header, body, _ = _read_shard_set(paths)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + ".tmp")
    with tmp.open("wb") as f:
        # Shard 0's header key order is the writer's, so the bytes match
        # an unsharded run.
        f.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
        f.writelines(body)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, out)
    return out
