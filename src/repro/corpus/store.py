"""Append-only longitudinal trigger corpus, one JSONL file per fleet.

The file layout mirrors the repo's other durable logs
(:mod:`repro.difftest.store`, :mod:`repro.fleet.events`): a single
header line identifying the file kind and format version, then one
compact-JSON record per line, each fsync'd before the writer moves on,
with a crash-half-written tail truncated away on the next open.  Two
record kinds follow the header::

    {"kind": "ingest", "id": 1, "label": "nightly", "model": "…",
     "timestamp": "", "programs": 50, "triggers": 7, "distinct": 3,
     "new": 2}
    {"kind": "sig", "ingest": 1, "key": "[[…kinds…],[…cells…]]",
     "count": 4, "seed": {"source": "…", "inputs": […], "label": "…",
     "index": 12}}

``sig`` records carry a ``seed`` block only when the signature is new
or a strictly smaller trigger program was found, so the file stays an
append-only event log whose replay rebuilds the exact in-memory state.

Byte determinism is a contract, not an accident: nothing derived from
wall-clock, machine paths, or dict iteration order ever reaches the
file.  Ingests are numbered, signatures within an ingest are written in
sorted-key order, timestamps are caller-supplied strings (empty unless
an operator passes one), and program inputs round-trip through the
checkpoint store's bit-exact hex codec.  Ingesting the same checkpoint
sequence into a fresh corpus therefore reproduces the same bytes,
whatever backend or shard topology produced the checkpoints.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.difftest.record import CampaignResult
from repro.difftest.store import _dec_input, _enc_input, read_complete_lines
from repro.corpus.fingerprint import model_fingerprint
from repro.triage.cluster import TriageReport, outcome_signature

__all__ = [
    "CorpusError",
    "CorpusEntry",
    "RegressionSeed",
    "IngestReport",
    "DiffReport",
    "TriggerCorpus",
    "signature_key",
    "parse_key",
]

_FORMAT_VERSION = 1
_READABLE_VERSIONS = frozenset({1})


class CorpusError(ValueError):
    """Raised for corrupt, foreign, or future-versioned corpus files."""


def signature_key(kinds: Iterable[str], cells: Iterable[str]) -> str:
    """Stable string form of a (kinds, cells) cluster signature.

    Compact JSON of the two already-sorted tuples — lexicographically
    ordered keys sort deterministically, and :func:`parse_key` inverts
    the encoding exactly.
    """
    return json.dumps([list(kinds), list(cells)], separators=(",", ":"))


def parse_key(key: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Inverse of :func:`signature_key`."""
    try:
        kinds, cells = json.loads(key)
    except (ValueError, TypeError) as e:
        raise CorpusError(f"malformed signature key {key!r}") from e
    return tuple(kinds), tuple(cells)


@dataclass(frozen=True)
class RegressionSeed:
    """The smallest trigger program stored for one signature."""

    key: str
    source: str
    inputs: tuple
    origin_label: str
    origin_index: int

    @property
    def signature(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return parse_key(self.key)


@dataclass
class CorpusEntry:
    """Everything the corpus remembers about one cluster signature."""

    key: str
    count: int = 0  # triggers ever ingested with this signature
    first_ingest: int = 0
    last_ingest: int = 0
    first_label: str = ""
    last_label: str = ""
    first_timestamp: str = ""
    last_timestamp: str = ""
    first_model: str = ""
    last_model: str = ""
    seed_source: str = ""
    seed_inputs: tuple = ()
    seed_origin_label: str = ""
    seed_origin_index: int = -1

    @property
    def kinds(self) -> tuple[str, ...]:
        return parse_key(self.key)[0]

    @property
    def cells(self) -> tuple[str, ...]:
        return parse_key(self.key)[1]

    @property
    def seed(self) -> RegressionSeed:
        return RegressionSeed(
            key=self.key,
            source=self.seed_source,
            inputs=self.seed_inputs,
            origin_label=self.seed_origin_label,
            origin_index=self.seed_origin_index,
        )


@dataclass(frozen=True)
class IngestReport:
    """What one :meth:`TriggerCorpus.ingest` call did."""

    ingest_id: int
    label: str
    model: str
    timestamp: str
    programs: int  # outcomes examined (all programs)
    triggers: int  # triggering programs / weighted cluster members
    new_keys: tuple[str, ...]  # signatures never seen before, sorted
    known_keys: tuple[str, ...]  # signatures already in the corpus, sorted
    improved_keys: tuple[str, ...]  # known signatures whose seed shrank

    @property
    def distinct(self) -> int:
        return len(self.new_keys) + len(self.known_keys)


@dataclass(frozen=True)
class DiffReport:
    """A read-only comparison of triggers against the corpus."""

    programs: int
    triggers: int
    new_keys: tuple[str, ...]  # sorted, each exactly once
    known_keys: tuple[str, ...]
    counts: dict = field(default_factory=dict)  # key -> trigger count

    @property
    def distinct(self) -> int:
        return len(self.new_keys) + len(self.known_keys)


@dataclass(frozen=True)
class _Candidate:
    """One (signature, trigger program) pair normalized for ingest."""

    key: str
    source: str
    inputs: tuple
    label: str
    index: int
    weight: int = 1


def _seed_rank(source: str) -> tuple[int, str]:
    """Smaller-is-better ordering, matching triage's representative."""
    return (len(source), source)


def _candidates_of(source, label: str) -> tuple[list[_Candidate], int, int]:
    """Normalize a checkpoint result / triage report / outcome iterable
    into ingest candidates; returns (candidates, programs, triggers)."""
    if isinstance(source, TriageReport):
        candidates = []
        for cluster in source.clusters:
            rep = cluster.representative
            candidates.append(
                _Candidate(
                    key=signature_key(cluster.kinds, cluster.cells),
                    source=rep.reduced_source,
                    inputs=tuple(rep.inputs),
                    label=rep.source_label or label,
                    index=rep.index,
                    weight=cluster.count,
                )
            )
        return candidates, source.programs_seen, source.triggers
    if isinstance(source, CampaignResult):
        outcomes = list(source.outcomes)
    else:
        outcomes = list(source)
    triggering = [o for o in outcomes if o.triggered]
    candidates = []
    for outcome in triggering:
        kinds, cells = outcome_signature(outcome)
        candidates.append(
            _Candidate(
                key=signature_key(kinds, cells),
                source=outcome.program.source,
                inputs=tuple(outcome.program.inputs),
                label=label,
                index=outcome.index,
            )
        )
    return candidates, len(outcomes), len(triggering)


class TriggerCorpus:
    """The append-only signature corpus behind ``llm4fp corpus``.

    Open-for-append with :meth:`open` (creates the file, truncates a
    crash tail, replays every record into memory) or read-only with
    :meth:`load` (missing file reads as an empty corpus).  All mutation
    goes through :meth:`ingest`; :meth:`diff` never writes.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.entries: dict[str, CorpusEntry] = {}
        self.ingests = 0
        self._file = None
        # provenance of the ingest record currently being replayed, so
        # `sig` records know their first/last-seen context
        self._ingest_meta: dict = {}

    # -- lifecycle -------------------------------------------------------------

    def open(self) -> "TriggerCorpus":
        """Open for append, creating the file when missing."""
        if self._file is not None:
            return self
        if self.path.exists() and self.path.stat().st_size > 0:
            good, total = self._replay()
            if good < total:
                # crash tail: drop the partial record, keep the prefix
                with self.path.open("r+b") as f:
                    f.truncate(good)
            self._file = self.path.open("a", encoding="utf-8")
        else:
            self._file = self.path.open("w", encoding="utf-8")
            self._write_line({"kind": "corpus", "version": _FORMAT_VERSION})
        return self

    @classmethod
    def load(cls, path: str | os.PathLike) -> "TriggerCorpus":
        """Read-only snapshot; a missing path is an empty corpus."""
        corpus = cls(path)
        if corpus.path.exists() and corpus.path.stat().st_size > 0:
            corpus._replay()
        return corpus

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "TriggerCorpus":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def sorted_entries(self) -> list[CorpusEntry]:
        return [self.entries[k] for k in sorted(self.entries)]

    def seeds(self) -> list[RegressionSeed]:
        """Regression seeds in deterministic (sorted-key) replay order."""
        return [entry.seed for entry in self.sorted_entries()]

    def diff(self, source, label: str = "") -> DiffReport:
        """Partition a checkpoint's signatures into never-seen vs known.

        Read-only: the corpus file is not touched, so ``diff`` is safe
        to run from CI against a committed fixture corpus.
        """
        candidates, programs, triggers = _candidates_of(source, label)
        counts: dict[str, int] = {}
        for c in candidates:
            counts[c.key] = counts.get(c.key, 0) + c.weight
        new = tuple(sorted(k for k in counts if k not in self.entries))
        known = tuple(sorted(k for k in counts if k in self.entries))
        return DiffReport(
            programs=programs,
            triggers=triggers,
            new_keys=new,
            known_keys=known,
            counts=counts,
        )

    # -- mutation --------------------------------------------------------------

    def ingest(
        self,
        source,
        label: str = "",
        *,
        model: str | None = None,
        timestamp: str = "",
    ) -> IngestReport:
        """Fold a campaign result / triage report / outcome iterable in.

        Appends one ``ingest`` record plus one ``sig`` record per
        distinct signature (sorted by key), fsync'd line by line.  A
        signature's regression seed is written only when new or when a
        strictly smaller trigger arrived, keeping repeat ingests of the
        same checkpoint byte-deterministic and seed-stable.
        """
        if self._file is None:
            raise CorpusError(f"corpus {self.path} is not open for ingest")
        fingerprint = model_fingerprint() if model is None else model
        candidates, programs, triggers = _candidates_of(source, label)
        best: dict[str, _Candidate] = {}
        weights: dict[str, int] = {}
        for c in candidates:
            weights[c.key] = weights.get(c.key, 0) + c.weight
            held = best.get(c.key)
            if held is None or _seed_rank(c.source) < _seed_rank(held.source):
                best[c.key] = c
        new_keys, known_keys, improved_keys = [], [], []
        sig_records = []
        for key in sorted(best):
            candidate = best[key]
            entry = self.entries.get(key)
            record = {
                "kind": "sig",
                "ingest": self.ingests + 1,
                "key": key,
                "count": weights[key],
            }
            if entry is None:
                new_keys.append(key)
                wants_seed = True
            else:
                known_keys.append(key)
                wants_seed = _seed_rank(candidate.source) < _seed_rank(
                    entry.seed_source
                )
                if wants_seed:
                    improved_keys.append(key)
            if wants_seed:
                record["seed"] = {
                    "source": candidate.source,
                    "inputs": [_enc_input(v) for v in candidate.inputs],
                    "label": candidate.label,
                    "index": candidate.index,
                }
            sig_records.append(record)
        ingest_record = {
            "kind": "ingest",
            "id": self.ingests + 1,
            "label": label,
            "model": fingerprint,
            "timestamp": timestamp,
            "programs": programs,
            "triggers": triggers,
            "distinct": len(sig_records),
            "new": len(new_keys),
        }
        # Durability order matters: the ingest record lands before its
        # sig records so a crash mid-ingest leaves a replayable prefix.
        for record in [ingest_record, *sig_records]:
            self._write_line(record)
            self._apply(record)
        return IngestReport(
            ingest_id=self.ingests,
            label=label,
            model=fingerprint,
            timestamp=timestamp,
            programs=programs,
            triggers=triggers,
            new_keys=tuple(new_keys),
            known_keys=tuple(known_keys),
            improved_keys=tuple(improved_keys),
        )

    # -- record replay ---------------------------------------------------------

    def _replay(self) -> tuple[int, int]:
        """Fold the file's complete records into memory; returns the byte
        offset they end at and the file size.  A record of unknown kind,
        or missing or mistyping a field, raises :class:`CorpusError`
        naming the file and line."""
        records, good, total = read_complete_lines(self.path)
        self._validate_header(records)
        for line, record in enumerate(records[1:], start=2):
            try:
                self._apply(record)
            except (KeyError, TypeError, ValueError, AttributeError) as e:
                raise CorpusError(
                    f"{self.path}:{line}: bad corpus record "
                    f"({type(e).__name__}: {e})"
                ) from e
        return good, total

    def _apply(self, record: dict) -> None:
        """Fold one record into memory — the single code path shared by
        file replay and live ingest, so state after a reload is exactly
        the state after the writes."""
        kind = record.get("kind")
        if kind == "ingest":
            self.ingests = int(record["id"])
            self._ingest_meta = {
                "ingest": int(record["id"]),
                "label": record.get("label", ""),
                "model": record.get("model", ""),
                "timestamp": record.get("timestamp", ""),
            }
        elif kind == "sig":
            key = record["key"]
            parse_key(key)
            meta = self._ingest_meta
            entry = self.entries.get(key)
            if entry is None:
                entry = CorpusEntry(
                    key=key,
                    first_ingest=meta.get("ingest", 0),
                    first_label=meta.get("label", ""),
                    first_timestamp=meta.get("timestamp", ""),
                    first_model=meta.get("model", ""),
                )
                self.entries[key] = entry
            entry.count += int(record.get("count", 1))
            entry.last_ingest = meta.get("ingest", entry.first_ingest)
            entry.last_label = meta.get("label", "")
            entry.last_timestamp = meta.get("timestamp", "")
            entry.last_model = meta.get("model", "")
            seed = record.get("seed")
            if seed is not None:
                if not isinstance(seed["source"], str):
                    raise TypeError("seed source is not a string")
                entry.seed_source = seed["source"]
                entry.seed_inputs = tuple(_dec_input(v) for v in seed["inputs"])
                entry.seed_origin_label = seed.get("label", "")
                entry.seed_origin_index = int(seed.get("index", -1))
        else:
            raise CorpusError(
                f"unknown record kind {kind!r} — written by a newer version?"
            )

    # -- file plumbing ---------------------------------------------------------

    def _validate_header(self, records: list[dict]) -> None:
        if not records:
            raise CorpusError(
                f"{self.path} exists but is not a trigger corpus (no "
                "decodable header line); refusing to touch it — delete "
                "it or pass a different path"
            )
        header = records[0]
        if header.get("kind") != "corpus":
            raise CorpusError(
                f"{self.path} is not a trigger corpus (header {header!r}); "
                "refusing to touch it"
            )
        version = header.get("version")
        if type(version) is not int or version not in _READABLE_VERSIONS:
            raise CorpusError(
                f"unsupported corpus version {version!r} in {self.path} "
                f"(this build reads {sorted(_READABLE_VERSIONS)})"
            )

    def _write_line(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":")) + "\n"
        self._file.write(line)
        self._file.flush()
        os.fsync(self._file.fileno())
