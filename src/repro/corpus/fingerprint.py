"""Compiler-model version fingerprint for corpus provenance.

A corpus outlives any single campaign, so every ingest records *which*
simulated toolchain produced the triggers: a short content hash over
each compiler's identity (name, version) and its full per-level
behaviour surface — ``Compiler.cache_token``, which names every pass's
configuration in pipeline order and the observable FP environment —
across the whole level matrix.  Two corpora ingested under
byte-identical compiler models record identical fingerprints; bumping a
compiler version, changing a pass parameter, reordering a pipeline, or
flipping an FP-environment flag changes the fingerprint, which is how a
`corpus list` reader tells "this signature last reproduced under the
current model" from "this is a fossil of an older toolchain".
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from repro.toolchains import ALL_LEVELS, default_compilers
from repro.toolchains.base import Compiler
from repro.toolchains.optlevels import OptLevel

__all__ = ["model_fingerprint"]

#: hex digits kept from the sha256 digest — plenty to never collide
#: across the handful of compiler models a corpus will ever see, short
#: enough to read in a report line.
_FINGERPRINT_HEX_DIGITS = 16


def model_fingerprint(
    compilers: Iterable[Compiler] | None = None,
    levels: Sequence[OptLevel] | None = None,
) -> str:
    """Content hash of the compiler model the corpus is recording.

    Deterministic in the *content* of the toolchain, not its object
    identity or ordering: compilers are hashed sorted by name, and each
    contributes its name, version, and per-level ``cache_token``: every
    pass key in pipeline order plus the ``env_fingerprint`` (everything
    compilation and execution observe).
    """
    chosen = list(default_compilers()) if compilers is None else list(compilers)
    matrix = tuple(ALL_LEVELS) if levels is None else tuple(levels)
    digest = hashlib.sha256()
    for compiler in sorted(chosen, key=lambda c: c.name):
        digest.update(f"{compiler.name}\x00{compiler.version}\x1e".encode())
        for level in matrix:
            digest.update(f"{level}\x00{compiler.cache_token(level)}\x1e".encode())
    return digest.hexdigest()[:_FINGERPRINT_HEX_DIGITS]
