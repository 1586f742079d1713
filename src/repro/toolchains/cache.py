"""Content fingerprints of IR nodes and FP environments.

The structural tagger asks whether two *different* kernel objects strip
to equal devectorized statements, and compares environments; the corpus
hashes environments into its compiler-model fingerprint.  Both need keys
that address *content*, never object identity (run sharing groups
binaries by kernel object and needs no content key):

* :func:`kernel_fingerprint` interns an IR node into a caller-owned table
  and returns a small int.  Each node is interned as its class, the
  ``repr`` of each non-child field and its children's keys (child fields
  from :data:`repro.ir.nodes.FIELDS`), so two nodes interned into one
  table get equal keys exactly when their ``repr``s are equal:
  ``-0.0`` and ``0.0`` stay distinct (structural ``==`` would conflate
  them — a signed-zero print is observable) and all NaN literals
  collapse, matching the signature canonicalization.  Rewrites return
  unchanged subtrees as the same objects, so sibling kernels share most
  nodes, and each node object is interned once per table.
* :func:`env_fingerprint` captures everything an
  :class:`~repro.fp.env.FPEnvironment` feeds into execution: precision,
  libm identity + perturbation parameters, FTZ and approx-unit flags.

Nothing here is cached across programs: an intern table lives in one
program's tier-evidence memo and is dropped with it.
"""

from __future__ import annotations

from repro.fp.env import FPEnvironment
from repro.ir import nodes as ir

__all__ = [
    "kernel_fingerprint",
    "env_fingerprint",
    "scalar_env_fingerprint",
]


def _libm_key(libm) -> tuple | None:
    if libm is None:
        return None
    return (
        type(libm).__name__,
        libm.name,
        getattr(libm, "max_ulps", None),
        getattr(libm, "perturb_prob", None),
        getattr(libm, "huge_trig_nan_prob", None),
    )


def kernel_fingerprint(node, table: dict) -> int:
    """An IR node's content key in ``table`` (equal iff ``repr``-equal).

    ``table`` maps each node shape ``(class, field keys...)`` to its int
    key, and each interned node's ``id`` to ``(node, key)``; holding the
    node pins its ``id`` for the table's lifetime.  Shapes are tuples and
    ids are ints, so the two never collide in one dict.  A key means
    nothing outside its table.
    """
    return _intern(node, table)


def _intern(node, table: dict) -> int:
    hit = table.get(id(node))
    if hit is not None:
        return hit[1]
    shape = [type(node)]
    for name, child in ir.FIELDS[type(node)]:
        value = getattr(node, name)
        if child is None:
            shape.append(repr(value))
        elif value is None:
            shape.append(None)
        elif child.seq:
            shape.append(tuple(_intern(v, table) for v in value))
        else:
            shape.append(_intern(value, table))
    shape = tuple(shape)
    key = table.get(shape)
    if key is None:
        # The table only grows, so its size is a fresh key.
        key = table[shape] = len(table)
    table[id(node)] = (node, key)
    return key


def env_fingerprint(env: FPEnvironment) -> tuple:
    """Content key of an FP environment (everything execution observes).

    Includes the vector math library: two binaries that differ only in
    their vec-libm binding execute differently, so they must not share
    a run.  The vec-libm element is appended only when one is bound, so
    environments without one fingerprint exactly as they did before the
    tier existed (the corpus model fingerprint hashes these — a baseline
    toolchain must not read as a new compiler model).
    """
    scalar = scalar_env_fingerprint(env)
    if env.veclibm is None:
        return scalar
    return scalar + (_libm_key(env.veclibm),)


def scalar_env_fingerprint(env: FPEnvironment) -> tuple:
    """The fingerprint's scalar projection — everything but the vec-libm.

    Structural-tag preconditions compare environments with this key:
    a vectorized-libm difference is exactly what the vec-libm *tier*
    reports, so it must not disqualify the pair from structural tagging
    the way a genuine scalar-semantics difference does.
    """
    return (
        env.precision.value,
        _libm_key(env.libm),
        env.ftz,
        env.approx_div,
        env.approx_sqrt,
        env._salt,
    )
