"""Deterministic stream derivation for reproducible, parallel-safe sampling.

All randomness in the package flows from a single nonnegative master seed.
A stream is addressed by a path of integers and string tags, and derivation
is a pure function of (master_seed, path):

    SeedSequence(master_seed, spawn_key=tuple(encode(p) for p in path))

Integers encode as themselves; string tags as the first eight bytes of
their SHA-256 digest, read big-endian. Equal inputs always yield the same
generator and distinct paths yield statistically independent streams, so
replications, arms, and grid points can be drawn concurrently (or in any
order) and still reproduce the sequential results bit for bit.
``_usable_cpus`` sizes the pools that do so.
"""

import functools
import hashlib
import os

import numpy as np

from .errors import DomainError

__all__ = ["derive_rng", "encode_path_part"]


def encode_path_part(part):
    """Map one path component to the integer fed into the spawn key."""
    if isinstance(part, (bool,)):
        raise DomainError("stream path parts must be nonnegative ints or strings")
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise DomainError("integer stream path parts must be nonnegative")
        return int(part)
    if isinstance(part, str):
        return _encode_tag(part)
    raise DomainError(f"cannot encode stream path part of type {type(part).__name__}")


@functools.lru_cache(maxsize=256)
def _encode_tag(tag):
    # a study derives the same few tags on every replication
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(master_seed, *path):
    """Return the generator for stream ``path`` under ``master_seed``."""
    seed = int(master_seed)
    if seed < 0:
        raise DomainError("master seed must be nonnegative")
    key = tuple(encode_path_part(p) for p in path)
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def _usable_cpus():
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count, and at least 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
