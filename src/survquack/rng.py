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

``_pcg64_states`` derives the streams (master_seed, rep, *tail) of many
replications and several tails at once, hashing each rep once for all
tails: it reproduces numpy's ``SeedSequence`` hash and the ``PCG64``
seeding step as uint32 array arithmetic across the streams and returns
each generator's 128-bit (state, increment). ``derive_rng`` keeps
numpy's own route, which is cheaper for a single stream.
"""

import functools
import hashlib

import numpy as np

from .errors import DomainError

__all__ = ["derive_rng", "encode_path_part"]


def _integer(value, name):
    """``value`` as an int, if it is an int or a numpy integer. A bool, a
    float or a string is refused, where ``int()`` would run it silently as
    some other seed or path."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def encode_path_part(part):
    """Map one path component to the integer fed into the spawn key."""
    if isinstance(part, str):
        return _encode_tag(part)
    part = _integer(part, "a stream path part that is not a string")
    if part < 0:
        raise DomainError("integer stream path parts must be nonnegative")
    return part


@functools.lru_cache(maxsize=256)
def _encode_tag(tag):
    # a study derives the same few tags on every replication
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _master_seed(master_seed):
    seed = _integer(master_seed, "master seed")
    if seed < 0:
        raise DomainError("master seed must be nonnegative")
    return seed


def derive_rng(master_seed, *path):
    """Return the generator for stream ``path`` under ``master_seed``."""
    seed = _master_seed(master_seed)
    key = tuple(encode_path_part(p) for p in path)
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


# numpy's SeedSequence: a pool of four 32-bit words, its hash and mix
# constants, and the PCG64 multiplier its seeding step applies
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(n):
    """Little-endian 32-bit words of a nonnegative int; 0 is one word."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value, const, mult=_MULT_A):
    """SeedSequence's hashmix of ``value``, a uint32 array hashed
    element-wise; returns it with the next hash constant, a Python int.
    ``mult`` steps the constant: ``_MULT_A`` while mixing entropy into the
    pool, ``_MULT_B`` while generating state from it."""
    const_next = const * mult & _MASK32
    value = (value ^ np.uint32(const)) * np.uint32(const_next)
    return value ^ value >> 16, const_next


def _mix(x, y):
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``, uint32
    arrays that broadcast."""
    value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return value ^ value >> 16


def _mix_in(pool, words, const):
    """Mix entropy words beyond the pool's first four, the rows of ``words``, into every pool word."""
    for word in words:
        for dst in range(_POOL):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    return const


def _seed_pool(seed):
    """The pool and hash constant once ``seed``'s words, zero-padded to the
    pool size as for any nonempty spawn key, are mixed in: the part of the
    hash that every stream under ``seed`` shares."""
    words = _words(seed)
    # one column: each row is a one-element array, as a word shared by many streams
    words = np.array(words + [0] * (_POOL - len(words)), dtype=np.uint32)[:, None]
    pool, const = [], _INIT_A
    for word in words[:_POOL]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    const = _mix_in(pool, words[_POOL:], const)
    return pool, const


def _pcg64_states(master_seed, reps, tails):
    """``{tail: [(state, inc), ...]}``: the 128-bit PCG64 state and increment
    of ``derive_rng(master_seed, rep, *tail)`` for each rep in ``reps``, for
    each tail in ``tails``.

    All of the hash is uint32 array arithmetic. The seed's part is computed
    once, on one-element arrays. Each rep is encoded, split into words and
    mixed into that pool once, across the streams, grouped by how many
    32-bit words their rep takes. As a stream's spawn key is (rep, *tail),
    each tail then continues from a copy of that pool; its words are the
    same in every stream, so they are hashed once and broadcast.
    """
    seed = _master_seed(master_seed)
    tail_words = {
        tail: np.array([w for part in tail for w in _words(encode_path_part(part))], dtype=np.uint32)[:, None]
        for tail in tails
    }
    pool0, const0 = _seed_pool(seed)
    reps = [_words(encode_path_part(rep)) for rep in reps]
    by_length = {}
    for i, words in enumerate(reps):
        by_length.setdefault(len(words), []).append(i)
    states = {tail: [None] * len(reps) for tail in tails}
    for index in by_length.values():
        rep_words = np.array([reps[i] for i in index], dtype=np.uint32).T
        rep_pool = list(pool0)  # the rep's first word broadcasts every pool word to its streams
        rep_const = _mix_in(rep_pool, rep_words, const0)
        for tail, words in tail_words.items():
            pool = list(rep_pool)  # mixing rebinds the pool's words, never writes them
            _mix_in(pool, words, rep_const)
            # generate_state(4, uint64): eight 32-bit words, read little-endian
            out, const = [], _INIT_B
            for i in range(2 * _POOL):
                word, const = _hashmix(pool[i % _POOL], const, _MULT_B)
                out.append(word.astype(np.uint64))
            seed_hi, seed_lo, inc_hi, inc_lo = (
                (out[2 * j] | out[2 * j + 1] << np.uint64(32)).tolist() for j in range(_POOL)
            )
            for at, s_hi, s_lo, i_hi, i_lo in zip(index, seed_hi, seed_lo, inc_hi, inc_lo):
                # pcg64_set_seed: inc = 2 * initseq + 1, then two LCG steps
                # with the seed added in between
                inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
                state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
                states[tail][at] = (state, inc)
    return states
