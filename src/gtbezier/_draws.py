"""Parameter draws of the randomized NTP suite, a chunk of trials at a time.

Trial t of a suite with seed s draws its parameters from the stream of
np.random.default_rng([s, t]), PCG64 seeded by SeedSequence([s, t]). The
draws here are that stream's bit for bit, without a generator per trial:

- SeedSequence hashes the entropy words (s's little-endian 32-bit words,
  then t, below MAX_TRIALS = 2**32 and so one word) into a pool of
  four words with constants that depend only on a word's position, so the
  hashing runs once per chunk of trials, as uint32 array operations;
- PCG64 is seeded from the pool and stepped in Python integers, which
  hold its 128-bit state exactly; its XSL-RR output runs on arrays of the
  states' 64-bit words;
- Generator.uniform(low, high) is low + (high - low) * ((raw >> 11) * 2**-53).

NumPy keeps the SeedSequence and PCG64 streams stable across releases.
"""

from functools import lru_cache
from math import inf, nextafter

import numpy as np

from .basis import _index

MAX_TRIALS = 2**32  # most trials in a suite: each trial index is one 32-bit word

# Draws of one trial's parameters before giving up. Uniform doubles tie only
# on a span of a few doubles, so no other span ever redraws.
_MAX_DRAWS = 100

_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1

# SeedSequence's pool size and hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list:
    """n's little-endian 32-bit words, [0] for 0, as SeedSequence splits it."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


@lru_cache(maxsize=None)
def _hash_constants(words: int) -> tuple:
    """SeedSequence's hash constants for an entropy of words >= _POOL_SIZE
    words, as (xor, multiply) pairs of uint32 columns, one row per call of
    hashmix: what the call XORs in and what it multiplies by.

    The pairs are, in order: one for hashing the first words into the pool;
    one per pool word, for mixing it into the others (row i for pool word
    i, the word's own row 0 and unused); one per further word, for mixing
    it into every pool word; and one, of 2 * _POOL_SIZE rows, for
    generate_state. Each call's constants follow from the last call's.
    """
    def chain(const: int, mult: int, calls: int) -> list:
        consts = [const]
        for _ in range(calls):
            consts.append(consts[-1] * mult & _MASK32)
        return consts

    def columns(consts: list, calls) -> tuple:
        pair = tuple(np.array([0 if k is None else consts[k + i] for k in calls],
                              dtype=np.uint32)[:, None] for i in (0, 1))
        for col in pair:
            col.setflags(write=False)  # cached and shared by every caller
        return pair

    a = chain(_INIT_A, _MULT_A, _POOL_SIZE * words)
    pairs = [columns(a, range(_POOL_SIZE))]
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        calls = [None] * _POOL_SIZE
        for dst in range(_POOL_SIZE):
            if dst != src:
                calls[dst], call = call, call + 1
        pairs.append(columns(a, calls))
    for first in range(call, len(a) - 1, _POOL_SIZE):
        pairs.append(columns(a, range(first, first + _POOL_SIZE)))
    pairs.append(columns(chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE), range(2 * _POOL_SIZE)))
    return tuple(pairs)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * _MIX_MULT_L
    x -= y * _MIX_MULT_R
    x ^= x >> 16
    return x


def _streams(seed_words: list, trials: range) -> list:
    """[state, increment] of PCG64 as default_rng([seed, t]) seeds it, for
    each t of trials, every index below 2**32 and so one entropy word.

    SeedSequence's calls of hashmix that do not depend on one another run
    as one array operation, one row per call and one column per trial.
    """
    words = len(seed_words)
    entropy = np.zeros((max(words + 1, _POOL_SIZE), len(trials)), dtype=np.uint32)
    entropy[:words] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[words] = np.arange(trials.start, trials.stop, dtype=np.uint32)
    passes = _hash_constants(len(entropy))
    pool = _hashmix(entropy[:_POOL_SIZE], *passes[0])
    # each pool word is mixed into the others, then each further word into all
    for src in range(_POOL_SIZE):
        mixed = _mix(pool, _hashmix(pool[src], *passes[1 + src]))
        mixed[src] = pool[src]
        pool = mixed
    for word, consts in zip(entropy[_POOL_SIZE:], passes[1 + _POOL_SIZE:-1]):
        pool = _mix(pool, _hashmix(word, *consts))
    # generate_state(4, np.uint64): eight words from the cycled pool, each
    # pair read as one little-endian uint64
    state = _hashmix(np.tile(pool, (2, 1)), *passes[-1]).astype(np.uint64)
    streams = []
    for s0, s1, q0, q1 in (state[0::2] | state[1::2] << 32).T.tolist():
        inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        # two LCG steps from state 0, with the initial state added between them
        streams.append([((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128, inc])
    return streams


def _uniforms(streams: list, counts: list, low: float, high: float) -> np.ndarray:
    """The next counts[i] Generator.uniform(low, high) doubles of each
    stream i, one stream after another in one array; advances the streams.

    The LCG steps run in Python integers. The XSL-RR output of each state,
    its high word XOR its low word rotated right by its top six bits, runs
    on arrays of those 64-bit words.
    """
    states = []
    for stream, count in zip(streams, counts):
        state, inc = stream
        for _ in range(count):
            state = (state * _PCG64_MULT + inc) & _MASK128
            states.append(state.to_bytes(16, "little"))
        stream[0] = state
    words = np.frombuffer(b"".join(states), dtype="<u8").reshape(-1, 2)
    x, rot = words[:, 1] ^ words[:, 0], words[:, 1] >> 58
    raw = x >> rot | x << (64 - rot & 63)
    return low + (high - low) * ((raw >> 11) * 2.0**-53)


def suite_params(seed: int, trials: range, cases: list, a0: float, an: float,
                 count: int) -> np.ndarray:
    """Parameters of a run of consecutive NTP suite trials, one row each;
    trial indices are below MAX_TRIALS = 2**32, one entropy word each, and
    a run past them raises ValueError.

    Trial t draws its free parameters, those its boundary case does not fix
    at a0 or an, as np.random.default_rng([seed, t]).uniform(low, high,
    size=free), with low = max(a0 + eps, nextafter(a0, inf)), high =
    min(an - eps, nextafter(an, -inf)) and eps = 1e-6 * (an - a0), so that
    they lie strictly inside the domain; its row is them sorted, between
    the endpoints its case fixes. A trial whose draws tie draws again from
    its stream, up to _MAX_DRAWS times in all. A span too narrow to draw
    from raises ValueError for the first trial that fails. seed must be a
    non-negative integer.
    """
    _index(trials.stop, "the end of the trial indices", 0, MAX_TRIALS)
    eps = 1e-6 * (an - a0)
    # far from zero a0 + eps can round back to a0 (an - eps to an), so the
    # draws stay at least one double inside the domain
    low = max(a0 + eps, nextafter(a0, inf))
    high = min(an - eps, nextafter(an, -inf))
    fixed_low = np.array([case in ("left", "both") for case in cases])
    fixed_high = np.array([case in ("right", "both") for case in cases])
    free = count - fixed_low - fixed_high
    todo = np.arange(len(trials))
    if low <= high:  # else no double lies strictly inside
        streams = _streams(_words(seed), trials)
        cols = np.arange(count)
        drawn = (cols >= fixed_low[:, None]) & (cols < (count - fixed_high)[:, None])
        # a0 < low and high < an: sorting a row keeps the endpoints first and last
        params = np.empty((len(trials), count))
        params[:, 0], params[:, -1] = a0, an
        for _ in range(_MAX_DRAWS):
            rows = params[todo]
            rows[drawn[todo]] = _uniforms([streams[i] for i in todo], free[todo].tolist(), low, high)
            rows.sort(axis=1)
            params[todo] = rows
            todo = todo[~np.all(np.diff(rows) > 0, axis=1)]
            if todo.size == 0:
                return params
    raise ValueError(f"no {free[todo[0]]} distinct parameters drawn in [{low!r}, {high!r}]; "
                     "the node span is too narrow")
