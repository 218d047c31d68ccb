"""Parameter draws of the randomized NTP suite, a chunk of trials at a time.

Trial t of a suite with seed s draws from np.random.default_rng([s, t]).
The draws here are those streams bit for bit, without a numpy object per
trial, by numpy's own routines run over an axis of trials:
- SeedSequence.mix_entropy and SeedSequence.generate_state(4, np.uint64),
  in their call order, as uint32 operations with one column per trial, on
  s's little-endian 32-bit words and t (below MAX_TRIALS = 2**32, one word);
- PCG64's seeding step and output function, the state in Python integers;
- Generator.uniform(low, high): low + (high - low) * ((raw >> 11) * 2**-53).
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

# SeedSequence's pool size and hash constants, PCG64's multiplier, word masks
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


@lru_cache(maxsize=None)
def _hash_calls(const: int, mult: int, calls: int, skip: int | None = None) -> tuple:
    """xor and multiplier uint32 columns, a row per call, of calls hashmix calls from
    hash constant const, and the constant after them; a zero row goes in at skip."""
    consts = [const * pow(mult, k, 2**32) & _MASK32 for k in range(calls + 1)]
    cols = np.array([consts[:-1], consts[1:]], dtype=np.uint32)
    if skip is not None:
        cols = np.insert(cols, skip, 0, axis=1)
    cols.setflags(write=False)  # cached and shared by every caller
    return cols[0, :, None], cols[1, :, None], consts[-1]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * _MIX_MULT_L - y * _MIX_MULT_R
    return x ^ x >> 16


def _streams(seed: int, trials: range) -> list:
    """[state, increment] of PCG64 as default_rng([seed, t]) seeds it, for
    each t of trials; hashmix calls that share a source run as rows."""
    words = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((max(len(words) + 1, _POOL_SIZE), len(trials)), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(trials.start, trials.stop, dtype=np.uint32)
    # mix_entropy: hash the first words, zeros past the entropy, into the pool
    xor, mult, const = _hash_calls(_INIT_A, _MULT_A, _POOL_SIZE)
    pool = _hashmix(entropy[:_POOL_SIZE], xor, mult)
    for src in range(_POOL_SIZE):  # mix each pool word into the others
        xor, mult, const = _hash_calls(const, _MULT_A, _POOL_SIZE - 1, src)
        mixed = _mix(pool, _hashmix(pool[src], xor, mult))
        mixed[src] = pool[src]
        pool = mixed
    for word in entropy[_POOL_SIZE:]:  # then each further word into all
        xor, mult, const = _hash_calls(const, _MULT_A, _POOL_SIZE)
        pool = _mix(pool, _hashmix(word, xor, mult))
    # generate_state: eight words from the cycled pool, each pair one uint64
    xor, mult, _ = _hash_calls(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hashmix(np.tile(pool, (2, 1)), xor, mult).astype(np.uint64)
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
        streams = _streams(seed, trials)
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
