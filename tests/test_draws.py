"""The NTP suite's batched parameter draws equal, bit for bit, the draws of
one np.random.default_rng([seed, trial]) per trial."""

import numpy as np
import pytest

from gtbezier import NodeSet, datasets, totalpos, verify_ntp_suite
from gtbezier._draws import _streams, suite_params
from gtbezier.basis import bernstein_equivalent_nodeset
from gtbezier.totalpos import BOUNDARY_CASES
from oracles import reference_draws

# 1 to 7 seed words: entropies of 2 to 8 words around SeedSequence's pool of 4
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5, 2**130 + 11, 2**200 + 7]

DOMAINS = {  # (a0, an, node count)
    "two-nodes": (0.0, 1.0, 2),  # the "both" case draws nothing
    "circle": (*datasets.circle_node_set().domain, 5),
    "helix": (*datasets.helix_node_set().domain, 31),
    "negative": (-9.5, -2.25, 5),
    "far-from-zero": (1e16, 1e16 + 1000, 5),
}


def _cases(trials):
    return [BOUNDARY_CASES[t % len(BOUNDARY_CASES)] for t in trials]


def _both(seed, trials, a0, an, count):
    cases = _cases(trials)
    return (suite_params(seed, trials, cases, a0, an, count),
            reference_draws(seed, trials, cases, a0, an, count))


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("seed", SEEDS)
def test_draws_equal_default_rng_streams(seed, domain):
    # nine trials: every boundary case twice and interior three times
    a0, an, count = DOMAINS[domain]
    batch, ref = _both(seed, range(9), a0, an, count)
    assert batch.shape == ref.shape == (9, count)
    assert (batch == ref).all()
    # rows strictly increasing within [a0, an]: verify_ntp_suite judges them unchecked
    assert (np.diff(batch) > 0).all() and a0 <= batch.min() and batch.max() <= an


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_pcg64_states_equal_numpy(seed):
    # all 256 bits of (state, increment) after seeding: the draws show 53 of them
    streams = dict(zip(range(6), _streams(seed, range(6))))
    streams[2**32 - 1], = _streams(seed, range(2**32 - 1, 2**32))
    for t in (0, 1, 5, 2**32 - 1):
        state = np.random.PCG64([seed, t]).state["state"]
        assert streams[t] == [state["state"], state["inc"]]


@pytest.mark.parametrize("start", [2**32 - 2, 2**64 - 2])
def test_draws_equal_streams_where_trial_indices_take_more_words(start):
    # a suite has at most totalpos.MAX_TRIALS = 2**32 trials, so its last
    # index, 2**32 - 1, is the largest one 32-bit entropy word holds; a run
    # into indices of more words is refused, not wrapped to small ones
    assert totalpos.MAX_TRIALS == 2**32
    for seed in (0, 2**64 + 3):
        batch, ref = _both(seed, range(2**32 - 4, 2**32), *DOMAINS["circle"])
        assert (batch == ref).all()
        trials = range(start, start + 4)
        with pytest.raises(ValueError, match="end of the trial indices must be at most 4294967296"):
            suite_params(seed, trials, _cases(trials), *DOMAINS["circle"])


def test_draws_redraw_ties_from_their_own_streams():
    # the draws' span [a0 + 2, an - 2] holds seven doubles (2 apart at
    # 1e16): a sorted draw of five ties often, and the trial draws again
    a0, an, count = 1e16, 1e16 + 16, 5
    first_tied = 0
    for seed in range(3):
        batch, ref = _both(seed, range(12), a0, an, count)
        assert (batch == ref).all()
        assert (np.diff(batch) > 0).all()
        for t in range(0, 12, 4):  # interior trials: their first draw tied?
            inner = np.sort(np.random.default_rng([seed, t]).uniform(a0 + 2, an - 2, count))
            first_tied += not (np.diff(inner) > 0).all()
    assert first_tied >= 3


@pytest.mark.parametrize("trials, free", [(range(4), 5), (range(1, 5), 4)])
def test_draws_give_up_on_the_first_trial_that_fails(trials, free):
    # three doubles lie inside: the interior (5 draws) and one-endpoint
    # cases (4) cannot succeed, the both-endpoints case (3) can
    a0, an, count = 1e16, 1e16 + 8, 5
    message = (f"no {free} distinct parameters drawn in "
               "[1.0000000000000002e+16, 1.0000000000000006e+16]; the node span is too narrow")
    for draw in (suite_params, reference_draws):
        with pytest.raises(ValueError) as err:
            draw(7, trials, _cases(trials), a0, an, count)
        assert str(err.value) == message
    ns = NodeSet([a0, a0, a0, a0, an])
    with pytest.raises(ValueError, match=f"no {count} distinct"):
        verify_ntp_suite(ns, None, trials=4, seed=7)


def test_suite_draws_equal_streams_across_chunks(monkeypatch):
    # what verify_ntp_suite draws, chunk by chunk, is the reference's draws
    circle = datasets.circle_problem()
    helix = datasets.helix_node_set(), datasets.helix_weights()
    for (ns, w), trials, seed in (((circle.nodeset, circle.weights), 150, 20240809),
                                  (helix, 70, 3),
                                  ((bernstein_equivalent_nodeset(7), None), 5, 2**64 + 3)):
        chunks = []

        def recorded(*args):
            chunks.append(suite_params(*args))
            return chunks[-1]

        monkeypatch.setattr(totalpos, "suite_params", recorded)
        verify_ntp_suite(ns, w, trials, seed)
        monkeypatch.undo()
        assert len(chunks) >= 2
        ref = reference_draws(seed, range(trials), _cases(range(trials)), *ns.domain, ns.size)
        assert (np.concatenate(chunks) == ref).all()
