"""The batched stream helper against numpy's own seeding.

`seeding._seed_words` copies numpy's SeedSequence hash, so these tests are
what catches a numpy release that changes it: the words must equal
`SeedSequence(entropy).generate_state(4, np.uint64)`, and every corpus
built on the helper must equal the one built from `default_rng` streams.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specbounds import checks, geometry, linalg
from specbounds.checks import basic_corpus
from specbounds.generators import gen_bandeira, random_profile, random_symmetric
from specbounds.seeding import _CHUNK, _seed_words, _streams, _trial_batches

# One and two 32-bit words at their edges, and three words.
EDGES = [0, 2**32 - 1, 2**32, 2**64 + 3]
ENTROPY = st.lists(st.one_of(st.sampled_from(EDGES), st.integers(0, 2**96)),
                   min_size=1, max_size=6)


def _reference_words(row):
    return np.random.SeedSequence(row).generate_state(4, np.uint64)


@settings(max_examples=100, deadline=None)
@given(st.lists(ENTROPY, min_size=1, max_size=5))
@example([EDGES])
@example([[0], [2**32 - 1], [2**32, 1], [2**64 + 3] * 6])
@example([[7] * 5, [1, 2, 3, 4, 5, 6], [0, 0]])
def test_words_equal_seed_sequence(rows):
    # One call mixes rows of different word counts, some past the pool of 4.
    words = _seed_words(rows)
    assert words.dtype == np.uint64 and words.shape == (len(rows), 4)
    for row, got in zip(rows, words):
        assert np.array_equal(got, _reference_words(row)), row


def test_streams_equal_default_rng():
    rows = [[1, 0], [4295 * 1_000_003 + 2, 16], [2**64 + 3, 5], [0]]
    for row, rng in zip(rows, _streams(rows)):
        reference = np.random.default_rng(row)
        assert np.array_equal(rng.standard_normal(7), reference.standard_normal(7))
        assert rng.integers(2, 33) == reference.integers(2, 33)


@pytest.mark.parametrize("trials", [1, _CHUNK, _CHUNK + 1])
def test_trial_batches_hold_each_trial_once_in_full_chunks(trials):
    seed = 11
    batches = list(_trial_batches(trials, seed))
    assert [t for ts, _ in batches for t in ts] == list(range(trials))
    sizes = [len(ts) for ts, _ in batches]
    assert all(size == _CHUNK for size in sizes[:-1]) and 0 < sizes[-1] <= _CHUNK
    for ts, streams in batches:
        assert len(streams) == len(ts)
        for t, rng in zip(ts, streams):
            assert rng.bit_generator.state == np.random.default_rng([seed, t]).bit_generator.state


def test_negative_entropy_is_refused_like_numpy():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _seed_words([[1, -1]])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence([1, -1])


def _reference_corpus(trials, seed):
    # basic_corpus as written on per-trial default_rng streams
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        d = int(rng.integers(2, 17))
        profile = random_profile(d, seed=seed * 1_000_003 + t,
                                 density=(1.0, 0.6, 0.3)[(t // 3) % 3])
        yield profile, rng.standard_normal(d), rng.standard_normal(d), (0.1, 1.0, 10.0)[t % 3]


# seed * 1_000_003 + t takes one 32-bit word at seed 1, two from seed 4295,
# and three past 2**64.
@pytest.mark.parametrize("seed", [1, 4295, 2**64 + 1])
def test_basic_corpus_equals_default_rng_corpus(seed):
    trials = 6000
    count = 0
    for (p, v, w, gamma), (rp, rv, rw, rgamma) in zip(basic_corpus(trials, seed),
                                                      _reference_corpus(trials, seed)):
        assert np.array_equal(p.b, rp.b) and np.array_equal(v, rv) and np.array_equal(w, rw)
        assert gamma == rgamma
        count += 1
    assert count == trials


def test_split_corpus_equals_default_rng_corpus(monkeypatch):
    # The split check sees each batch of _CHUNK trials grouped by d, groups
    # in order of their first trial and trials in order within a group.
    trials, seed = checks._CHUNK + 76, 3
    seen = []
    monkeypatch.setattr(linalg, "split_invariant_violations",
                        lambda stack, split: seen.extend(stack) or [[] for _ in stack])
    assert checks.split(trials, seed) == ([], {})
    reference = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        d = int(rng.integers(2, 33))
        scale = float(rng.choice([0.01, 1.0, 100.0]))
        reference.append(random_symmetric(d, seed=seed * 1_000_003 + t, scale=scale))
    order = []
    for start in range(0, trials, _CHUNK):
        ts = range(start, min(start + _CHUNK, trials))
        for d in dict.fromkeys(len(reference[t]) for t in ts):
            order += [t for t in ts if len(reference[t]) == d]
    assert sorted(order) == list(range(trials))
    assert len(seen) == trials
    for t, a in zip(order, seen):
        assert np.array_equal(a, reference[t])


def test_violation_scan_draws_default_rng_pairs(monkeypatch):
    # 2049 trials: two chunks of 1024 and a last batch of one trial.
    p, trials, seed = gen_bandeira(1e-4), 2049, 5
    drawn = []
    unit_rows = geometry._unit_rows
    monkeypatch.setattr(geometry, "_unit_rows", lambda x: drawn.append(x.copy()) or unit_rows(x))
    # 6 violations, the count of the per-trial default_rng scan
    assert geometry.violation_scan(p, trials, seed) == 6 / trials
    pairs = np.concatenate(drawn)
    assert pairs.shape == (trials, 2, 2)
    for t, pair in enumerate(pairs):
        assert np.array_equal(pair, np.random.default_rng([seed, t]).standard_normal((2, 2)))
