"""The corpus stream contract: trial t of every corpus is row t % 1024 of
batch t // 1024, and each batch draws from one keyed stream (seed, tag,
batch) per draw kind.

Each corpus is checked, row by row, against the reference draws of
conftest, which draw the trial's whole batch with their own code.  A
trial's draws must not depend on the trial count: trial t is the same at
1, t + 1, 1024, 1025 and 2049 trials, because a short last batch draws a
prefix of the full one.  These tests hold at any numpy version; the
fingerprints of the drawn bits are pinned in tests/test_digests.py.
"""

import numpy as np
import pytest
from conftest import (
    CHUNK,
    reference_basic_trial,
    reference_pair,
    reference_split_trial,
)

from specbounds import checks, geometry, linalg, seeding
from specbounds.checks import basic_corpus
from specbounds.generators import gen_bandeira

COUNTS = (1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)
# Trials at the edges of the first three batches, each also run at t + 1
# trials, so that it is the last trial drawn.
EDGE_TRIALS = (0, 5, CHUNK - 1, CHUNK, CHUNK + 6, 2 * CHUNK)


def test_batch_size_is_the_contract():
    assert seeding._CHUNK == CHUNK


def test_stream_tags_are_distinct():
    tags = (seeding.X_TAG, seeding.GDOT_TAG, seeding.YMAX_TAG, seeding.DIM_TAG,
            seeding.SCALE_TAG, seeding.PROFILE_TAG, seeding.DENSITY_TAG, seeding.PAIR_TAG,
            seeding.MATRIX_TAG)
    assert len(set(tags)) == len(tags)


@pytest.mark.parametrize("trials", [1, CHUNK, CHUNK + 1])
def test_batches_hold_each_trial_once_in_full_chunks(trials):
    seed = 11
    batches = list(seeding._batches(trials, seed))
    assert [t for ts, _ in batches for t in ts] == list(range(trials))
    sizes = [len(ts) for ts, _ in batches]
    assert all(size == CHUNK for size in sizes[:-1]) and 0 < sizes[-1] <= CHUNK
    for batch, (_, stream) in enumerate(batches):
        for tag in (seeding.DIM_TAG, seeding.PAIR_TAG):
            expected = seeding.RandomStream(seed, tag, batch).generator()
            assert stream(tag).bit_generator.state == expected.bit_generator.state


def _same_case(case, reference):
    p, v, w, gamma = case
    b, rv, rw, rgamma = reference
    return (np.array_equal(p.b, b) and np.array_equal(v, rv) and np.array_equal(w, rw)
            and gamma == rgamma)


# Seeds of one, two and three 32-bit words.
@pytest.mark.parametrize("seed", [1, 2**32 + 5, 2**64 + 1])
def test_basic_corpus_rows_equal_reference_batch_rows(seed):
    full = list(basic_corpus(2 * CHUNK + 1, seed))
    assert len(full) == 2 * CHUNK + 1
    for t, case in enumerate(full):
        assert _same_case(case, reference_basic_trial(t, seed)), t
    for count in COUNTS:
        corpus = list(basic_corpus(count, seed))
        assert len(corpus) == count
        assert all(_same_case(case, reference_basic_trial(t, seed))
                   for t, case in enumerate(corpus)), count
    for t in EDGE_TRIALS:
        *_, last = basic_corpus(t + 1, seed)
        assert _same_case(last, reference_basic_trial(t, seed)), t


def _split_matrices(monkeypatch, trials, seed):
    # The matrices that checks.split checks, in the order it stacks them.
    seen = []
    monkeypatch.setattr(linalg, "psd_split", lambda stack: None)
    monkeypatch.setattr(linalg, "split_invariant_violations",
                        lambda stack, split: seen.extend(stack) or [[] for _ in stack])
    assert checks.split(trials, seed) == ([], {})
    return seen


def _stacking_order(trials, d_of):
    # Trial numbers as the split check stacks them: each batch grouped by
    # d, in increasing d, and in trial order within a group.
    order = []
    for start in range(0, trials, CHUNK):
        ts = range(start, min(start + CHUNK, trials))
        for d in sorted({d_of(t) for t in ts}):
            order += [t for t in ts if d_of(t) == d]
    return order


def test_split_matrices_equal_reference_batch_rows(monkeypatch):
    seed = 3
    references = [reference_split_trial(t, seed) for t in range(2 * CHUNK + 1)]
    for count in sorted({*COUNTS, *(t + 1 for t in EDGE_TRIALS)}):
        seen = _split_matrices(monkeypatch, count, seed)
        order = _stacking_order(count, lambda t: len(references[t]))
        assert sorted(order) == list(range(count)) and len(seen) == count
        for t, a in zip(order, seen):
            assert np.array_equal(a, references[t]), (count, t)


def test_split_failures_come_in_trial_order_capped_at_20(monkeypatch):
    # Flag a quarter of the d = 2 matrices, about 8 per batch: the 20th
    # flagged trial lies past the first chunk.
    def flagged(a):
        return len(a) == 2 and a[0, 1] > 0 and a[0, 0] > a[1, 1]

    trials, seed = 3 * CHUNK, 7
    monkeypatch.setattr(linalg, "psd_split", lambda stack: None)
    monkeypatch.setattr(linalg, "split_invariant_violations",
                        lambda stack, split: [["flagged"] if flagged(a) else [] for a in stack])
    expected = [t for t in range(trials) if flagged(reference_split_trial(t, seed))]
    assert len(expected) > 20 and expected[19] >= CHUNK
    failures, details = checks.split(trials, seed)
    assert details == {}
    assert failures == [{"trial": t, "d": 2, "problems": ["flagged"]} for t in expected[:20]]


@pytest.mark.parametrize("check", ["basic", "comparison", "split"])
def test_checks_stop_drawing_at_the_batch_of_the_20th_failure(monkeypatch, check):
    # At tol -0.1 the 20th basic or comparison failure is trial 679 or 853,
    # and with every split matrix flagged it is trial 19: all in batch 0.
    drawn = []
    batches = checks._batches

    def counted(trials, seed):
        for ts, stream in batches(trials, seed):
            drawn.append(ts[0] // CHUNK)
            yield ts, stream

    monkeypatch.setattr(checks, "_batches", counted)
    if check == "split":
        monkeypatch.setattr(linalg, "psd_split", lambda stack: None)
        monkeypatch.setattr(linalg, "split_invariant_violations",
                            lambda stack, split: [["flagged"] for _ in stack])
        failures, _ = checks.split(2 * CHUNK + 1, 4)
    else:
        failures, _ = getattr(checks, check)(2 * CHUNK + 1, 4, -0.1)
    assert len(failures) == 20 and failures[-1]["trial"] < CHUNK
    assert drawn == [0]


def test_violation_scan_pairs_equal_reference_batch_rows(monkeypatch):
    p, seed = gen_bandeira(1e-4), 5
    unit_rows = geometry._unit_rows
    for count in sorted({*COUNTS, *(t + 1 for t in EDGE_TRIALS)}):
        drawn = []
        monkeypatch.setattr(geometry, "_unit_rows",
                            lambda x: drawn.append(x.copy()) or unit_rows(x))
        geometry.violation_scan(p, count, seed)
        pairs = np.concatenate(drawn)
        assert pairs.shape == (count, 2, 2)
        for t, pair in enumerate(pairs):
            assert np.array_equal(pair, reference_pair(t, seed, 2)), (count, t)
