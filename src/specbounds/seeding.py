"""Keyed pseudo-random streams, and the trial batches of the verify corpora.

A stream is keyed by (seed, tag, block): numpy's SeedSequence of the seed
with (tag, block) as its spawn key.  The tag names the kind of draw, and
every tag is in the one table below.  The Monte Carlo estimators draw
replicate block b of a quantity from (seed, tag, b).

The corpora (that of the basic and comparison checks, whose per-trial view
is checks.basic_corpus, the split check's and geometry.violation_scan's)
run in batches of _CHUNK trials: trial t is row t % _CHUNK of batch
t // _CHUNK.  A batch draws from one
stream per draw kind, (seed, tag, batch), and each kind draws its trials'
segments one after another in trial order, each sized by that trial's own
d.  So trial t's draws depend on neither the trial count nor the other
kinds, and a short last batch draws a prefix of the full one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Stream tags, one per draw kind.  Monte Carlo: X for norm, rowmax, entrymax
# and distsq; g for gdot and g for ymax.  Corpora: each trial's d, the split
# check's scale index, basic_corpus's |N| profile entries and density
# uniforms, the v/w pairs of basic_corpus and violation_scan, and the split
# check's matrices.
X_TAG, GDOT_TAG, YMAX_TAG = 1, 2, 3
DIM_TAG, SCALE_TAG, PROFILE_TAG, DENSITY_TAG, PAIR_TAG, MATRIX_TAG = 4, 5, 6, 7, 8, 9

# Trials per corpus batch.
_CHUNK = 1024


@dataclass(frozen=True)
class RandomStream:
    """One pseudo-random stream, keyed by (seed, tag, block)."""

    seed: int
    tag: int
    block: int = 0

    def generator(self) -> np.random.Generator:
        # As a spawn key, (tag, block) keeps the stream apart from every
        # other key's and from the generators' default_rng([seed, d]).
        key = np.random.SeedSequence(self.seed, spawn_key=(self.tag, self.block))
        return np.random.default_rng(key)


def _batches(trials: int, seed: int):
    """(ts, stream) for each batch of trials 0, ..., trials - 1, in order:
    ts is the range of the batch's trial numbers, and stream(tag) is the
    Generator of the stream (seed, tag, batch)."""
    for batch, start in enumerate(range(0, trials, _CHUNK)):
        yield (range(start, min(start + _CHUNK, trials)),
               lambda tag, batch=batch: RandomStream(seed, tag, batch).generator())


def _groups(ds: np.ndarray, *sizes: np.ndarray):
    """(d, rows, *index) for each d of the batch rows' dimensions ds, in
    increasing d: the rows of that d and, per draw kind whose row k holds
    sizes[k] values in row order, their (len(rows), n) positions.  Offsets
    are summed once per batch.  Not np.unique: it imports numpy.ma (1.4 MiB)."""
    starts = [np.cumsum(size) - size for size in sizes]
    for d in sorted(set(ds.tolist())):
        rows = (ds == d).nonzero()[0]
        yield d, rows, *(start[rows, None] + np.arange(size[rows[0]])
                         for start, size in zip(starts, sizes))
