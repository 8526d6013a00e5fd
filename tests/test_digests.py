"""Digests of seven CLI reports, pinned so that a refactor shows it left
every output bit unchanged, and fingerprints of the verify corpora.

A digest is the first 16 hex digits of the sha256 of the report with
wall_time_s removed, dumped with sorted keys.  A fingerprint is the first
16 hex digits of the sha256 of a corpus's drawn arrays, in trial order (or
in the order the split check stacks them).  The basic and comparison
digests see the corpus bits only through the worst scaled margin and the
failures; the fingerprints see every drawn bit.
The values were taken under numpy 2.4.6 and hold at one and at two
OpenBLAS threads.  A numpy upgrade that moves them re-pins them in the
same change and says so.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from specbounds import checks, cli, geometry, linalg
from specbounds.generators import gen_bandeira

PINNED_NUMPY = "2.4.6"

DIGESTS = {
    "verify --check basic --trials 3000 --seed 1": "b303354e7d3a1096",
    "verify --check comparison --trials 2000 --seed 1": "461fa226e7bc7f12",
    "verify --check equiv --family wigner:d=32 --family diagonal_unit:d=16 "
    "--family bandeira:delta=1 --replicates 60 --seed 2": "ec099ccd9f2f81fb",
    "verify --check slice --replicates 10 --seed 3": "97c01ac232984e16",
    "mc --family sparse_random:d=32,density=0.5,seed=3 --quantity all "
    "--replicates 100 --seed 23": "b62a9d063d55d48e",
    "bounds --family kronecker_flip:d=16,seed=9 --replicates 300 --seed 4": "3bc7edea6de93cc2",
    "scan --families wigner,band:w=3,diagonal_decay,sparse_random:density=0.35,seed=9,"
    "kronecker_flip:seed=9 --dims 16,64 --replicates 50 --seed 1": "c796d23a9be57055",
}


def report_digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    assert status == 0
    report = json.loads(out.getvalue())
    report.pop("wall_time_s")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("command", list(DIGESTS), ids=lambda c: " ".join(c.split()[:3]))
def test_report_digest_is_pinned(command):
    digest = report_digest(command.split())
    assert digest == DIGESTS[command], (
        f"{command!r} gives {digest}, pinned {DIGESTS[command]} under numpy "
        f"{PINNED_NUMPY}; running numpy {np.__version__}")


def _basic_corpus_arrays(monkeypatch):
    for p, v, w, gamma in checks.basic_corpus(2049, 1):
        yield from (p.b, v, w, np.float64(gamma))


def _split_stacks(monkeypatch):
    stacks = []
    monkeypatch.setattr(linalg, "split_invariant_violations",
                        lambda stack, split: stacks.append(stack) or [[] for _ in stack])
    checks.split(2049, 1)
    return stacks


def _scan_pairs(monkeypatch):
    pairs = []
    unit_rows = geometry._unit_rows
    monkeypatch.setattr(geometry, "_unit_rows", lambda x: pairs.append(x.copy()) or unit_rows(x))
    geometry.violation_scan(gen_bandeira(1e-4), 2049, 5)
    return pairs


FINGERPRINTS = {
    "basic_corpus(2049, 1): b, v, w, gamma": (_basic_corpus_arrays, "37bb9ad26c91507f"),
    "split(2049, 1): the checked stacks": (_split_stacks, "6e229871708baade"),
    "violation_scan(bandeira:delta=1e-4, 2049, 5): the pairs": (_scan_pairs, "270b21362aec2533"),
}


@pytest.mark.parametrize("corpus", list(FINGERPRINTS))
def test_corpus_fingerprint_is_pinned(monkeypatch, corpus):
    arrays, pinned = FINGERPRINTS[corpus]
    digest = hashlib.sha256()
    for array in arrays(monkeypatch):
        digest.update(np.ascontiguousarray(array).tobytes())
    fingerprint = digest.hexdigest()[:16]
    assert fingerprint == pinned, (
        f"{corpus!r} gives {fingerprint}, pinned {pinned} under numpy "
        f"{PINNED_NUMPY}; running numpy {np.__version__}")
