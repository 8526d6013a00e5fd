"""Digests of seven CLI reports, pinned so that a refactor shows it left
every output bit unchanged.

A digest is the first 16 hex digits of the sha256 of the report with
wall_time_s removed, dumped with sorted keys.  The values were taken under
numpy 2.4.6 and hold at one and at two OpenBLAS threads.  A numpy upgrade
that moves them re-pins them in the same change and says so.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from specbounds import cli

PINNED_NUMPY = "2.4.6"

DIGESTS = {
    "verify --check basic --trials 3000 --seed 1": "49c2e5aa176238ed",
    "verify --check comparison --trials 2000 --seed 1": "5f309a652e806516",
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
