"""The verification suites called with plain arguments, without argparse,
against reference loops over the public geometry functions and against the
`verify` report for the same arguments."""

import json
import math
import re

import numpy as np
import pytest
from conftest import CHUNK, reference_split_trial

from specbounds import checks, geometry, linalg
from specbounds.checks import basic_corpus
from specbounds.cli import main
from specbounds.generators import random_symmetric
from specbounds.geometry import basic_gap, comparison_dist_sq, natural_dist_sq
from specbounds.linalg import psd_split


def _verify(capsys, check, *flags):
    assert main(["verify", "--check", check, *flags]) == 0
    return json.loads(capsys.readouterr().out)


def test_basic_matches_reference_loop_and_report(capsys):
    worst = math.inf
    for p, v, w, gamma in basic_corpus(500, 2):
        lhs = natural_dist_sq(p, v, w)
        gap = basic_gap(p, v, w, gamma)
        scale = 1.0 + abs(gap + lhs) + abs(lhs)
        assert gap >= -1e-9 * scale
        if p.b.any():
            worst = min(worst, gap / scale)
    result = checks.basic(500, 2, 1e-9)
    assert result == ([], {"min_scaled_gap": worst})
    report = _verify(capsys, "basic", "--trials", "500", "--seed", "2", "--tol", "1e-9")
    assert result == (report["failures"], {"min_scaled_gap": report["min_scaled_gap"]})


def test_comparison_matches_reference_loop_and_report(capsys):
    worst = math.inf
    for p, v, w, gamma in basic_corpus(300, 0):
        nat = natural_dist_sq(p, v, w)
        comp = comparison_dist_sq(p, psd_split(p.variance_matrix), v, w, gamma)
        scale = 1.0 + abs(comp) + abs(nat)
        assert comp >= nat - 1e-9 * scale
        if p.b.any():
            worst = min(worst, (comp - nat) / scale)
    result = checks.comparison(300, 0, 1e-9)
    assert result == ([], {"min_scaled_slack": worst})
    report = _verify(capsys, "comparison", "--trials", "300", "--seed", "0", "--tol", "1e-9")
    assert result == (report["failures"], {"min_scaled_slack": report["min_scaled_slack"]})


@pytest.mark.parametrize("check, key", [("basic", "min_scaled_gap"),
                                        ("comparison", "min_scaled_slack")])
def test_worst_margin_without_a_nonzero_profile_reads_zero(monkeypatch, check, key):
    # All-zero profiles are left out of the least margin, and with no other
    # trial it reads 0.0, as JSON cannot hold inf.  They still fail at a
    # negative tol: their margin is 0.
    assert getattr(checks, check)(0, 1, 1e-9) == ([], {key: 0.0})
    batches = checks._basic_batches
    monkeypatch.setattr(checks, "_basic_batches", lambda trials, seed: (
        (ts, [(d, rows, 0.0 * b, v, w, gamma) for d, rows, b, v, w, gamma in groups])
        for ts, groups in batches(trials, seed)))
    failures, details = getattr(checks, check)(50, 1, -0.1)
    assert details == {key: 0.0} and [f["trial"] for f in failures] == list(range(20))


def test_family_checks_match_report(capsys):
    for check, spec in ((checks.slice, "diagonal_decay:d=20"), (checks.equiv, "wigner:d=8")):
        report = _verify(capsys, check.__name__, "--family", spec, "--replicates", "20")
        assert check([spec], 20, 0) == (report["failures"], {"reports": report["reports"]})


def test_basic_corpus_cycles_support_density():
    # densities 1, 0.6 and 0.3 in turn: the zero entries of the first 300
    # profiles, out of 30086
    zeros = sum(int(np.count_nonzero(p.b == 0.0)) for p, *_ in basic_corpus(300, 0))
    assert zeros == 10423


@pytest.mark.parametrize("ratio, fails", [(12.0, True), (0.09, True), (9.9, False)])
def test_equiv_envelope_is_one_tenth_to_ten(monkeypatch, ratio, fails):
    monkeypatch.setattr(checks, "equivalence_report",
                        lambda p, estimates: {"ratios": {"rowmax": {"gdot": ratio}}})
    failures, _ = checks.equiv(["wigner:d=2"], 2, 0)
    assert failures == ([{"family": "wigner:d=2", "pair": ["rowmax", "gdot"], "ratio": ratio}]
                        if fails else [])


def _reference_results(check, trials, seed, tol):
    # checks.basic or checks.comparison as a per-trial loop over the public
    # geometry functions: failures in trial order up to the 20th, and the
    # least scaled margin up to there of the profiles that are not all zero.
    failures, worst = [], math.inf
    for t, (p, v, w, gamma) in enumerate(basic_corpus(trials, seed)):
        nat = natural_dist_sq(p, v, w)
        if check == "basic":
            gap = basic_gap(p, v, w, gamma)
            scale = 1.0 + abs(gap + nat) + abs(nat)
            margin, fails = gap / scale, gap < -tol * scale
            record = {"trial": t, "d": p.d, "gamma": gamma, "gap": gap, "scale": scale}
        else:
            comp = comparison_dist_sq(p, psd_split(p.variance_matrix), v, w, gamma)
            scale = 1.0 + abs(comp) + abs(nat)
            margin, fails = (comp - nat) / scale, comp < nat - tol * scale
            record = {"trial": t, "d": p.d, "gamma": gamma, "comparison": comp, "natural": nat}
        if p.b.any():
            worst = min(worst, margin)
        if fails:
            failures.append(record)
            if len(failures) == 20:
                break
    return failures, worst


class TestBatchedCorpusChecks:
    # The batched checks read the corpus in d-grouped stacks and must give
    # the per-trial loop's values, bit for bit.
    TRIALS = 1100  # past one chunk of CHUNK trials

    @pytest.mark.parametrize("check, key", [("basic", "min_scaled_gap"),
                                            ("comparison", "min_scaled_slack")])
    @pytest.mark.parametrize("tol", [1e-9, -0.1])
    def test_same_failures_and_worst_as_per_trial_loop(self, check, key, tol):
        # At tol -0.1 the 20th failure, where the checks stop, is trial 679
        # (basic) or 853 (comparison), inside the first chunk.
        failures, worst = _reference_results(check, self.TRIALS, 4, tol)
        if tol > 0:
            assert failures == []
        else:
            assert len(failures) == 20
            assert failures[-1]["trial"] == {"basic": 679, "comparison": 853}[check]
        result = getattr(checks, check)(self.TRIALS, 4, tol)
        assert result == (failures, {key: worst})
        assert json.dumps(result[0]) == json.dumps(failures)

    @pytest.mark.parametrize("check, key", [("basic", "min_scaled_gap"),
                                            ("comparison", "min_scaled_slack")])
    def test_failures_past_the_first_chunk_name_their_trial(self, check, key):
        # At tol -1e-3, 9 of the 20 failures of each check fall past trial
        # 1023, so a trial counted from its chunk's start would show.
        trials = 2 * CHUNK + 5
        failures, worst = _reference_results(check, trials, 4, -1e-3)
        assert len(failures) == 20 and failures[-1]["trial"] >= CHUNK
        assert getattr(checks, check)(trials, 4, -1e-3) == (failures, {key: worst})

    def test_stacked_values_equal_per_trial_calls(self):
        corpus = list(basic_corpus(self.TRIALS, 5))
        for d in sorted({p.d for p, *_ in corpus}):
            profiles, v, w, gamma = zip(*(case for case in corpus if case[0].d == d))
            b2 = np.array([p.b for p in profiles]) ** 2
            v, w, gamma = np.array(v), np.array(w), np.array(gamma)
            dist_sq, quad = geometry._natural_dist_sq(b2, v, w)
            gap = geometry._basic_gap(b2, v, w, gamma, dist_sq, quad)
            bminus = linalg._bminus(b2)
            comp = geometry._comparison_dist_sq(b2, bminus, v, w, gamma)
            for k, p in enumerate(profiles):
                split = psd_split(p.variance_matrix)
                assert dist_sq[k] == natural_dist_sq(p, v[k], w[k])
                assert gap[k] == basic_gap(p, v[k], w[k], gamma[k])
                assert comp[k] == comparison_dist_sq(p, split, v[k], w[k], gamma[k])
                assert np.array_equal(bminus[k], split.bminus)


def _description(problem):
    # A split violation without the value it ends in.
    return re.sub(r" -?\d\.\d{3}e[-+]\d+$", "", problem)


class TestStackedSplit:
    # checks.split splits and checks each d group of a batch as one stack;
    # it must report what a loop of psd_split and split_invariant_violations
    # over single matrices reports.
    def test_failures_equal_per_matrix_loop_across_chunks(self, monkeypatch):
        # A clip of 3e-4 ||B||_F leaves small negative eigenvalues out of
        # the factor, so the factor residual fails on 15 of these trials,
        # 9 of them past the first chunk.
        monkeypatch.setattr(linalg, "CLIP_REL", 3e-4)
        trials, seed = 2 * CHUNK + 5, 4
        reference = []
        for t in range(trials):
            a = reference_split_trial(t, seed)
            problems = linalg.split_invariant_violations(a, psd_split(a))
            if problems:
                reference.append((t, len(a), [_description(problem) for problem in problems]))
        assert 0 < len(reference) < 20 and reference[-1][0] >= CHUNK
        assert all(problems == ["factor residual"] for *_, problems in reference)
        failures, details = checks.split(trials, seed)
        assert details == {}
        assert [(f["trial"], f["d"], [_description(problem) for problem in f["problems"]])
                for f in failures] == reference

    def test_stack_rows_equal_the_matrix_calls(self):
        # matrices of 0.01, 1 and 100 scale in one stack
        stack = np.array([random_symmetric(9, seed=s, scale=scale)
                          for s, scale in enumerate((0.01, 1.0, 100.0, 0.01))])
        split = psd_split(stack)
        assert linalg.split_invariant_violations(stack, split) == [[]] * len(stack)
        for i, a in enumerate(stack):
            one = psd_split(a)
            for field in ("eigenvalues", "eigenvectors", "bplus", "bminus"):
                assert np.array_equal(getattr(split, field)[i], getattr(one, field))
            rank = one.factor_l.shape[1]
            assert np.array_equal(split.factor_l[i][:, 9 - rank:], one.factor_l)
            assert not np.any(split.factor_l[i][:, :9 - rank])
