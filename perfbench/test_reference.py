"""The benchmark's output checks accept modkit's real outputs and reject
deliberately corrupted ones: a flipped tensor entry, a wrong classification,
and one entry of the normalized S with its sign negated.

Run from the repository root:  python3 -m pytest perfbench/test_reference.py -q
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from modkit import datum, matrix  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402


def run_one_pass(wl):
    wl.setup()
    p = workloads.Pass()
    wl.run_pass(p, 0)
    return p


@pytest.fixture(scope="module")
def taft(tmp_path_factory):
    """Taft d=5 through the taft-d9 workload's own code and checks."""
    wl = workloads.Taft(seed=3, workdir=str(tmp_path_factory.mktemp("taft")), d=5)
    wl.setup()
    res = workloads.pipeline.verify_raw(workloads.mio.datum_from_json(wl.raw_json),
                                        reps=wl.reps, fusion_oracle=wl.oracle)
    return wl, res, workloads.normalize(res.sldeg, wl.path)


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    wl = workloads.SmallGrid(seed=3, workdir=str(tmp_path_factory.mktemp("grid")))
    wl.pointed, wl.degenerate = [(5, 2, 1)], [(9, 3, 2)]
    return wl


def test_taft_pass_is_correct(tmp_path):
    p = run_one_pass(workloads.Taft(seed=5, workdir=str(tmp_path), d=5))
    assert (p.attempted, p.failed, p.correct) == (2, 0, True), p.problems


def test_small_pass_is_correct(grid):
    p = run_one_pass(grid)
    assert (p.attempted, p.failed, p.correct) == (6, 0, True), p.problems


def test_taft_checks_accept_real_outputs(taft):
    wl, res, out = taft
    assert wl.check_verify(res) == (True, "")
    assert wl.check_normalized(out) == (True, "")


def test_flipped_quotient_entry_is_rejected(taft):
    wl, res, _ = taft
    for x, y, z in [(1, 2, 3), (wl.unit, 4, 4)]:
        bad = res.tensor.copy()
        bad[x, y, z] += 1
        ok, msg = wl.check_verify(dataclasses.replace(res, tensor=bad))
        assert not ok and msg


def test_flipped_group_law_entry_is_rejected():
    t = ref.group_law(7)
    assert ref.check_group_law(t, 7)[0]
    t[2, 3, 5] = 0
    assert not ref.check_group_law(t, 7)[0]


def test_wrong_classification_is_rejected(taft, grid):
    wl, res, (emitted, back, verdict) = taft
    assert not wl.check_verify(dataclasses.replace(res, classification="N-modular"))[0]
    wrong = dataclasses.replace(verdict, classification="N-modular")
    assert not wl.check_normalized((emitted, back, wrong))[0]
    raw = workloads.families.pointed_cyclic(5, 2, 1)
    good = workloads.pipeline.verify_raw(raw)
    assert good.classification == "N-modular"
    assert not ref.check_classification("degenerate", good.classification)[0]


def test_negated_normalized_entry_is_rejected(taft):
    wl, _, (emitted, back, verdict) = taft
    s = back.s_matrix
    entries = list(s.entries)
    k = next(i for i, e in enumerate(entries) if e)   # a nonzero entry
    entries[k] = -entries[k]
    flipped = datum.ModularDatum(back.labels, back.unit,
                                 matrix.CycMatrix(s.rows, s.cols, entries), back.t_diag)
    ok, msg = wl.check_normalized((emitted, flipped, verdict))
    assert not ok and "entry" in msg
    negated_all = datum.ModularDatum(back.labels, back.unit, -s, back.t_diag)
    assert wl.check_normalized((emitted, negated_all, verdict))[0]   # one sign for all


def test_hostile_check_wants_exit_2_and_one_error_line():
    check = workloads.CliFiles.check_rejected
    assert check(workloads.CliRun(2, "", "error: cannot read datum: bad\n"))[0]
    assert not check(workloads.CliRun(1, "", "Traceback (most recent call last):\n  ...\n"))[0]
    assert not check(workloads.CliRun(0, "[]", "classification: Z-modular\n"))[0]


def test_folded_fusion_line_is_checked_with_signs():
    # (2,1) (x) (3,4) at d=7 folds to {-(3,2), -(5,1)} on the canonical representatives
    line = ref.parse_multiset("{-(3,2), -(5,1)}")
    assert ref.check_dims_product(7, "(2,1)", "(3,4)", line)[0]
    assert not ref.check_dims_product(7, "(2,1)", "(3,4)", [("(3,2)", 1), ("(5,1)", -1)])[0]


def test_one_phase_rejects_mixed_factors():
    refs = [1, 2j, -3, 0.5]
    assert ref.check_one_phase([1j * r for r in refs], refs, [1j, -1j])[0]
    values = [-1j * r for r in refs]
    values[2] = -values[2]
    assert not ref.check_one_phase(values, refs, [1j, -1j])[0]
    assert np.allclose(ref.pointed_phases(5, 2, 0)[0] ** -2, 5)
