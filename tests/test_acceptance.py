"""The nine acceptance criteria, one test (and one printed PASS/FAIL line)
per criterion.  Uses the desk profile: full sample counts, ~1 minute total.
test_wired_check_fails_verify then breaks each paper check that `verify`
runs, one at a time, and runs `verify --profile quick` (~8 s each).
"""

import json

import pytest

from chevlab import acceptance, classify, cli, escape, groups, torus_lab

CFG = acceptance.PROFILES["desk"]


def _check(index, fn):
    try:
        res = fn(CFG)
    except Exception as exc:
        print("criterion {} [{}]: FAIL ({!r})".format(
            index, fn.__name__.replace("criterion_", ""), exc))
        raise
    line = "criterion {} [{}]: {}".format(
        index, res["name"], "PASS" if res["passed"] else "FAIL")
    print(line)
    assert res["passed"], res["detail"]


def test_criterion_1_order_oracle():
    _check(1, acceptance.criterion_order_oracle)


def test_criterion_2_degree_oracle():
    _check(2, acceptance.criterion_degree_oracle)


def test_criterion_3_classification_oracle():
    _check(3, acceptance.criterion_classification_oracle)


def test_criterion_4_growth_suite():
    _check(4, acceptance.criterion_growth_suite)


def test_criterion_5_escape_envelope():
    _check(5, acceptance.criterion_escape_envelope)


def test_criterion_6_torus_certificates():
    _check(6, acceptance.criterion_torus_certificates)


def test_criterion_7_constants_suite():
    _check(7, acceptance.criterion_constants_suite)


def test_criterion_8_saturation_counting():
    _check(8, acceptance.criterion_saturation_counting)


def test_criterion_9_determinism():
    _check(9, acceptance.criterion_determinism)


class _NoRegularSemisimpleBound(escape.LogScaled):
    """LogScaled with power() pinned to 0: every bound it builds fails."""
    power = staticmethod(lambda base, exponent: escape.LogScaled.from_exact(0))


_CATALOGUE = classify.count_nonrs_by_catalogue

# (patched module, attribute, replacement, the criterion that must fail)
WIRED = {
    "soodd_reconstruction_check": (
        torus_lab, "soodd_reconstruction_check", lambda n, F, rng: False, 6),
    "count_nonrs_by_catalogue": (
        classify, "count_nonrs_by_catalogue",
        lambda spec, F, pts: _CATALOGUE(spec, F, pts) + 1, 3),
    "weyl_order": (groups, "weyl_order", lambda spec: 1, 1),
    "rho_iota": (
        escape, "rho_iota", lambda F, N, D, mat: (0,) * (N + 1) ** (2 * D), 5),
    "find_regular_semisimple_bound": (
        escape, "LogScaled", _NoRegularSemisimpleBound, 5),
}


@pytest.mark.parametrize("wired", sorted(WIRED))
def test_wired_check_fails_verify(wired, monkeypatch, capsys):
    """A false answer from each paper check that `verify` runs fails its
    criterion, and only that one, and `verify` exits 1."""
    module, attr, replacement, index = WIRED[wired]
    monkeypatch.setattr(module, attr, replacement)
    criterion = acceptance.CRITERIA[index - 1]
    assert acceptance.run_criterion(criterion, acceptance.PROFILES["quick"])["passed"] is False
    assert cli.run(["verify", "--profile", "quick"]) == 1
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert [c["index"] for c in report["criteria"] if not c["passed"]] == [index]
