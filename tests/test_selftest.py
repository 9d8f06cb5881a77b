"""Checks of the self-test harness itself.

The expensive suites already run in the acceptance gate; here we verify
the harness machinery: fault injection is actually detected and blamed
on the right route, rendering is stable, and the summary counts add up.
"""

from fractions import Fraction
from types import SimpleNamespace

from qplancherel import asymptotics, characters, selftest
from qplancherel.montecarlo import Check
from qplancherel.ratfunc import QPoly, QRat


def mutated_closed_form(k: int, l: int) -> QRat:
    # off-by-one exponent in the prefactor
    honest = asymptotics.cov_double_sum
    return honest(k, l) * QRat(QPoly.monomial(1))


def test_fault_injection_names_the_mutated_route(monkeypatch):
    monkeypatch.setattr(asymptotics, "cov_closed_form", mutated_closed_form)
    result = selftest.check_three_route_covariance()
    assert not result.passed
    assert "'closed'" in result.detail
    assert "(k,l)=(2,2)" in result.detail


def test_fault_injection_other_route(monkeypatch):
    monkeypatch.setattr(
        asymptotics, "cov_double_sum", lambda k, l: QRat(0)
    )
    result = selftest.check_three_route_covariance()
    assert not result.passed
    assert "'doublesum'" in result.detail


def test_unmutated_routes_pass():
    assert selftest.check_three_route_covariance().passed


def test_shape_targets_two_routes_agree():
    assert selftest.check_shape_targets_two_routes().passed


def test_product_rule_averages_each_distinct_product_once(monkeypatch):
    # x, x^2, x^3, x^4 for the cumulants of orders 1..4
    seen = []
    honest = asymptotics.expectation_of_expansion
    monkeypatch.setattr(
        asymptotics, "expectation_of_expansion", lambda a, n, q0: seen.append(a) or honest(a, n, q0)
    )
    got = selftest.product_rule_cumulants(3, 1000, Fraction(1, 2), 4)
    assert len(seen) == len(set(seen)) == 4
    assert got == (
        Fraction(0),
        Fraction(5157331, 1216965566250),
        Fraction(3731181271390211, 1232730177138100620000000),
        Fraction(4419988133538539403184843741, 1323901163353191323737251633120000000000),
    )


def test_shape_targets_two_routes_catch_a_wrong_route(monkeypatch):
    honest = asymptotics.q_char_cumulants_at
    monkeypatch.setattr(
        asymptotics, "q_char_cumulants_at", lambda k, n, q0: honest(k, n + 1, q0)
    )
    result = selftest.check_shape_targets_two_routes()
    assert not result.passed
    assert "k=2" in result.detail


def test_finite_n_drift_catches_a_route_that_returns_the_limit(monkeypatch):
    def limit(mu, nu, n, q0):
        return asymptotics.limit_cov_z(mu, nu).eval_at(q0)

    monkeypatch.setattr(asymptotics, "cov_z_finite", limit)
    result = selftest.check_finite_n_drift()
    assert not result.passed
    assert "mu=(2,) nu=(2,)" in result.detail


def test_float_characters_two_routes_agree():
    assert selftest.check_float_characters_two_routes().passed


def test_float_characters_two_routes_catch_a_wrong_coefficient(monkeypatch):
    honest = characters._content_polynomial

    def last_coefficient_off(mu):
        mu_size, k, d, terms = honest(mu)
        if mu == (4,):
            *rest, (c, nu) = terms
            terms = (*rest, (c - 1, nu))
        return mu_size, k, d, terms

    monkeypatch.setattr(characters, "_content_polynomial", last_coefficient_off)
    result = selftest.check_float_characters_two_routes()
    assert not result.passed
    assert "rho=(4,)" in result.detail


def test_render_is_reproducible():
    results = [
        selftest.check_measure_normalization(),
        selftest.check_product_worked_example(),
    ]
    again = [
        selftest.check_measure_normalization(),
        selftest.check_product_worked_example(),
    ]
    assert selftest.render(results) == selftest.render(again)
    assert selftest.summary(results) == selftest.summary(again)


def test_render_text_format():
    results = [
        selftest.CheckResult("good", True, "fine"),
        selftest.CheckResult("bad", False, "broken"),
    ]
    text = selftest.render(results)
    lines = text.strip().splitlines()
    assert lines[0].startswith("PASS  good")
    assert lines[1].startswith("FAIL  bad")
    assert lines[-1] == "1 passed, 1 failed"


def test_run_times_each_check(monkeypatch):
    monkeypatch.setattr(
        selftest,
        "SYMBOLIC_CHECKS",
        [selftest.check_product_worked_example, selftest.check_measure_normalization],
    )
    results = selftest.run()
    assert [r.name for r in results] == ["product_worked_example", "measure_normalization"]
    assert all(r.passed and r.seconds > 0 for r in results)
    lines = selftest.render(results).splitlines()
    assert lines[1].endswith(f"  ({results[1].seconds:.2f} s)")
    assert selftest.summary(results)["checks"][1]["seconds"] == results[1].seconds


def test_render_json_format():
    results = [selftest.CheckResult("good", True, "fine")]
    payload = selftest.summary(results)
    assert payload["ok"] is True
    assert payload["passed"] == 1
    assert payload["failed"] == 0
    assert payload["checks"][0]["name"] == "good"


def test_summary_counts():
    results = [
        selftest.CheckResult("a", True),
        selftest.CheckResult("b", False, "x"),
        selftest.CheckResult("c", False, "y"),
    ]
    s = selftest.summary(results)
    assert (s["passed"], s["failed"], s["ok"]) == (1, 2, False)


def test_registries_are_disjoint_and_named():
    names = [fn.__name__ for fn in selftest.SYMBOLIC_CHECKS + selftest.FULL_CHECKS]
    assert len(names) == len(set(names))
    assert all(n.startswith("check_") for n in names)


def test_full_checks_keep_their_printed_names():
    # run names each result after its check function, less check_
    names = [fn.__name__.removeprefix("check_") for fn in selftest.FULL_CHECKS]
    assert names == ["sampler_gof", "clt_desk_scale"]


def test_clt_failure_detail_names_observed_target_and_bound(monkeypatch):
    # the desk-scale run is replaced by a canned report: only the
    # rendering of a failing check is under test here
    failing = Check("skewness_w3", False, 0.51, 0.34694, 0.15)
    report = SimpleNamespace(checks=(Check("var_w2", True, 0.07, 0.0714, 0.1), failing))
    monkeypatch.setattr(selftest, "run_clt", lambda cfg: report)
    result = selftest.check_clt_desk_scale()
    assert not result.passed
    assert "var_w2" not in result.detail
    assert (
        "skewness_w3: observed 0.51000, target 0.34694, bound 0.15000" in result.detail
    )
