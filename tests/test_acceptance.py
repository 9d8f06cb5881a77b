"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the checklist as
it executes.  Every bound is asserted at its stated tolerance; nothing
is loosened here, so a FAIL line means the package really missed the
target for that criterion.
"""

from qplancherel import selftest


def _gate(name: str, *results) -> None:
    passed = all(r.passed for r in results)
    detail = "; ".join(filter(None, (r.detail for r in results)))
    line = f"{'PASS' if passed else 'FAIL'}  {name}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert passed, f"{name}: {detail}"


def test_criterion_1a_measure_normalization():
    _gate("1a: measure rows sum to one", selftest.check_measure_normalization())


def test_criterion_1b_expectation_closed_form():
    _gate("1b: closed-form symbol expectation", selftest.check_expectation_formula())


def test_criterion_1c_deformed_expectation():
    _gate("1c: deformed-symbol expectation", selftest.check_expectation_q_formula())


def test_criterion_1d_round_trip_and_specialization():
    _gate(
        "1d: basis round trip and q = 1 specialization",
        selftest.check_ram_round_trip(),
        selftest.check_q_one_specialization(),
    )


def test_criterion_1e_product_and_projection():
    _gate(
        "1e: product worked example and projection oracle",
        selftest.check_product_worked_example(),
        selftest.check_projection_convolution(),
    )


def test_criterion_1f_mobius_inversion():
    _gate(
        "1f: alternating-average identity, both forms",
        selftest.check_mobius_inversion(),
        selftest.check_mobius_permutation_form(),
    )


def test_criterion_1g_three_route_covariance():
    _gate("1g: three covariance routes agree", selftest.check_three_route_covariance())


def test_criterion_1h_evaluation_multiplicative():
    _gate("1h: evaluation is multiplicative", selftest.check_evaluation_multiplicative())


def test_criterion_1i_identity_cumulant():
    _gate(
        "1i: identity cumulant degree bound and transitive oracle",
        selftest.check_identity_cumulant_oracle(),
    )


def test_criterion_1j_growth_and_duality():
    _gate(
        "1j: growth coherency and conjugation duality",
        selftest.check_growth_coherency(),
        selftest.check_conjugation_duality(),
    )


def test_criterion_2_sampler_goodness_of_fit():
    _gate(
        "2: sampler chi-square fit, n=6, N=1e5, q in {0.3,0.5,0.8,2}, seeds 1-3",
        selftest.check_sampler_gof(),
    )


def test_criterion_3_desk_scale_limit_reproduction():
    # n=1000, q=0.5, N=20000, seed=42: variances within 10% and the cross
    # covariance within 15% of the limit, means within 3 SE of 0, and per
    # coordinate skewness within 0.15 and excess kurtosis within 0.3 of
    # their exact values at n=1000 (0.128 and 0.028 for W_2, 0.347 and
    # 0.186 for W_3); criterion 4 checks that those values tend to 0.
    _gate(
        "3: desk-scale Gaussian reproduction (n=1000, q=0.5, N=20000, seed=42)",
        selftest.check_clt_desk_scale(),
    )


def test_criterion_4_finite_size_drift():
    _gate(
        "4: finite-size drift shrinks and third cumulant decays",
        selftest.check_finite_n_drift(),
        selftest.check_third_cumulant_decay(),
    )


def test_criterion_5_sign_structure():
    _gate(
        "5: covariance signs at q = 2 and positivity for q < 1",
        selftest.check_covariance_signs(),
        selftest.check_covariance_positivity(),
    )


def test_criterion_6_determinism():
    _gate(
        "6: byte-identical reports and worker-invariant sampling",
        selftest.check_report_determinism(),
    )
