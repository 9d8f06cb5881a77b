"""Structured self-verification of the exact identity layer.

Every check here is a symbolic identity (structural equality of reduced
rational functions or exact integers), so a pass is a proof at the
tested sizes, not a statistical statement.  The optional full mode adds
the two sampling suites (goodness of fit of the samplers and the
desk-scale normality run).

Route functions are resolved on their modules at call time, so a
deliberately mutated route is caught and named by the summary.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

import qplancherel.asymptotics as asymptotics
from qplancherel.characters import char_normalized, sigma_eval
from qplancherel.groupcenter import class_product
from qplancherel.hecke import (
    q_char_normalized,
    ram_round_trip,
    sigma_q_in_sigma,
)
from qplancherel.measure import (
    expectation_brute,
    expectation_sigma,
    expectation_sigma_q,
    growth_transitions_symbolic,
    measure_table,
    measure_value,
)
from qplancherel.montecarlo import RunConfig, run_clt, sample_partitions, validate_sampler
from qplancherel.observables import (
    ObservableExpansion,
    eval_expansion,
    identity_cumulant,
    product_sigma,
    project_to_class_sums,
    transitive_cumulant_oracle,
)
from qplancherel.partitions import conjugate, partitions_of
from qplancherel.ratfunc import QRat, ZERO, qrat_sum

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _ok(name: str, detail: str = "") -> CheckResult:
    return CheckResult(name, True, detail)


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name, False, detail)


# ---------------------------------------------------------------------------
# individual checks

def check_measure_normalization() -> CheckResult:
    name = "measure_normalization"
    for n in range(1, 11):
        total = qrat_sum(measure_table(n).values())
        if total != QRat(1):
            return _fail(name, f"sum over partitions of {n} is {total}")
    return _ok(name, "n <= 10")


def _check_expectations(name: str, symbol, closed_form) -> CheckResult:
    # enumeration over the measure table against the closed form
    for k in range(1, 6):
        for mu in partitions_of(k):
            for n in range(1, 11):
                if expectation_brute(symbol(mu), n) != closed_form(mu, n):
                    return _fail(name, f"mu={mu} n={n}")
    return _ok(name, "|mu| <= 5, n <= 10")


def check_expectation_formula() -> CheckResult:
    sigma = ObservableExpansion.sigma
    return _check_expectations("expectation_formula", sigma, expectation_sigma)


def check_expectation_q_formula() -> CheckResult:
    return _check_expectations(
        "expectation_q_formula", sigma_q_in_sigma, expectation_sigma_q
    )


def check_ram_round_trip() -> CheckResult:
    name = "ram_round_trip"
    for k in range(1, 7):
        for rho in partitions_of(k):
            if ram_round_trip(rho) != ObservableExpansion.sigma(rho):
                return _fail(name, f"rho={rho}")
    return _ok(name, "|rho| <= 6")


def check_q_one_specialization() -> CheckResult:
    name = "q_one_specialization"
    one = Fraction(1)
    for n in range(1, 9):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                for mu in partitions_of(k):
                    if q_char_normalized(lam, mu, one) != char_normalized(lam, mu):
                        return _fail(name, f"lam={lam} mu={mu}")
    return _ok(name, "n <= 8")


def check_product_worked_example() -> CheckResult:
    name = "product_worked_example"
    want = ObservableExpansion(
        {(3, 2): QRat(1), (4,): QRat(6), (2, 1): QRat(6)}
    )
    got = product_sigma((3,), (2,))
    if got != want:
        return _fail(name, f"Sigma_3 Sigma_2 = {got.terms}")
    return _ok(name)


def check_projection_convolution() -> CheckResult:
    name = "projection_convolution"
    sigma = ObservableExpansion.sigma
    for j in range(1, 8):
        for k in range(1, 9 - j):
            for mu in partitions_of(j):
                for nu in partitions_of(k):
                    for n in range(max(j, k), 9):
                        lhs = project_to_class_sums(product_sigma(mu, nu), n)
                        a = project_to_class_sums(sigma(mu), n)
                        b = project_to_class_sums(sigma(nu), n)
                        rhs: dict = {}
                        for ta, ca in a.items():
                            for tb, cb in b.items():
                                for tc, mult in class_product(ta, tb).items():
                                    rhs[tc] = rhs.get(tc, ZERO) + ca * cb * mult
                        rhs = {t: c for t, c in rhs.items() if not c.is_zero()}
                        if lhs != rhs:
                            return _fail(name, f"mu={mu} nu={nu} n={n}")
    return _ok(name, "|mu|+|nu| <= 8, n <= 8")


def _random_cubics(count: int = 20) -> list[list[Fraction]]:
    rng = random.Random(173)
    return [
        [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(4)]
        for _ in range(count)
    ]


def check_mobius_inversion() -> CheckResult:
    name = "mobius_inversion"
    for coeffs in _random_cubics():
        f = asymptotics.poly_class_function(coeffs)
        for n in range(2, 11):
            if asymptotics.mobius_brute(f, n) != asymptotics.mobius_closed(f, n):
                return _fail(name, f"coeffs={coeffs} n={n}")
    return _ok(name, "20 random cubics, n <= 10")


def check_mobius_permutation_form() -> CheckResult:
    name = "mobius_permutation_form"
    for coeffs in _random_cubics():
        f = asymptotics.poly_class_function(coeffs)
        for n in range(2, 8):
            if asymptotics.mobius_perm_brute(f, n) != asymptotics.mobius_brute(f, n):
                return _fail(name, f"coeffs={coeffs} n={n}")
    return _ok(name, "20 random cubics, n <= 7")


def check_three_route_covariance() -> CheckResult:
    # late attribute lookup: a mutated route function is picked up here
    name = "three_route_covariance"
    routes = {
        "closed": asymptotics.cov_closed_form,
        "doublesum": asymptotics.cov_double_sum,
        "mobius": asymptotics.reduce_covariance_via_mobius,
    }
    for k in range(2, 6):
        for l in range(2, 6):
            values = {rn: fn(k, l) for rn, fn in routes.items()}
            if len(set(values.values())) == 1:
                continue
            odd = [
                rn
                for rn, v in values.items()
                if sum(v == w for w in values.values()) == 1
            ]
            if len(odd) == 1:
                return _fail(
                    name, f"route {odd[0]!r} disagrees with the others at (k,l)=({k},{l})"
                )
            return _fail(name, f"all routes disagree at (k,l)=({k},{l})")
    return _ok(name, "2 <= k,l <= 5")


def check_evaluation_multiplicative() -> CheckResult:
    name = "evaluation_multiplicative"
    for j in range(1, 6):
        for k in range(1, 7 - j):
            for mu in partitions_of(j):
                for nu in partitions_of(k):
                    prod = product_sigma(mu, nu)
                    for n in range(1, 9):
                        for lam in partitions_of(n):
                            want = QRat(sigma_eval(mu, lam) * sigma_eval(nu, lam))
                            if eval_expansion(prod, lam) != want:
                                return _fail(name, f"mu={mu} nu={nu} lam={lam}")
    return _ok(name, "|mu|+|nu| <= 6, n <= 8")


def check_identity_cumulant_oracle() -> CheckResult:
    name = "identity_cumulant_oracle"
    for m in range(1, 9):
        for ks in partitions_of(m):
            a = identity_cumulant(ks)
            if a != transitive_cumulant_oracle(ks):
                return _fail(name, f"ks={ks}: oracle mismatch")
            if a.degree > sum(ks) - len(ks) + 1:
                return _fail(name, f"ks={ks}: degree {a.degree} above bound")
    return _ok(name, "sum ks <= 8")


def check_growth_coherency() -> CheckResult:
    name = "growth_coherency"
    for m in range(0, 9):
        for lam in partitions_of(m):
            total = qrat_sum(growth_transitions_symbolic(lam).values())
            if total != QRat(1):
                return _fail(name, f"transitions from {lam} sum to {total}")
    return _ok(name, "from all shapes of size <= 8")


def check_conjugation_duality() -> CheckResult:
    name = "conjugation_duality"
    for n in range(1, 9):
        for lam in partitions_of(n):
            if measure_value(lam) != measure_value(conjugate(lam)).subs_inverse():
                return _fail(name, f"lam={lam}")
    return _ok(name, "n <= 8")


def check_finite_n_drift() -> CheckResult:
    name = "finite_n_drift"
    for mu, nu in [((2,), (2,)), ((2,), (3,)), ((3,), (3,))]:
        lim = asymptotics.limit_cov_z(mu, nu).eval_at(HALF)
        gaps = [
            abs(asymptotics.cov_z_finite(mu, nu, n).eval_at(HALF) - lim)
            for n in (8, 32)
        ]
        if not gaps[0] > gaps[1]:
            return _fail(name, f"mu={mu} nu={nu}: gap {gaps[0]} -> {gaps[1]}")
    return _ok(name, "n = 8 -> 32 at q = 1/2")


def check_third_cumulant_decay() -> CheckResult:
    name = "third_cumulant_decay"
    k8 = asymptotics.third_cumulant_z_at((2,), 8, HALF)
    k16 = asymptotics.third_cumulant_z_at((2,), 16, HALF)
    if not 0 < k16 < k8:
        return _fail(name, f"values {k8}, {k16} do not decay")
    r8, r16 = k8 * 8**0.5, k16 * 16**0.5
    if abs(r16 - r8) / r8 > 0.15:
        return _fail(name, f"sqrt(n)-rescaled values {r8:.4f}, {r16:.4f} drift")
    # the statistic the CLT report targets: the exact skewness of W_k
    details = [f"k3 = {k8:.5f} (n=8) -> {k16:.5f} (n=16)"]
    for k in (2, 3):
        s1 = asymptotics.w_shape_at(k, 1000, HALF)[0]
        s2 = asymptotics.w_shape_at(k, 10_000, HALF)[0]
        if not 0 < s2 < s1:
            return _fail(name, f"skewness of W_{k}: {s1}, {s2} do not decay")
        r1, r2 = s1 * 1000**0.5, s2 * 10_000**0.5
        if abs(r2 - r1) / r1 > 0.15:
            return _fail(
                name, f"sqrt(n)-rescaled skewness of W_{k}: {r1:.4f}, {r2:.4f} drift"
            )
        details.append(f"skew W_{k} = {s1:.4f} (n=1000) -> {s2:.4f} (n=10000)")
    return _ok(name, "; ".join(details))


def check_covariance_signs() -> CheckResult:
    name = "covariance_signs"
    two = Fraction(2)
    for k in range(2, 7):
        for l in range(2, 7):
            v = asymptotics.cov_closed_form(k, l).eval_at(two)
            if v == 0 or (v > 0) != ((k + l) % 2 == 0):
                return _fail(name, f"(k,l)=({k},{l}) value {v} at q=2")
    return _ok(name, "(-1)^(k+l) at q = 2, 2 <= k,l <= 6")


def check_covariance_positivity() -> CheckResult:
    name = "covariance_positivity"
    for q0 in (Fraction(1, 10), Fraction(1, 3), HALF, Fraction(9, 10)):
        for k in range(2, 7):
            for l in range(2, 7):
                if asymptotics.cov_closed_form(k, l).eval_at(q0) <= 0:
                    return _fail(name, f"(k,l)=({k},{l}) at q={q0}")
    return _ok(name, "q in {1/10, 1/3, 1/2, 9/10}")


def check_report_determinism() -> CheckResult:
    name = "report_determinism"
    cfg = dict(
        n=10,
        q=0.5,
        num_samples=600,
        ks=(2, 3),
        seed=5,
        sampler="exact",
        bootstrap=50,
        gate_draws=2000,
    )
    a = run_clt(RunConfig(**cfg))
    b = run_clt(RunConfig(**cfg))
    if a.to_json() != b.to_json():
        return _fail(name, "repeated runs differ")
    one = sample_partitions(10, 0.5, 600, 5, method="exact", workers=1)
    two = sample_partitions(10, 0.5, 600, 5, method="exact", workers=2)
    if one != two:
        return _fail(name, "sample stream depends on worker count")
    return _ok(name, "byte-identical report; worker-invariant stream")


def check_sampler_gof_full() -> CheckResult:
    name = "sampler_gof"
    details = []
    for method in ("rsk", "growth"):
        for q0 in (0.3, 0.5, 0.8, 2.0):
            for seed in (1, 2, 3):
                gate = validate_sampler(method, 6, q0, 100_000, seed)
                details.append(f"{method} q={q0} seed={seed} p={gate.gof.p_value:.3g}")
                if not gate.passed:
                    return _fail(name, details[-1])
    return _ok(name, "; ".join(details))


def check_clt_full() -> CheckResult:
    name = "clt_desk_scale"
    cfg = RunConfig(n=1000, q=0.5, num_samples=20_000, ks=(2, 3), seed=42, sampler="rsk")
    rep = run_clt(cfg)
    failing = [c for c in rep.checks if not c.passed]
    if failing:
        detail = "; ".join(
            f"{c.name}: observed {c.observed:.5f}, target {c.target:.5f}, "
            f"bound {c.bound:.5f}"
            for c in failing
        )
        return _fail(name, f"failed: {detail}")
    return _ok(name, "all report checks passed")


SYMBOLIC_CHECKS = [
    check_measure_normalization,
    check_expectation_formula,
    check_expectation_q_formula,
    check_ram_round_trip,
    check_q_one_specialization,
    check_product_worked_example,
    check_projection_convolution,
    check_mobius_inversion,
    check_mobius_permutation_form,
    check_three_route_covariance,
    check_evaluation_multiplicative,
    check_identity_cumulant_oracle,
    check_growth_coherency,
    check_conjugation_duality,
    check_finite_n_drift,
    check_third_cumulant_decay,
    check_covariance_signs,
    check_covariance_positivity,
    check_report_determinism,
]

FULL_CHECKS = [
    check_sampler_gof_full,
    check_clt_full,
]


def run(full: bool = False) -> list[CheckResult]:
    checks = list(SYMBOLIC_CHECKS)
    if full:
        checks += FULL_CHECKS
    return [c() for c in checks]


def summary(results: list[CheckResult]) -> dict:
    return {
        "checks": [asdict(r) for r in results],
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
        "ok": all(r.passed for r in results),
    }


def render(results: list[CheckResult], fmt: str = "text") -> str:
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "json":
        return json.dumps(summary(results), sort_keys=True, indent=2) + "\n"
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark}  {r.name}" + (f"  [{r.detail}]" if r.detail else ""))
    s = summary(results)
    lines.append(f"{s['passed']} passed, {s['failed']} failed")
    return "\n".join(lines) + "\n"
