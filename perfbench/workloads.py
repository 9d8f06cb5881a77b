"""The benchmark's workloads: inputs, the timed calls, and their checks.

Each workload has three parts:

* ``setup(seed)`` builds the inputs once the package is imported;
* ``run(inputs, results)`` makes the calls into the package and nothing
  else.  This is the timed region;
* ``check(inputs, results, ops)`` verifies every result against a second
  route or against a property the method must have.  It is never timed.

A call that raises is kept as a ``Raised`` value, and every operation
that depends on it counts as failed, so a round attempts the same
operations whatever happens.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import stats

from qplancherel import asymptotics, characters, hecke, measure, montecarlo
from qplancherel import observables, ratfunc
from qplancherel.observables import ObservableExpansion
from qplancherel.partitions import partitions_of

from tracing import Tracer

# W from the float path against sqrt(n) times the exact q-character at
# Fraction(q): absolute, since relative error is meaningless near W = 0.
# The largest gap seen on desk-scale shapes is 1.6e-11.
W_ABS_TOL = 1e-9
# Sample means and variances are checked at this many standard errors:
# a false alarm on a correct sampler is below one in a million per check,
# so no seed makes an operation fail on correct code.
SE_FACTOR = 5.0
# The same rule for a chi-square gate the benchmark calls itself: the
# package's own threshold (p > 1e-3) rejects a correct sampler on one
# seed in a thousand, and did so for the growth gate at seeds 181 and 550.
GATE_P_FLOOR = 1e-6
# Two float routes to the same number (numpy against the package's own
# estimators, float of an exact value against its float evaluation).
FLOAT_RTOL = 1e-9


# ---------------------------------------------------------------------------
# operations and their verdicts

class WrongOutput(AssertionError):
    """A result that does not match its second route."""


@dataclass(frozen=True)
class Raised:
    error: Exception

    def __str__(self) -> str:
        return f"{type(self.error).__name__}: {self.error}"


def call(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the Raised error; a Raised argument is
    passed straight through, since the call could not have been made."""
    for value in (*args, *kwargs.values()):
        if isinstance(value, Raised):
            return value
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # one failing call is one failed operation
        return Raised(exc)


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


def missing(what: str) -> Raised:
    return Raised(RuntimeError(f"no {what}: the run stopped before it"))


@dataclass
class Ops:
    """The operations a round attempted and the ones that failed.

    An operation fails when a call it depends on raised (``errors``) or
    when its output does not pass its check (``wrong``).
    """

    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.errors) + len(self.wrong)

    def check(self, name: str, verify, *values) -> bool:
        self.attempted += 1
        raised = [v for v in values if isinstance(v, Raised)]
        if raised:
            self.errors.append(f"{name}: {raised[0]}")
            return False
        try:
            verify(*values)
        except Exception as exc:  # a check that cannot run rejects the output
            self.wrong.append(f"{name}: {type(exc).__name__}: {exc}")
            return False
        return True


# ---------------------------------------------------------------------------
# checks shared by the sampling workloads

def verify_partitions(shapes, n: int, count: int) -> None:
    require(len(shapes) == count, f"{len(shapes)} shapes, expected {count}")
    for lam in shapes:
        require(
            isinstance(lam, tuple)
            and all(isinstance(p, int) and p > 0 for p in lam)
            and all(a >= b for a, b in zip(lam, lam[1:]))
            and sum(lam) == n,
            f"{lam!r} is not a partition of {n}",
        )


def verify_w_value(lam, k: int, q: float, w: float) -> None:
    exact = math.sqrt(sum(lam)) * float(
        hecke.q_char_normalized_exact_at(lam, (k,), Fraction(q))
    )
    require(
        abs(w - exact) <= W_ABS_TOL,
        f"W_{k} = {w!r}, exact {exact!r} (gap {abs(w - exact):.2e})",
    )


def verify_w_moments(w_column, k: int, n: int, q: float) -> None:
    """Sample mean and variance of W_k against the exact law at n.

    E[W_k] = 0 and Var W_k = n kappa_2, with kappa_r the exact cumulants
    of the normalized q-character; the standard error of the variance
    uses the exact fourth moment where the product rule reaches it.
    """
    x = np.asarray(w_column, dtype=float)
    count = len(x)
    kappa = asymptotics.q_char_cumulants_at(k, n, Fraction(q))
    var = n * float(kappa[1])
    mean_se = math.sqrt(var / count)
    require(
        abs(x.mean()) <= SE_FACTOR * mean_se,
        f"mean of W_{k} is {x.mean():.4g}, exact 0, se {mean_se:.3g}",
    )
    if len(kappa) > 3:
        mu4 = n * n * float(kappa[3] + 3 * kappa[1] ** 2)
    else:
        mu4 = float(((x - x.mean()) ** 4).mean())
    var_se = math.sqrt(max(mu4 - var * var, 0.0) / count)
    s2 = float(x.var(ddof=1))
    require(
        abs(s2 - var) <= SE_FACTOR * var_se,
        f"variance of W_{k} is {s2:.4g}, exact n kappa_2 = {var:.4g}, "
        f"se {var_se:.3g}",
    )


def chunks(count: int) -> list[tuple[int, int]]:
    """The chunk indices and sizes of a draw of `count` shapes."""
    full, rem = divmod(count, measure.SAMPLE_CHUNK)
    return [(j, measure.SAMPLE_CHUNK) for j in range(full)] + (
        [(full, rem)] if rem else []
    )


# ---------------------------------------------------------------------------
# clt-desk

@dataclass(frozen=True)
class CltDesk:
    """The desk-scale CLT run that the README and the roadmap quote."""

    n: int = 1000
    q: float = 0.5
    samples: int = 20_000
    ks: tuple[int, ...] = (2, 3)
    workers: int = 2
    bootstrap: int = 1000
    spot: int = 16  # drawn shapes whose W is checked against the exact layer

    def setup(self, seed: int) -> montecarlo.RunConfig:
        return montecarlo.RunConfig(
            n=self.n,
            q=self.q,
            num_samples=self.samples,
            ks=self.ks,
            seed=seed,
            sampler="rsk",
            workers=self.workers,
            bootstrap=self.bootstrap,
        )

    def captures(self, config, results: dict) -> dict:
        """The main draw and its W matrix, kept as run_clt passes them on."""

        def keep_draw(fn):
            def wrapper(n, *args, **kwargs):
                out = fn(n, *args, **kwargs)
                if n == config.n:  # the gate draws at its own small n
                    results["shapes"] = out
                return out

            return wrapper

        def keep_w(fn):
            def wrapper(*args, **kwargs):
                results["w"] = fn(*args, **kwargs)
                return results["w"]

            return wrapper

        return {
            montecarlo.sample_partitions: keep_draw,
            montecarlo.evaluate_stats: keep_w,
        }

    def run(self, config, results: dict) -> None:
        results["report"] = call(montecarlo.run_clt, config)

    def sampling(self, config, results: dict, tracer: Tracer) -> dict:
        # the chunks ran in worker processes, out of the tracer's sight:
        # time the run's own chunk indices again in this process
        chunk_fn = measure.SAMPLER_CHUNK_FNS[config.sampler]
        busy = 0
        for j, m in chunks(config.num_samples):
            start = time.perf_counter_ns()
            chunk_fn(config.n, config.q, config.seed, j, m)
            busy += time.perf_counter_ns() - start
        return {
            "method": config.sampler,
            "workers": config.workers,
            "shapes": config.num_samples,
            "chunk_busy_s": busy / 1e9,
            "w_rows": config.num_samples,
            "ks": len(config.ks),
        }

    def spot_indices(self) -> list[int]:
        return [i * self.samples // self.spot for i in range(self.spot)]

    def check(self, config, results: dict, ops: Ops) -> None:
        report = results["report"]
        failed_run = report if isinstance(report, Raised) else None
        shapes = failed_run or results.get("shapes") or missing("shapes")
        w = failed_run or results.get("w", missing("W matrix"))

        ops.check("gate", lambda r: require(
            r.gate is not None and r.gate.passed, f"gate {r.gate}"), report)
        ops.check("shapes", lambda s: verify_partitions(s, config.n, self.samples), shapes)
        ops.check("estimate", self._verify_estimate, report, w)
        ops.check("theory", self._verify_theory, report)
        for name in self._report_check_names():
            ops.check(f"report.{name}", lambda r, name=name: self._verify_report_check(r, name), report)
        for i in self.spot_indices():
            for j, k in enumerate(config.ks):
                ops.check(
                    f"w_spot[{i}].w{k}",
                    lambda s, w, i=i, j=j, k=k: verify_w_value(s[i], k, config.q, float(w[i, j])),
                    shapes,
                    w,
                )

    def _report_check_names(self) -> list[str]:
        ks = self.ks
        names = [f"mean_w{k}" for k in ks] + [f"var_w{k}" for k in ks]
        names += [f"cov_w{a}_w{b}" for i, a in enumerate(ks) for b in ks[i + 1 :]]
        for k in ks:
            # the product rule reaches the skewness for k <= 4 and the
            # excess kurtosis for k <= 3 (see montecarlo)
            if 3 * k <= observables.PRODUCT_SIZE_LIMIT:
                names.append(f"skewness_w{k}")
            if 4 * k <= observables.PRODUCT_SIZE_LIMIT:
                names.append(f"excess_kurtosis_w{k}")
        return names

    def _verify_estimate(self, report, w) -> None:
        """The report's cumulant estimates, recomputed from W by numpy and
        scipy."""
        x = np.asarray(w, dtype=float)
        require(x.shape == (self.samples, len(self.ks)), f"W has shape {x.shape}")
        est = report.estimate
        require(est.count == self.samples, f"count {est.count}")
        want = {
            "mean": x.mean(axis=0),
            "cov": np.atleast_2d(np.cov(x, rowvar=False, ddof=1)),
            "skewness": stats.skew(x, axis=0, bias=False),
            "excess_kurtosis": stats.kurtosis(x, axis=0, bias=False),
        }
        for key, value in want.items():
            got = np.asarray(getattr(est, key), dtype=float)
            require(
                np.allclose(got, value, rtol=FLOAT_RTOL, atol=FLOAT_RTOL),
                f"{key}: report {got.tolist()}, recomputed {value.tolist()}",
            )

    def _verify_theory(self, report) -> None:
        """Limit covariances in the report against the double-sum route."""
        qf = Fraction(self.q)
        for i, k in enumerate(self.ks):
            for j, l in enumerate(self.ks):
                want = float(asymptotics.cov_double_sum(min(k, l), max(k, l)).eval_at(qf))
                got = report.theory_cov[i][j]
                require(
                    math.isclose(got, want, rel_tol=FLOAT_RTOL),
                    f"theory cov({k},{l}) = {got!r}, double sum {want!r}",
                )

    def _verify_report_check(self, report, name: str) -> None:
        found = [c for c in report.checks if c.name == name]
        require(len(found) == 1, f"{len(found)} report checks named {name}")
        c = found[0]
        err = abs(c.observed - c.target)
        if name.startswith("mean_"):
            # the report's own bound is 3 standard errors, which a correct
            # sampler exceeds on one seed in 370; see SE_FACTOR
            i = self.ks.index(int(name[len("mean_w"):]))
            se = report.estimate.mean_se[i]
            require(c.target == 0.0, f"{name} target {c.target}")
            require(err <= SE_FACTOR * se, f"{name}: {c.observed:.4g}, se {se:.3g}")
            return
        bound = c.bound * abs(c.target) if name[:4] in ("var_", "cov_") else c.bound
        require(
            c.passed and err <= bound,
            f"{name}: observed {c.observed:.4g}, target {c.target:.4g}, "
            f"bound {bound:.3g}, report says {'PASS' if c.passed else 'FAIL'}",
        )


# ---------------------------------------------------------------------------
# growth-n200

@dataclass(frozen=True)
class GrowthN200:
    """Gate, draw and W evaluation with the growth sampler, one process."""

    n: int = 200
    q: float = 0.5
    shapes: int = 200
    ks: tuple[int, ...] = (2, 3)
    gate_n: int = 6
    gate_draws: int = 20_000

    def setup(self, seed: int) -> dict:
        return {"seed": seed}

    def captures(self, inputs, results: dict) -> dict:
        return {}

    def run(self, inputs, results: dict) -> None:
        seed = inputs["seed"]
        results["gate"] = call(
            montecarlo.validate_sampler, "growth", self.gate_n, self.q,
            self.gate_draws, seed,
        )
        results["shapes"] = call(
            montecarlo.sample_partitions, self.n, self.q, self.shapes, seed,
            method="growth", workers=1,
        )
        results["w"] = call(montecarlo.evaluate_stats, results["shapes"], self.ks, self.q)

    def sampling(self, inputs, results: dict, tracer: Tracer) -> dict:
        busy = tracer.span_s(
            "measure.sample_growth_chunk", outside="montecarlo.validate_sampler"
        )
        return {
            "method": "growth",
            "workers": 1,
            "shapes": self.shapes,
            "chunk_busy_s": busy,
            "w_rows": self.shapes,
            "ks": len(self.ks),
        }

    def check(self, inputs, results: dict, ops: Ops) -> None:
        ops.check(
            "gate", lambda g: require(g.gof.p_value > GATE_P_FLOOR, f"gate {g}"),
            results["gate"],
        )
        ops.check(
            "shapes", lambda s: verify_partitions(s, self.n, self.shapes),
            results["shapes"],
        )
        for j, k in enumerate(self.ks):
            ops.check(
                f"moments.w{k}",
                lambda w, j=j, k=k: verify_w_moments(w[:, j], k, self.n, self.q),
                results["w"],
            )


# ---------------------------------------------------------------------------
# exact-oracle

@dataclass(frozen=True)
class ExactOracle:
    """Exact queries, each against a second route; no sampling."""

    brute_n: int = 9
    max_mu: int = 5
    cov_max: int = 5
    mobius_n: int = 10
    cubics: int = 2
    cubic_perm_n: int = 6  # permutation enumeration: 6! terms per cubic
    family_perm_n: int = 5  # the families' terms are rational functions
    shape_n: int = 1000
    shape_ks: tuple[int, ...] = (2, 3, 4)
    small_ns: tuple[int, ...] = (4, 5, 6, 7, 8)
    small_ks: tuple[int, ...] = (2, 3)
    q: Fraction = Fraction(1, 2)

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        queries = [
            (family, mu)
            for family in ("sigma", "sigma_q")
            for k in range(1, self.max_mu + 1)
            for mu in partitions_of(k)
        ]
        rng.shuffle(queries)
        functions = []
        for c in range(self.cubics):
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(4)]
            functions.append(
                (f"cubic{c}", asymptotics.poly_class_function(coeffs), self.cubic_perm_n)
            )
        functions.append(("f1(3)", asymptotics.f1_family(3), self.family_perm_n))
        functions.append(("f2(4)", asymptotics.f2_family(4), self.family_perm_n))
        return {
            "queries": [
                (family, mu, ObservableExpansion.sigma(mu) if family == "sigma" else None)
                for family, mu in queries
            ],
            "pairs": [
                (k, l) for k in range(2, self.cov_max + 1) for l in range(k, self.cov_max + 1)
            ],
            "functions": functions,
        }

    def captures(self, inputs, results: dict) -> dict:
        return {}

    def run(self, inputs, results: dict) -> None:
        n = self.brute_n
        for family, mu, x in inputs["queries"]:
            if family == "sigma":
                formula = call(measure.expectation_sigma, mu, n)
            else:
                x = call(hecke.sigma_q_in_sigma, mu)
                formula = call(measure.expectation_sigma_q, mu, n)
            results[family, mu] = (call(measure.expectation_brute, x, n), formula)
        for k, l in inputs["pairs"]:
            results["cov", k, l] = (
                call(asymptotics.cov_closed_form, k, l),
                call(asymptotics.cov_double_sum, k, l),
                call(asymptotics.reduce_covariance_via_mobius, k, l),
            )
        for name, f, perm_n in inputs["functions"]:
            for m in range(2, self.mobius_n + 1):
                routes = [call(asymptotics.mobius_closed, f, m), call(asymptotics.mobius_brute, f, m)]
                if m <= perm_n:
                    routes.append(call(asymptotics.mobius_perm_brute, f, m))
                results["mobius", name, m] = tuple(routes)
        for k in self.shape_ks:
            results["shape", k] = (
                call(asymptotics.w_shape_at, k, self.shape_n, self.q),
                call(asymptotics.q_char_cumulants_at, k, self.shape_n, self.q),
            )
        for k in self.small_ks:
            for m in self.small_ns:
                results["kappa", k, m] = call(asymptotics.q_char_cumulants_at, k, m, self.q)

    def sampling(self, inputs, results: dict, tracer: Tracer) -> None:
        return None

    def check(self, inputs, results: dict, ops: Ops) -> None:
        for family, mu, _ in inputs["queries"]:
            ops.check(
                f"expectation.{family}{list(mu)}",
                lambda brute, formula: require(
                    brute == formula, f"brute {brute} != formula {formula}"),
                *results[family, mu],
            )
        for k, l in inputs["pairs"]:
            ops.check(f"cov({k},{l})", _verify_equal_routes, *results["cov", k, l])
        for name, _, perm_n in inputs["functions"]:
            for m in range(2, self.mobius_n + 1):
                ops.check(f"mobius.{name}.n{m}", _verify_equal_routes, *results["mobius", name, m])
        for k in self.shape_ks:
            ops.check(f"shape.w{k}", _verify_shape, *results["shape", k])
        for k in self.small_ks:
            for m in self.small_ns:
                ops.check(
                    f"kappa.w{k}.n{m}",
                    lambda kappa, k=k, m=m: _verify_cumulants_by_enumeration(kappa, k, m, self.q),
                    results["kappa", k, m],
                )


def _verify_equal_routes(first, *others) -> None:
    for i, other in enumerate(others, start=1):
        require(other == first, f"route {i} gives {other}, route 0 gives {first}")


def _verify_shape(shape, kappa) -> None:
    """kappa_1 = 0 exactly, kappa_2 > 0, and the skewness and excess
    kurtosis are the standardized cumulants."""
    skew, exkurt = shape
    require(kappa[0] == 0, f"kappa_1 = {kappa[0]}")
    require(kappa[1] > 0, f"kappa_2 = {kappa[1]}")
    want_skew = float(kappa[2]) / float(kappa[1]) ** 1.5 if len(kappa) > 2 else None
    want_exkurt = float(kappa[3] / kappa[1] ** 2) if len(kappa) > 3 else None
    for label, got, want in (("skewness", skew, want_skew), ("excess kurtosis", exkurt, want_exkurt)):
        require(
            (got is None) == (want is None)
            and (want is None or math.isclose(got, want, rel_tol=FLOAT_RTOL)),
            f"{label} {got!r}, from the cumulants {want!r}",
        )


def _verify_cumulants_by_enumeration(kappa, k: int, n: int, q: Fraction) -> None:
    """Cumulants of chi_q(lam, (k)) summed over the measure table at n."""
    moments = [Fraction(0)] * 4
    for lam, weight in measure.measure_table(n).items():
        p = weight.eval_at(q)
        x = hecke.q_char_normalized_exact_at(lam, (k,), q)
        for r in range(4):
            moments[r] += p * x ** (r + 1)
    m1, m2, m3, m4 = moments
    want = (
        m1,
        m2 - m1**2,
        m3 - 3 * m2 * m1 + 2 * m1**3,
        m4 - 4 * m3 * m1 - 3 * m2**2 + 12 * m2 * m1**2 - 6 * m1**4,
    )
    require(
        tuple(kappa) == want[: len(kappa)],
        f"exact layer {[str(c) for c in kappa]}, enumeration {[str(c) for c in want]}",
    )


WORKLOADS = {
    "clt-desk": CltDesk(),
    "growth-n200": GrowthN200(),
    "exact-oracle": ExactOracle(),
}


# ---------------------------------------------------------------------------
# tracing: what is wrapped, and the per-layer metrics read off the trace

def trace_wrappers(tracer: Tracer) -> dict:
    """Wrappers for the traced public functions, keyed by the originals.

    Coarse calls keep a span each; the hot ones (thousands to millions
    of calls) are aggregated, and char_normalized_float is only counted.
    """
    spans = {
        "montecarlo.run_clt": montecarlo.run_clt,
        "montecarlo.validate_sampler": montecarlo.validate_sampler,
        "montecarlo.sample_partitions": montecarlo.sample_partitions,
        "montecarlo.evaluate_stats": montecarlo.evaluate_stats,
        "montecarlo.estimate_cumulants": montecarlo.estimate_cumulants,
        "measure.sample_rsk_chunk": measure.sample_rsk_chunk,
        "measure.sample_growth_chunk": measure.sample_growth_chunk,
        "measure.expectation_brute": measure.expectation_brute,
        "asymptotics.w_shape_at": asymptotics.w_shape_at,
        "observables.joint_cumulant": observables.joint_cumulant,
        **{f"asymptotics.{fn.__name__}": fn for fn in COV_ROUTES + MOBIUS_ROUTES},
    }
    hot = {
        "measure.stat_w": measure.stat_w,
        "hecke.sigma_q_in_sigma": hecke.sigma_q_in_sigma,
        "observables.product_sigma": observables.product_sigma,
        "ratfunc.poly_gcd": ratfunc.poly_gcd,
    }
    out = {fn: tracer.wrap(name, fn) for name, fn in spans.items()}
    out.update({fn: tracer.wrap(name, fn, keep=False) for name, fn in hot.items()})
    out[characters.char_normalized_float] = tracer.count(
        "characters.char_normalized_float", characters.char_normalized_float
    )
    return out


COV_ROUTES = [
    asymptotics.cov_closed_form,
    asymptotics.cov_double_sum,
    asymptotics.reduce_covariance_via_mobius,
]
MOBIUS_ROUTES = [
    asymptotics.mobius_closed,
    asymptotics.mobius_brute,
    asymptotics.mobius_perm_brute,
]


def layer_metrics(tracer: Tracer, sampling: dict | None) -> dict[str, float]:
    """Per-layer metrics of one traced round; 0 where a layer did no work.

    `sampling` describes the round's main draw: its method, worker count,
    number of shapes, the summed busy time of its chunk calls, and the
    rows and coordinates handed to evaluate_stats.
    """
    t = tracer
    sample_s = t.span_s("montecarlo.sample_partitions", outside="montecarlo.validate_sampler")
    s = sampling or {}
    busy = s.get("chunk_busy_s", 0.0)
    shapes = s.get("shapes", 0)
    stat_calls = t.calls("measure.stat_w")
    w_values = s.get("w_rows", 0) * s.get("ks", 0)
    return {
        "montecarlo.validate_sampler_s": t.inclusive_s("montecarlo.validate_sampler"),
        "montecarlo.sample_partitions_s": sample_s,
        "montecarlo.sample_parallel_efficiency": (
            busy / (s["workers"] * sample_s) if sample_s > 0 and busy > 0 else 0.0
        ),
        "measure.rsk_chunk_ms": (
            1e3 * busy / shapes * measure.SAMPLE_CHUNK if s.get("method") == "rsk" else 0.0
        ),
        "measure.growth_ms_per_shape": (
            1e3 * busy / shapes if s.get("method") == "growth" else 0.0
        ),
        "montecarlo.evaluate_stats_s": t.inclusive_s("montecarlo.evaluate_stats"),
        "measure.stat_w_us": (
            1e6 * t.inclusive_s("measure.stat_w") / stat_calls if stat_calls else 0.0
        ),
        "characters.char_normalized_float_calls": t.calls("characters.char_normalized_float"),
        "montecarlo.w_memo_hit_ratio": 1.0 - stat_calls / w_values if w_values else 0.0,
        "montecarlo.estimate_cumulants_s": t.inclusive_s("montecarlo.estimate_cumulants"),
        "montecarlo.run_clt_self_s": t.self_s("montecarlo.run_clt"),
        "asymptotics.w_shape_at_s": t.inclusive_s("asymptotics.w_shape_at"),
        "observables.product_sigma_s": t.inclusive_s("observables.product_sigma"),
        "observables.product_sigma_calls": t.calls("observables.product_sigma"),
        "observables.joint_cumulant_s": t.inclusive_s("observables.joint_cumulant"),
        "measure.expectation_brute_s": t.inclusive_s("measure.expectation_brute"),
        "hecke.sigma_q_in_sigma_s": t.inclusive_s("hecke.sigma_q_in_sigma"),
        "asymptotics.cov_routes_s": sum(
            t.inclusive_s(f"asymptotics.{fn.__name__}") for fn in COV_ROUTES
        ),
        "asymptotics.mobius_s": sum(
            t.inclusive_s(f"asymptotics.{fn.__name__}") for fn in MOBIUS_ROUTES
        ),
        "ratfunc.poly_gcd_s": t.inclusive_s("ratfunc.poly_gcd"),
        "ratfunc.poly_gcd_calls": t.calls("ratfunc.poly_gcd"),
    }
