"""The algebra of central characters in the Sigma basis.

An observable is a finite linear combination of symbols Sigma_mu with
exact rational-function coefficients.  The disjoint product just
concatenates indices.  The ordinary product is read off the character
tables of S_m, one level m = |lam| at a time: there Sigma_sigma with
|sigma| = m - j equals Sigma_{sigma 1^j} / j!, and column orthogonality
turns the values Sigma_mu(lam) Sigma_nu(lam) into the level's
coefficients with no linear solve (`product_sigma`).  One first-block
moment-cumulant rule (`cumulants`) gives the joint cumulants of ordinary
products and the observable-valued identity cumulants, whose blocks are
joined by the disjoint product.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from operator import mul
from typing import Callable, Mapping, Sequence

from qplancherel.characters import character_table, sigma_eval
from qplancherel.partitions import (
    Partition,
    cycle_type,
    partition_str,
    partitions_of,
    set_partitions_of,
    size,
    union,
    z_of,
)
from qplancherel.ratfunc import QRat, ZERO
from qplancherel.symfunc import union_product

# |mu| + |nu| beyond this is rejected.  The product reads the character
# tables of S_m up to m = |mu| + |nu|: cold, on 2 cores, those up to S_14
# take about 0.1 s, and S_15 ... S_18 add about 0.07, 0.13, 0.21 and
# 0.39 s, each level nearly twice the last.  The cap also sets the reach
# of the report's shape checks (`asymptotics.q_char_cumulants_at` stops
# at the order r with r k <= 14), so lifting it changes the report.
PRODUCT_SIZE_LIMIT = 14

Expansion = dict[Partition, QRat]


class ObservableExpansion:
    """Finite mapping Partition -> QRat with no zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Partition, object] = ()):
        clean: Expansion = {}
        for mu, c in dict(terms).items():
            c = QRat(c)
            if not c.is_zero():
                clean[tuple(mu)] = c
        self.terms = clean

    @staticmethod
    def sigma(mu: Partition) -> "ObservableExpansion":
        return ObservableExpansion({tuple(mu): QRat(1)})

    @property
    def degree(self):
        """Max index size; -inf for the zero observable."""
        if not self.terms:
            return -math.inf
        return max(size(mu) for mu in self.terms)

    def __getitem__(self, mu: Partition) -> QRat:
        return self.terms.get(tuple(mu), ZERO)

    def __eq__(self, other) -> bool:
        return isinstance(other, ObservableExpansion) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "ObservableExpansion") -> "ObservableExpansion":
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, ZERO) + c
        return ObservableExpansion(out)

    def __sub__(self, other: "ObservableExpansion") -> "ObservableExpansion":
        return self + other.scale(-1)

    def scale(self, c) -> "ObservableExpansion":
        c = QRat(c)
        return ObservableExpansion({mu: c * v for mu, v in self.terms.items()})

    def __mul__(self, other: "ObservableExpansion") -> "ObservableExpansion":
        """Ordinary product, extended bilinearly from productSigma."""
        acc: Expansion = {}
        for mu, cm in self.terms.items():
            for nu, cn in other.terms.items():
                for rho, mult in product_sigma(mu, nu).terms.items():
                    contrib = cm * cn * mult
                    acc[rho] = acc.get(rho, ZERO) + contrib
        return ObservableExpansion(acc)

    def __repr__(self) -> str:
        return f"ObservableExpansion({expansion_str(self)!r})"


def disjoint_product(
    a: ObservableExpansion, b: ObservableExpansion
) -> ObservableExpansion:
    """Bilinear extension of Sigma_mu . Sigma_nu = Sigma_(mu union nu)."""
    return ObservableExpansion(union_product(a.terms, b.terms))


# ---------------------------------------------------------------------------
# ordinary product from the character tables

@cache
def _table_columns(m: int) -> dict[Partition, tuple[int, ...]]:
    """The character table of S_m by columns: chi^lam(tau) over lam |- m
    in table order, for each tau |- m; tau = 1^m holds the dimensions."""
    table = character_table(m)
    return {tau: tuple(row[tau] for row in table.values()) for tau in partitions_of(m)}


@cache
def product_sigma(mu: Partition, nu: Partition) -> ObservableExpansion:
    """Sigma_mu Sigma_nu = sum c_tau Sigma_tau, with integer c_tau and
    max(|mu|, |nu|) <= |tau| <= |mu| + |nu|, level by level.

    On lam |- m a symbol tau with |tau| = m - j takes the value
    Sigma_tau(lam) = Sigma_{tau 1^j}(lam) / j!, and the Sigma_tau with
    tau |- m are m! chi^lam(tau) / dim lam.  So on level m the product
    equals sum over tau |- m of G_tau m! chi^lam(tau) / dim lam, with
    G_tau = sum_j c_{tau minus 1^j} / j! over j = 0..m_1(tau).  Column
    orthogonality of the S_m table inverts this with no linear solve:

        G_tau = sum_lam v_lam chi^lam(tau) / (m! z_tau),
        v_lam = Sigma_mu(lam) Sigma_nu(lam) dim lam,

    and c_tau is G_tau less the terms c_{tau minus 1^j} / j!, j >= 1,
    found on the levels below.  Below level max(|mu|, |nu|) the product
    is 0.  Everything is integer arithmetic; a c_tau that is not an
    integer raises ArithmeticError.
    """
    k, l = size(mu), size(nu)
    if k + l > PRODUCT_SIZE_LIMIT:
        raise ValueError(f"|mu|+|nu| = {k + l} exceeds {PRODUCT_SIZE_LIMIT}")
    coeffs: dict[Partition, int] = {}
    for m in range(max(k, l), k + l + 1):
        columns = _table_columns(m)
        fk, fl = math.perm(m, k), math.perm(m, l)
        # Sigma_mu(lam) = m^(falling k) chi^lam(mu 1^(m-k)) / dim lam is an
        # integer (`sigma_eval`), so each v_lam is an exact quotient
        mu_col, nu_col = columns[mu + (1,) * (m - k)], columns[nu + (1,) * (m - l)]
        v = [fk * x * fl * y // d for x, y, d in zip(mu_col, nu_col, columns[(1,) * m])]
        m_fact = math.factorial(m)
        for tau, column in columns.items():
            z = z_of(tau)
            num = sum(map(mul, v, column))
            for j in range(1, tau.count(1) + 1):
                num -= coeffs.get(tau[:-j], 0) * z * (m_fact // math.factorial(j))
            c, rest = divmod(num, m_fact * z)
            if rest:
                raise ArithmeticError(
                    f"coefficient of Sigma_{tau} in Sigma_{mu} Sigma_{nu} is not an integer"
                )
            if c:
                coeffs[tau] = c
    return ObservableExpansion({tau: QRat(c) for tau, c in coeffs.items()})


# ---------------------------------------------------------------------------
# projection to the center of a group algebra

def class_sum_coefficient(mu: Partition, n: int) -> int:
    """Multiplier sending Sigma_mu to the class sum of type mu 1^(n-|mu|).

    Fixed by the requirement that applying the normalized character to
    the projection reproduces sigma_eval.
    """
    k = size(mu)
    if k > n:
        return 0
    m1 = mu.count(1)
    # the 1s of mu land among the n-k fixed points
    return z_of(tuple(p for p in mu if p >= 2)) * math.perm(n - k + m1, m1)


def project_to_class_sums(
    a: ObservableExpansion, n: int
) -> dict[Partition, QRat]:
    """Image of a in the class-sum basis of the group algebra at rank n."""
    out: dict[Partition, QRat] = {}
    for mu, c in a.terms.items():
        k = size(mu)
        if k > n:
            continue
        full_type = union(mu, (1,) * (n - k))
        contrib = c * class_sum_coefficient(mu, n)
        if full_type in out:
            out[full_type] = out[full_type] + contrib
        else:
            out[full_type] = contrib
    return {mu: c for mu, c in out.items() if not c.is_zero()}


# ---------------------------------------------------------------------------
# cumulants

def cumulants(moment: Callable[[tuple], object], product: Callable = mul) -> Callable:
    """The moment-cumulant rule: kappa(key) is moment(key) less
    product(kappa(inside), moment(outside)) over the 2^(r-1) - 1 splits of
    key whose inside holds key[0] and is not all of key.  A key is a sorted
    tuple of labels, equal ones for equal variables; moment and kappa are
    cached, so each multiset's moment and cumulant is formed once."""
    moment = cache(moment)

    @cache
    def kappa(key):
        if not key:
            raise ValueError("need at least one variable")
        first, rest = key[:1], key[1:]
        out = moment(key)
        for mask in range(2 ** len(rest) - 1):  # the proper subsets of rest
            inside = first + tuple(x for i, x in enumerate(rest) if mask >> i & 1)
            outside = tuple(x for i, x in enumerate(rest) if not mask >> i & 1)
            out = out - product(kappa(inside), moment(outside))
        return out

    return kappa


def joint_cumulant(
    expectation: Callable[[ObservableExpansion], QRat],
    xs: Sequence[ObservableExpansion],
) -> QRat:
    """Joint cumulant of the xs; a block's moment is the expectation of its
    product, formed and averaged once per multiset of the block's xs."""
    key = tuple(sorted(xs.index(x) for x in xs))  # equal xs share the index of the first
    return cumulants(lambda block: expectation(reduce(mul, (xs[i] for i in block))))(key)


def identity_cumulant(ks: tuple[int, ...]) -> ObservableExpansion:
    """Observable-valued cumulant interpolating the two products.

    Defined by Sigma_{k_1} ... Sigma_{k_r} = sum over set partitions pi
    of the disjoint product of the identity cumulants of the blocks: the
    moment-cumulant rule with the ordinary product of the Sigma_k as the
    moment and the disjoint product joining the blocks.  kappa is
    symmetric, so it is keyed by ks in decreasing order.
    """
    if not ks:
        raise ValueError("need at least one cycle length")
    if min(ks) < 1:
        raise ValueError(f"cycle lengths must be at least 1, got ks = {ks}")
    return _identity_cumulants(tuple(sorted(ks, reverse=True)))


@cache
def _sigma_product(ks: Partition) -> ObservableExpansion:
    """The ordinary product Sigma_{k_1} ... Sigma_{k_r}, in the order of ks."""
    last = ObservableExpansion.sigma(ks[-1:])
    return last if len(ks) == 1 else _sigma_product(ks[:-1]) * last


_identity_cumulants = cumulants(_sigma_product, disjoint_product)


def transitive_cumulant_oracle(ks: Sequence[int]) -> ObservableExpansion:
    """Brute enumeration of transitive cycle tuples; must equal
    identity_cumulant on its (small) domain."""
    ks = tuple(ks)
    total_size = sum(ks)
    if total_size > 8:
        raise ValueError(f"sum of cycle lengths {total_size} exceeds oracle bound 8")
    r = len(ks)
    positions = [(i, l) for i, k in enumerate(ks) for l in range(k)]
    pos_index = {p: t for t, p in enumerate(positions)}
    counts: dict[Partition, int] = {}
    for pi in set_partitions_of(len(positions)):
        # a block = one ground-set symbol; cycles must stay injective
        symbol = {}
        ok = True
        for b, block in enumerate(pi):
            rows = set()
            for t in block:
                row = positions[t][0]
                if row in rows:
                    ok = False
                    break
                rows.add(row)
                symbol[t] = b
            if not ok:
                break
        if not ok:
            continue
        # transitivity: the shares-a-symbol relation connects all cycles
        adj: dict[int, set[int]] = {i: set() for i in range(r)}
        for block in pi:
            rows = [positions[t][0] for t in block]
            for a in rows:
                for b2 in rows:
                    if a != b2:
                        adj[a].add(b2)
        seen = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != r:
            continue
        nsym = len(pi)
        perm_total = {x: x for x in range(nsym)}
        for i, k in enumerate(ks):
            cyc = [symbol[pos_index[(i, l)]] for l in range(k)]
            perm_i = {x: x for x in range(nsym)}
            for t in range(k):
                perm_i[cyc[t]] = cyc[(t + 1) % k]
            perm_total = {x: perm_total[perm_i[x]] for x in range(nsym)}
        rho = cycle_type(perm_total)
        counts[rho] = counts.get(rho, 0) + 1
    return ObservableExpansion({rho: QRat(c) for rho, c in counts.items()})


# ---------------------------------------------------------------------------
# evaluation and rendering

def eval_expansion(a: ObservableExpansion, lam: Partition) -> QRat:
    """Exact value of the observable at a partition (QRat in q)."""
    return sum((c * sigma_eval(mu, lam) for mu, c in a.terms.items()), ZERO)


def _term_order(mu: Partition):
    return (-size(mu), partitions_of(size(mu)).index(mu))


def expansion_str(a: ObservableExpansion, symbol: str = "Sigma") -> str:
    """Textual Sigma-format, e.g. "Sigma[3,2] + 6*Sigma[4] + 6*Sigma[2,1]"."""
    if not a.terms:
        return "0"
    chunks = []
    for mu in sorted(a.terms, key=_term_order):
        c = a.terms[mu]
        name = f"{symbol}[{partition_str(mu)}]"
        sign = "+"
        if c.is_polynomial() and c.num.degree <= 0:
            value = c.as_fraction()
            if value < 0:
                sign, value = "-", -value
            body = name if value == 1 else f"{value}*{name}"
        else:
            body = f"({c})*{name}"
        if not chunks:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f"{sign} {body}")
    return " ".join(chunks)
