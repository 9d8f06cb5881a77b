"""The algebra of central characters in the Sigma basis.

An observable is a finite linear combination of symbols Sigma_mu with
exact rational-function coefficients.  The ordinary product is computed
by enumerating partial matchings between cycle positions and multiplying
the resulting concrete permutations; the disjoint product just
concatenates indices.  Joint cumulants and the observable-valued
identity cumulants are built on top of these two products.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Callable, Mapping, Sequence

from qplancherel.characters import sigma_eval
from qplancherel.partitions import (
    Partition,
    cycle_type,
    multiplicities,
    partitions_of,
    set_partitions_of,
    size,
    union,
)
from qplancherel.ratfunc import QRat, ZERO, qrat_sum

PRODUCT_SIZE_LIMIT = 14  # |mu| + |nu| beyond this: matching count explodes

Expansion = dict[Partition, QRat]


def _coerce_coeff(c) -> QRat:
    return c if isinstance(c, QRat) else QRat(c)


class ObservableExpansion:
    """Finite mapping Partition -> QRat with no zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Partition, object] = ()):
        clean: Expansion = {}
        for mu, c in dict(terms).items():
            c = _coerce_coeff(c)
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
        c = _coerce_coeff(c)
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
    acc: Expansion = {}
    for mu, cm in a.terms.items():
        for nu, cn in b.terms.items():
            key = union(mu, nu)
            acc[key] = acc.get(key, ZERO) + cm * cn
    return ObservableExpansion(acc)


# ---------------------------------------------------------------------------
# ordinary product via partial matchings

@cache
def product_sigma(mu: Partition, nu: Partition) -> ObservableExpansion:
    """Sigma_mu Sigma_nu = sum over partial matchings M of Sigma_rho(M).

    Positions (i,l) of mu are matched injectively with positions (j,m)
    of nu; matched position pairs share a symbol, everything else gets a
    fresh one.  The two cycle products are multiplied on the union
    support and the full cycle type (fixed points included) is rho(M).
    """
    if size(mu) + size(nu) > PRODUCT_SIZE_LIMIT:
        raise ValueError(
            f"|mu|+|nu| = {size(mu) + size(nu)} exceeds {PRODUCT_SIZE_LIMIT}"
        )
    mu_pos = [(i, l) for i, part in enumerate(mu) for l in range(part)]
    nu_pos = [(j, m) for j, part in enumerate(nu) for m in range(part)]
    counts: dict[Partition, int] = {}

    k = size(mu)
    # symbols: mu positions get 0..k-1; unmatched nu positions get fresh ids
    def assemble(match: dict[int, int]):
        # match: nu-position index -> mu-position index
        symbol_of_nu = {}
        fresh = k
        for jn in range(len(nu_pos)):
            if jn in match:
                symbol_of_nu[jn] = match[jn]
            else:
                symbol_of_nu[jn] = fresh
                fresh += 1
        support = range(fresh)
        sigma_perm = {x: x for x in support}
        pos_index = 0
        for i, part in enumerate(mu):
            syms = list(range(pos_index, pos_index + part))
            pos_index += part
            for t in range(part):
                sigma_perm[syms[t]] = syms[(t + 1) % part]
        tau_perm = {x: x for x in support}
        jn = 0
        for j, part in enumerate(nu):
            syms = [symbol_of_nu[jn + t] for t in range(part)]
            jn += part
            for t in range(part):
                tau_perm[syms[t]] = syms[(t + 1) % part]
        composed = {x: sigma_perm[tau_perm[x]] for x in support}
        rho = cycle_type(composed)
        counts[rho] = counts.get(rho, 0) + 1

    n_nu = len(nu_pos)

    def extend(jn: int, match: dict[int, int], used_mu: set[int]):
        if jn == n_nu:
            assemble(match)
            return
        extend(jn + 1, match, used_mu)
        for im in range(len(mu_pos)):
            if im not in used_mu:
                match[jn] = im
                used_mu.add(im)
                extend(jn + 1, match, used_mu)
                del match[jn]
                used_mu.remove(im)

    extend(0, {}, set())
    expected = size(mu) + size(nu)
    out = ObservableExpansion({rho: QRat(c) for rho, c in counts.items()})
    for rho in out.terms:
        # |rho(M)| = |mu| + |nu| - |M| bookkeeping; sizes below |mu|+|nu|
        # are exactly the matched ones
        if not (max(size(mu), size(nu)) <= size(rho) <= expected):
            raise AssertionError(f"impossible term size {rho} in {mu} x {nu}")
    return out


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
    mults = multiplicities(mu)
    coeff = 1
    for s, m in mults.items():
        if s >= 2:
            coeff *= s**m * math.factorial(m)
    m1 = mults.get(1, 0)
    # the 1s of mu land among the n-k fixed points
    for t in range(m1):
        coeff *= n - k + m1 - t
    return coeff


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

def joint_cumulant(
    expectation: Callable[[ObservableExpansion], QRat],
    xs: Sequence[ObservableExpansion],
) -> QRat:
    """Moment-cumulant inversion over set partitions of the index set."""
    r = len(xs)
    if r == 0:
        raise ValueError("need at least one observable")
    total = ZERO
    for pi in set_partitions_of(r):
        b = len(pi)
        weight = QRat(Fraction((-1) ** (b - 1) * math.factorial(b - 1)))
        prod = QRat(1)
        for block in pi:
            x = xs[block[0]]
            for i in block[1:]:
                x = x * xs[i]
            prod = prod * expectation(x)
        total = total + weight * prod
    return total


@cache
def identity_cumulant(ks: tuple[int, ...]) -> ObservableExpansion:
    """Observable-valued cumulant interpolating the two products.

    Defined by Sigma_{k_1} ... Sigma_{k_r} = sum over set partitions pi
    of the disjoint product of the identity cumulants of the blocks;
    solved for the top (one-block) term.
    """
    ks = tuple(ks)
    if not ks:
        raise ValueError("need at least one cycle length")
    if len(ks) == 1:
        return ObservableExpansion.sigma((ks[0],))
    full = ObservableExpansion.sigma((ks[0],))
    for k in ks[1:]:
        full = full * ObservableExpansion.sigma((k,))
    correction = ObservableExpansion({})
    for pi in set_partitions_of(len(ks)):
        if len(pi) == 1:
            continue
        blockprod = None
        for block in pi:
            part = identity_cumulant(tuple(sorted(ks[i] for i in block)))
            blockprod = part if blockprod is None else disjoint_product(blockprod, part)
        correction = correction + blockprod
    return full - correction


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
    return qrat_sum(c * QRat(sigma_eval(mu, lam)) for mu, c in a.terms.items())


def _term_order(mu: Partition):
    return (-size(mu), partitions_of(size(mu)).index(mu))


def expansion_str(a: ObservableExpansion, symbol: str = "Sigma") -> str:
    """Textual Sigma-format, e.g. "Sigma[3,2] + 6*Sigma[4] + 6*Sigma[2,1]"."""
    if not a.terms:
        return "0"
    chunks = []
    for mu in sorted(a.terms, key=_term_order):
        c = a.terms[mu]
        name = symbol + "[" + ",".join(str(p) for p in mu) + "]"
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
