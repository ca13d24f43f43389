"""Truncated Verma-type modules and the ladder map.

The Verma-type module has an infinite ladder basis m_0, m_1, ... with the
closed forms of ``SequenceTable`` and a free rational parameter delta.  A
truncation to n basis vectors cannot satisfy the defining relations
everywhere: applying X to the last basis vector loses the m_n component, so
the presentation relations are exact only on the interior columns 0 .. n-3.
That window is tracked explicitly and every consumer checks against it.

Both families are quotients of it: a family point is its own table (the even
family at delta = d, the odd family at a reparametrized point) with
phi_{d+1} = 0, so span{m_{d+1}, ...} is a submodule and the quotient is the
(d+1)-dimensional family module.  The ladder map: if a vector v of a module V
satisfies
    Y v = theta*_0 v,
    (Y - theta*_1)(X - theta_0) v = phi_1 v,
    prod_{i<=d} (X - theta_i) v = 0,
and kappa, lambda, mu act on V by the table's central scalars, then
v_i |-> prod_{h<i} (X - theta_h) v is a module map from the family module
into V, an explicit intertwiner.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .bimodule import BIModule, CertificateError, FamilyParams, SequenceTable, \
    certify_intertwiner, check_relations, derive_Z, relation_residuals
from .exactlinalg import Matrix, RatLike, Vector, as_text, rat, shifted_walk, vec

PREMISES = ("highest_weight", "second_order", "kappa", "lambda", "mu")


class PremiseViolated(Exception):
    """One of the universal-property premises fails; .premise names it."""

    def __init__(self, premise: str, detail: str = ""):
        if premise not in PREMISES:
            raise ValueError(f"unknown premise {premise!r}")
        self.premise = premise
        super().__init__(f"premise {premise!r} violated" + (f": {detail}" if detail else ""))


class AnnihilatorFails(Exception):
    """The degree-(d+1) annihilator premise of the ladder map fails."""


class TruncatedVerma(NamedTuple):
    """An n-dimensional window of the Verma-type module M_delta(a, b, c)."""

    table: SequenceTable
    n: int
    X: Matrix
    Y: Matrix
    kappa: Fraction
    lam: Fraction
    mu: Fraction

    @property
    def interior(self) -> range:
        """Basis indices on which the presentation relations are exact."""
        return range(0, self.n - 2)


def truncated_verma(delta: RatLike, a: RatLike, b: RatLike, c: RatLike,
                    n: int) -> TruncatedVerma:
    """First n ladder basis vectors of the Verma-type module."""
    if n < 3:
        raise ValueError("need n >= 3 for a nonempty interior")
    t = SequenceTable(rat(delta), rat(a), rat(b), rat(c))
    return TruncatedVerma(t, n, *t.ladder(n), *t.central_scalars())


class VermaRelationReport(NamedTuple):
    """Column-by-column residuals of the two nontrivial presentation relations
    ({Y,Z} - X = lambda and {Z,X} - Y = mu, with Z derived)."""

    lambda_ok: tuple[bool, ...]
    mu_ok: tuple[bool, ...]
    interior: range

    @property
    def interior_ok(self) -> bool:
        return all(self.lambda_ok[i] and self.mu_ok[i] for i in self.interior)


def interior_relation_check(tv: TruncatedVerma) -> VermaRelationReport:
    """Check the defining relations column by column on the truncation."""
    eye = Matrix.identity(tv.n)
    lam_mat, mu_mat = relation_residuals(tv.X, tv.Y, derive_Z(tv.X, tv.Y, tv.kappa))
    lam_res, mu_res = lam_mat - tv.lam * eye, mu_mat - tv.mu * eye
    return VermaRelationReport(
        tuple(not any(lam_res.column(j)) for j in range(tv.n)),
        tuple(not any(mu_res.column(j)) for j in range(tv.n)),
        tv.interior,
    )


def ladder_vector(tv: TruncatedVerma, i: int, j: int) -> Vector:
    """Apply prod_{h=i}^{j} (X - theta_h) to m_i; the result is exactly m_{j+1}.

    Valid whenever 0 <= i <= j <= n-2 (the last factor must not touch the
    truncation boundary).  The identity is checked (CertificateError if it
    fails), and the vector returned.
    """
    if not (0 <= i <= j <= tv.n - 2):
        raise ValueError(f"need 0 <= i <= j <= n-2, got i={i}, j={j}, n={tv.n}")
    m = Matrix.identity(tv.n).rows
    v = shifted_walk(tv.X, m[i], [tv.table.theta(h) for h in range(i, j + 1)])[-1]
    if v != m[j + 1]:
        raise CertificateError("ladder identity broke inside the valid window")
    return v


def _check_premises(t: SequenceTable, v_mod: BIModule, v: Vector) -> None:
    th0, th, th1, phi1 = t.theta_star(0), t.theta(0), t.theta_star(1), t.phi_upper(1)
    if any(shifted_walk(v_mod.Y, v, [th0])[1]):
        raise PremiseViolated("highest_weight", f"Y v != {as_text(th0)} v")
    w = shifted_walk(v_mod.X, v, [th])[1]
    if shifted_walk(v_mod.Y, w, [th1])[1] != tuple(phi1 * c for c in v):
        raise PremiseViolated("second_order", "(Y - {})(X - {}) v != {} v".format(
            *map(as_text, (th1, th, phi1))))
    report = check_relations(v_mod)
    expected = dict(zip(("kappa", "lambda", "mu"), t.central_scalars()))
    for check in report.checks:
        if not check.passed or check.scalar != expected[check.name]:
            raise PremiseViolated(check.name, "acts by {}, table requires {}".format(
                *map(as_text, (check.scalar, expected[check.name]))))


def ladder_map(params: FamilyParams, v_mod: BIModule, v) -> Matrix:
    """The module map from the family module at ``params`` into v_mod with
    v_i -> prod_{h<i} (X - theta_h) v: one walk of v under X with shifts
    theta_0 ... theta_d, whose last vector must vanish (AnnihilatorFails),
    certified as an intertwiner (CertificateError).  The premises are checked
    only after a failure, so that PremiseViolated names the broken one."""
    d, v = params.d, vec(v)
    walk = shifted_walk(v_mod.X, v, [params.theta(i) for i in range(d + 1)])
    try:
        if any(walk[d + 1]):
            raise AnnihilatorFails(f"prod (X - theta_i) v = {as_text(walk[d + 1])}, expected zero")
        return certify_intertwiner(Matrix.from_columns(walk[:d + 1]), params.module(),
                                   v_mod, "ladder map")
    except (AnnihilatorFails, CertificateError):
        _check_premises(params, v_mod, v)
        raise


class QuotientReport(NamedTuple):
    """Result of comparing the window at a family point's table with its module."""

    superdiagonal_vanishes: bool  # phi_{d+1} = 0, decoupling head from tail
    tail_invariant: bool          # X, Y keep span{m_{d+1}, ...} inside itself
    head_matches: bool            # top-left blocks equal the family module's matrices

    @property
    def ok(self) -> bool:
        return self.superdiagonal_vanishes and self.tail_invariant and self.head_matches


def verma_quotient_check(params: FamilyParams, n: int | None = None) -> QuotientReport:
    """In the window at the point's own table, the tail span{m_{d+1}, ...} is
    a submodule and the quotient is the family module on the nose."""
    d = params.d
    n = d + 5 if n is None else n
    if n < d + 3:
        raise ValueError("need n >= d + 3 to see the tail")
    tv = truncated_verma(params.delta, params.a, params.b, params.c, n)
    sup_zero = tv.table.phi_upper(d + 1) == 0 and tv.Y[d, d + 1] == 0
    tail = all(
        not m[i, j]
        for m in (tv.X, tv.Y)
        for j in range(d + 1, n)
        for i in range(0, d + 1)
    )
    e = params.module()
    head = all(
        Matrix([[m[i, j] for j in range(d + 1)] for i in range(d + 1)]) == em
        for m, em in ((tv.X, e.X), (tv.Y, e.Y))
    )
    return QuotientReport(sup_zero, tail, head)
