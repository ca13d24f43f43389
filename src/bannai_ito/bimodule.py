"""Finite-dimensional modules of the universal Bannai-Ito algebra.

The algebra is generated by X, Y, Z subject to the condition that
{X, Y} - Z, {Y, Z} - X and {Z, X} - Y are central; a module here is a pair of
exact rational matrices (X, Y) together with the scalar kappa by which
{X, Y} - Z acts, with Z always *derived* as {X, Y} - kappa*I.  Two families of
modules are constructed in closed form: an even-dimensional one (dimension
d + 1 with d odd) and an odd-dimensional one (d even).  A family point
(``EvenParams``, ``OddParams``) is its own ``SequenceTable``, the Verma-type
module at delta = d (even) or at a reparametrized point (odd), and its module
is the quotient on the first d + 1 ladder vectors: X lower bidiagonal with
free subdiagonal 1, Y upper bidiagonal.
Modules built from modules: ``twist``, ``conjugate`` and ``direct_sum``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import ClassVar, NamedTuple

from .exactlinalg import Matrix, Poly, RatLike, anticommutator, \
    is_squarefree, min_poly, products_equal, rat, rational_roots

_F0 = Fraction(0)
_F1 = Fraction(1)


class NotAModule(Exception):
    """Raised when the defining relations fail on a purported module."""

    def __init__(self, report: "RelationReport"):
        self.report = report
        bad = ", ".join(c.name for c in report.checks if not c.passed)
        super().__init__(f"defining relations fail: {bad}")


class CertificateError(Exception):
    """A certificate the library built failed its own verification (a
    library bug); raised in place of returning an unchecked answer."""


def _sign(i: int) -> int:
    return 1 if i % 2 == 0 else -1


class _Frozen:
    """An immutable value with class-strict equality: the ``_fields`` are set
    once in ``__init__``, and hash and repr read them.  No ``__slots__``:
    copy and pickle restore slots through ``__setattr__``, a dict directly."""

    _fields: ClassVar[tuple[str, ...]]

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields))


class SequenceTable(_Frozen):
    """Closed-form sequences of the Verma-type module M_delta(a, b, c);
    `delta` may be any rational.  A family point (``FamilyParams``) is its
    own table, cut after v_d where phi_{d+1} = 0.

    theta(i)      eigenvalue sequence of X
    theta_star(i) eigenvalue sequence of Y
    phi_upper(i)  superdiagonal of Y in the ladder basis
    """

    _fields = ("delta", "a", "b", "c")
    delta: Fraction
    a: Fraction
    b: Fraction
    c: Fraction

    def __init__(self, delta: Fraction, a: Fraction, b: Fraction, c: Fraction):
        for f, v in zip(self._fields, (delta, a, b, c)):
            object.__setattr__(self, f, v)

    def theta(self, i: int) -> Fraction:
        return _sign(i) * (2 * self.a - self.delta + 2 * i) / 2

    def theta_star(self, i: int) -> Fraction:
        return _sign(i) * (2 * self.b - self.delta + 2 * i) / 2

    def phi_upper(self, i: int) -> Fraction:
        if i % 2 == 0:
            return i * (self.delta - i + 1)
        s = (2 * self.a + 2 * self.b - self.delta + 2 * i - 1) / 2
        return self.c ** 2 - s ** 2

    def ladder(self, n: int) -> tuple[Matrix, Matrix]:
        """X and Y on the first n ladder vectors: X v_i = theta_i v_i + v_{i+1}
        (v_n dropped) and Y v_i = theta*_i v_i + phi_i v_{i-1}."""
        x = [[_F0] * n for _ in range(n)]
        y = [[_F0] * n for _ in range(n)]
        for i in range(n):
            x[i][i], y[i][i] = self.theta(i), self.theta_star(i)
            if i:
                x[i][i - 1], y[i - 1][i] = _F1, self.phi_upper(i)
        return Matrix(x), Matrix(y)

    def central_scalars(self) -> tuple[Fraction, Fraction, Fraction]:
        """(kappa, lambda, mu) acting on the ladder module."""
        a2, b2, c2 = self.a ** 2, self.b ** 2, self.c ** 2
        shift = (self.delta + 1) ** 2 / 4
        return (c2 - a2 - b2 + shift,
                a2 - b2 - c2 + shift,
                b2 - c2 - a2 + shift)


class FamilyParams(SequenceTable):
    """A point (d, a, b, c) of one family, fixed by the subclass (d odd >= 1
    for the even-dimensional family, d even >= 0 for the odd one): the
    Verma table at the subclass's ``_verma`` point, keeping d and the
    family's own (a, b, c) as ``coords``."""

    family: ClassVar[str]
    d: int
    coords: tuple[Fraction, Fraction, Fraction]

    def __init__(self, d: int, a: RatLike, b: RatLike, c: RatLike):
        object.__setattr__(self, "coords", self.checked(d, a, b, c))
        object.__setattr__(self, "d", d)
        super().__init__(*self._verma(d, *self.coords))

    @classmethod
    def checked(cls, d: int, a: RatLike, b: RatLike, c: RatLike) -> tuple[Fraction, ...]:
        """(a, b, c) as rationals, ValueError unless d fits: the point's check
        without the Fraction work of its table."""
        # the smallest admissible d also has the parity every d must have
        low, need = {"even": (1, "odd d >= 1"), "odd": (0, "even d >= 0")}[cls.family]
        if not isinstance(d, int) or isinstance(d, bool) or d < low or d % 2 != low:
            raise ValueError(f"{cls.family} family needs {need}, got {d}")
        return rat(a), rat(b), rat(c)

    def module(self) -> "BIModule":
        """The (d+1)-dimensional module: X v_i = theta_i v_i + v_{i+1}
        (v_{d+1} = 0), Y v_i = theta*_i v_i + phi_i v_{i-1}, and kappa,
        lambda, mu act by the three central scalars of the table.  Built
        once per point and kept: the point and the module are immutable."""
        if "_module" not in self.__dict__:
            object.__setattr__(self, "_module", BIModule(*self.ladder(self.d + 1),
                                                         *self.central_scalars()))
        return self._module


class EvenParams(FamilyParams):
    """Parameters of the even-dimensional family: d odd >= 1, rational a, b, c.
    The table is M_d(a, b, c), cut where phi_{d+1} = (d + 1)(delta - d) = 0."""
    family = "even"

    @staticmethod
    def _verma(d: int, a: Fraction, b: Fraction, c: Fraction) -> tuple[Fraction, ...]:
        return Fraction(d), a, b, c


class OddParams(FamilyParams):
    """Parameters of the odd-dimensional family: d even >= 0, rational a, b, c.
    The table is M_delta(a - k, b - k, k - c) with delta = (d-1)/2 - (a+b+c)
    and k = (d - delta)/2, cut where phi_{d+1} = c*^2 - s^2 = 0: there
    c* = k - c and s = a + b + (delta + 1)/2 are equal."""
    family = "odd"

    @staticmethod
    def _verma(d: int, a: Fraction, b: Fraction, c: Fraction) -> tuple[Fraction, ...]:
        delta = Fraction(d - 1, 2) - (a + b + c)
        k = (d - delta) / 2
        return delta, a - k, b - k, k - c


class TwistSign(NamedTuple("TwistSign", [("eps", int), ("eps_prime", int)])):
    """A sign pair (eps, eps_prime) in {+-1}^2 acting by X -> eps X,
    Y -> eps' Y, hence Z -> eps eps' Z."""

    __slots__ = ()

    def __new__(cls, eps: int, eps_prime: int):
        if any(type(s) is not int or s not in (1, -1) for s in (eps, eps_prime)):
            raise ValueError("twist signs must be +1 or -1")
        return super().__new__(cls, eps, eps_prime)

    def __mul__(self, other: "TwistSign") -> "TwistSign":
        return TwistSign(self.eps * other.eps, self.eps_prime * other.eps_prime)


ALL_TWISTS = (TwistSign(1, 1), TwistSign(1, -1), TwistSign(-1, 1), TwistSign(-1, -1))


class BIModule(_Frozen):
    """A module given by exact matrices for X and Y plus the central scalar
    kappa; Z is derived, never stored.  lam and mu are optional caches of the
    other two central scalars (check_relations verifies them when present)."""

    _fields = ("X", "Y", "kappa", "lam", "mu")
    X: Matrix
    Y: Matrix
    kappa: Fraction
    lam: Fraction | None
    mu: Fraction | None

    def __init__(self, X: Matrix, Y: Matrix, kappa: RatLike,
                 lam: RatLike | None = None, mu: RatLike | None = None):
        if not X.is_square or X.shape != Y.shape:
            raise ValueError("X and Y must be square of equal size")
        scalars = (rat(kappa), *(None if s is None else rat(s) for s in (lam, mu)))
        for f, v in zip(self._fields, (X, Y, *scalars)):
            object.__setattr__(self, f, v)

    @property
    def dim(self) -> int:
        return self.X.nrows

    @cached_property
    def Z(self) -> Matrix:
        return derive_Z(self.X, self.Y, self.kappa)

    def generator(self, name: str) -> Matrix:
        if name == "X":
            return self.X
        if name == "Y":
            return self.Y
        if name == "Z":
            return self.Z
        raise ValueError(f"unknown generator {name!r} (expected X, Y or Z)")

    def same_matrices(self, other: "BIModule") -> bool:
        """Entrywise equality of X, Y and kappa (hence also of Z)."""
        return (self.X == other.X and self.Y == other.Y
                and self.kappa == other.kappa)


def derive_Z(x: Matrix, y: Matrix, kappa: RatLike) -> Matrix:
    """Z = {X, Y} - kappa * I."""
    return anticommutator(x, y) - rat(kappa) * Matrix.identity(x.nrows)


def certify_intertwiner(t: Matrix, v: BIModule, w: BIModule, what: str) -> Matrix:
    """Return t after checking T X_V = X_W T and T Y_V = Y_W T (a module map
    V -> W); CertificateError naming `what` if either equation fails.  The
    check is exact and runs over integer rows: neither side is built."""
    if not (products_equal(t, v.X, w.X, t) and products_equal(t, v.Y, w.Y, t)):
        raise CertificateError(f"{what} fails to intertwine (library bug)")
    return t


def even_module(d: int, a: RatLike, b: RatLike, c: RatLike) -> BIModule:
    """The (d+1)-dimensional module of the even-dimensional family, d odd."""
    return EvenParams(d, a, b, c).module()


def odd_module(d: int, a: RatLike, b: RatLike, c: RatLike) -> BIModule:
    """The (d+1)-dimensional module of the odd-dimensional family, d even."""
    return OddParams(d, a, b, c).module()


def twist(v: BIModule, sign: TwistSign) -> BIModule:
    """Pull back the action along the sign automorphism: X -> eps X,
    Y -> eps' Y; then kappa -> eps eps' kappa, lambda -> eps lambda,
    mu -> eps' mu."""
    e, ep = sign.eps, sign.eps_prime
    return BIModule(
        e * v.X, ep * v.Y, e * ep * v.kappa,
        None if v.lam is None else e * v.lam,
        None if v.mu is None else ep * v.mu)


def conjugate(v: BIModule, p: Matrix) -> BIModule:
    """P V P^-1: X -> P X P^-1 and Y -> P Y P^-1 with the stored scalars, so
    P is an isomorphism from V to the result; ValueError if P is singular."""
    p_inv = p.inverse()
    return BIModule(p * v.X * p_inv, p * v.Y * p_inv, v.kappa, v.lam, v.mu)


def direct_sum(*mods: BIModule) -> BIModule:
    """V_1 + ... + V_k with block-diagonal X and Y, V_1 at the top left;
    ValueError unless there are summands and all store one (kappa, lambda, mu)."""
    scalars = {(m.kappa, m.lam, m.mu) for m in mods}
    if len(scalars) != 1:
        raise ValueError("a direct sum needs summands that store one (kappa, lambda, mu)")
    return BIModule(Matrix.block_diag(*(m.X for m in mods)),
                    Matrix.block_diag(*(m.Y for m in mods)), *scalars.pop())


class RelationCheck(NamedTuple):
    name: str
    passed: bool
    scalar: Fraction | None  # discovered scalar when the residual is scalar
    expected: Fraction | None  # stored value it was compared against, if any


class RelationReport(NamedTuple):
    checks: tuple[RelationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def scalar(self, name: str) -> Fraction | None:
        for c in self.checks:
            if c.name == name:
                return c.scalar
        raise KeyError(name)


def relation_residuals(x: Matrix, y: Matrix, z: Matrix) -> tuple[Matrix, Matrix]:
    """({Y, Z} - X, {Z, X} - Y): the two presentation relations with content
    once Z is derived; on a module both are scalar (lambda, mu)."""
    return anticommutator(y, z) - x, anticommutator(z, x) - y


def check_relations(v: BIModule) -> RelationReport:
    """Verify the defining relations on the module.

    With Z := {X, Y} - kappa*I the first relation holds identically; the
    content is that {Y, Z} - X and {Z, X} - Y are scalar matrices (centrality
    on a module), matching the stored lam/mu when those are present.
    """
    checks = [RelationCheck("kappa", True, v.kappa, v.kappa)]
    lam_mat, mu_mat = relation_residuals(v.X, v.Y, v.Z)
    for name, mat, stored in (("lambda", lam_mat, v.lam), ("mu", mu_mat, v.mu)):
        s = mat.scalar_value()
        passed = s is not None and (stored is None or s == stored)
        checks.append(RelationCheck(name, passed, s, stored))
    return RelationReport(tuple(checks))


def central_scalars(v: BIModule) -> tuple[Fraction, Fraction, Fraction]:
    """(kappa, lambda, mu) discovered from the matrices; NotAModule if the
    relations fail."""
    report = check_relations(v)
    if not report.ok:
        raise NotAModule(report)
    return (report.scalar("kappa"), report.scalar("lambda"), report.scalar("mu"))


def minimal_polynomials(v: BIModule) -> dict[str, Poly]:
    return {g: min_poly(v.generator(g)) for g in ("X", "Y", "Z")}


def diagonalizability(v: BIModule) -> dict[str, bool]:
    """Per generator: True iff the minimal polynomial is squarefree and splits
    over Q (equivalently, the generator is diagonalizable over Q)."""
    return {g: is_squarefree(p) and rational_roots(p).split
            for g, p in minimal_polynomials(v).items()}


def example_even() -> BIModule:
    """The pinned 4-dimensional example module (kappa, lambda, mu) = (4, 4, 2).

    Matrices are hardcoded, not constructed, so they can serve as an external
    reference point for the constructors.
    """
    x = Matrix([
        ["-1/2", 0, 0, 0],
        [1, "-1/2", 0, 0],
        [0, 1, "3/2", 0],
        [0, 0, 1, "-5/2"],
    ])
    y = Matrix([
        ["-3/2", 1, 0, 0],
        [0, "1/2", 4, 0],
        [0, 0, "1/2", -3],
        [0, 0, 0, "-3/2"],
    ])
    return BIModule(x, y, Fraction(4), Fraction(4), Fraction(2))


def example_odd() -> BIModule:
    """The pinned 5-dimensional example module (kappa, lambda, mu) = (4, -8, -4)."""
    x = Matrix([
        ["-1/2", 0, 0, 0, 0],
        [1, "-1/2", 0, 0, 0],
        [0, 1, "3/2", 0, 0],
        [0, 0, 1, "-5/2", 0],
        [0, 0, 0, 1, "7/2"],
    ])
    y = Matrix([
        ["-3/2", 4, 0, 0, 0],
        [0, "1/2", -2, 0, 0],
        [0, 0, "1/2", 6, 0],
        [0, 0, 0, "-3/2", -12],
        [0, 0, 0, 0, "5/2"],
    ])
    return BIModule(x, y, Fraction(4), Fraction(-8), Fraction(-4))
