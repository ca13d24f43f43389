"""Irreducibility and isomorphism classification of the two module families.

Two independent irreducibility routes are provided on purpose:

* ``criterion_even`` / ``criterion_odd`` / ``criterion``: one closed-form
  admissibility rule for both families (``_admissible``: four parameter sums
  avoiding a finite set of half-integer shifts);
* ``oracle_irreducible``: spin tests on the matrices that never consult the
  criterion (a Norton test on a shift of Y, theta*_0 of the family point the
  invariants name first, or of X; MeatAxe spins of their eigenvectors; a
  probe of Y-X combinations).  It stays ``indeterminate`` only on input
  where no shift of X or Y and no combination has nullity 1, and every
  eigenvector spin is full.

A third certificate for the even family is the lowering matrix, computable
three unrelated ways (operator products, a two-term recurrence, a closed-form
product); it is nonsingular exactly when the criterion holds.

Isomorphism is decided from the intertwiner space: one graph spin in V + W^k
of Y-eigenvectors (the named theta*_0 line first, so a conjugate needs no
spectrum), then unit vectors, each kept if it raises the seeds' rank mod p.
``identify`` reads family coordinates (twist signs and the nonnegative
parameter orbit representative for even dimension, exact parameters for
odd) off the invariants and certifies them with the ladder map of the
universal property; it is the one route from a module to its class.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Iterator, NamedTuple

from .bimodule import BIModule, CertificateError, EvenParams, NotAModule, OddParams, \
    SequenceTable, TwistSign, central_scalars, certify_intertwiner, twist
from .exactlinalg import Matrix, RatLike, RrefAccumulator, Vector, \
    as_text, kernel_basis, rank_mod_p, rat, rational_spectrum, shifted_walk, spin
from .universal import AnnihilatorFails, PremiseViolated, ladder_map

_F0 = Fraction(0)
_F1 = Fraction(1)


class NonSplitSpectrum(Exception):
    """A generator's spectrum is not rational, so the oracle cannot run."""


class NotRationalFamily(Exception):
    """The squared parameters recovered from the central scalars are not
    squares of rationals; the module is outside the rational family."""


class IdentificationFailed(Exception):
    """No family coordinates could be read off and certified by an intertwiner."""


class IndeterminateIrreducibility(IdentificationFailed):
    """The oracle could not decide irreducibility, so identify cannot start."""


class IndeterminateIsomorphism(Exception):
    """The intertwiner space has dimension >= 2 (so both modules are
    reducible), and neither its basis nor ten random combinations held an
    invertible element: probability below 2**-30 if one exists."""


# --- irreducibility: criterion route ------------------------------------------

def _admissible(d: int, a: Fraction, b: Fraction, c: Fraction) -> bool:
    """The one admissibility rule of both families: a+b+c, a-b-c, -a+b-c and
    -a-b+c avoid (d-1)/2 - i for every 0 <= i < d with i + d odd."""
    forbidden = {Fraction(d - 1 - 2 * i, 2) for i in range(1 - d % 2, d, 2)}
    plus, minus = b + c, b - c  # seven Fraction operations for the four sums
    return all(s not in forbidden for s in (a + plus, a - plus, minus - a, -minus - a))


def criterion_even(d: int, a: RatLike, b: RatLike, c: RatLike) -> bool:
    """Even family (d odd): the paper's sums -a+b+c, a-b+c, a+b-c, negated (the
    set (d-1)/2 - i, even i < d, is closed under negation), give ``_admissible``."""
    return _admissible(d, *EvenParams.checked(d, a, b, c))


def criterion_odd(d: int, a: RatLike, b: RatLike, c: RatLike) -> bool:
    """Odd family (d even): the paper's set (d+1)/2 - i, even 2 <= i <= d, is
    (d-1)/2 - j for odd j < d (empty at d = 0), so this is ``_admissible``."""
    return _admissible(d, *OddParams.checked(d, a, b, c))


def criterion(params: EvenParams | OddParams) -> bool:
    """Whether the criterion holds at a family point, either family."""
    return _admissible(params.d, *params.coords)


# --- irreducibility: matrix oracle route ----------------------------------------

class IrrVerdict(NamedTuple):
    status: str  # "irreducible" | "reducible" | "indeterminate"
    witness: tuple[Vector, ...] | None  # basis of a proper invariant subspace
    detail: str = ""

    @property
    def is_irreducible(self) -> bool:
        return self.status == "irreducible"

    @property
    def is_reducible(self) -> bool:
        return self.status == "reducible"


def verify_invariant_subspace(v_mod: BIModule, basis: tuple[Vector, ...]) -> bool:
    """True iff basis spans a proper nonzero subspace closed under X and Y."""
    n = v_mod.dim
    if not basis or len(basis) >= n:
        return False
    acc = RrefAccumulator(n)
    for b in basis:
        if not acc.add(b):
            return False  # not independent
    return all(acc.contains(op.matvec(b))
               for b in basis for op in (v_mod.X, v_mod.Y))


def _reducible(v_mod: BIModule, witness: tuple[Vector, ...], what: str, detail: str) -> IrrVerdict:
    if not verify_invariant_subspace(v_mod, witness):
        raise CertificateError(f"{what} is not a submodule")
    return IrrVerdict("reducible", witness, detail)


def _norton(v_mod: BIModule, nmat: Matrix, v: Vector, label: str) -> IrrVerdict:
    """Two-sided spin test for a nullity-1 element ``nmat`` of the acting
    algebra, whose kernel line is spanned by ``v``.

    A proper submodule either meets the kernel line (proper primal spin) or
    is mapped onto itself, trapping the transposed kernel line inside its
    annihilator (proper dual spin).  Both spins full therefore certifies
    irreducibility; either spin proper yields a verified witness.  A spin
    whose ``rank_mod_p`` is n is full over Q; any other runs exactly, so
    every witness comes from the exact engine.
    """
    n, ops = v_mod.dim, [v_mod.X, v_mod.Y]
    if rank_mod_p([v], ops) < n and len(primal := spin([v], ops)) < n:
        return _reducible(v_mod, primal, f"spin of the kernel of {label}",
                          f"kernel of {label} generates a proper submodule")
    w, ops_t = kernel_basis(nmat.T)[0], [v_mod.X.T, v_mod.Y.T]
    if rank_mod_p([w], ops_t) < n and len(dual := spin([w], ops_t)) < n:
        return _reducible(v_mod, kernel_basis(Matrix(dual)),
                          f"dual-spin annihilator for the kernel of {label}",
                          f"dual kernel of {label} generates a proper submodule; "
                          "its annihilator is the witness")
    return IrrVerdict("irreducible", None, f"two-sided spin of ker({label}) is full")


def _shift(q: Fraction) -> str:
    return f"({as_text(q)})" if q < 0 else as_text(q)


def _eigenspaces(v_mod: BIModule, name: str
                 ) -> Iterator[tuple[Fraction, Matrix, tuple[Vector, ...]]]:
    """(theta, g - theta, kernel) per distinct eigenvalue of the generator
    ``name``, one elimination each: for Y first eps' theta*_0 of the named
    family point if its kernel is a line (it generates an irreducible family
    module), then the rest of the rational spectrum, increasing, computed
    only when asked for.  NonSplitSpectrum if it is not rational."""
    g, lines = v_mod.generator(name), []
    eye, tried = Matrix.identity(g.nrows), {}

    def item(th):
        if th not in tried:
            shifted = g - th * eye
            tried[th] = th, shifted, kernel_basis(shifted)
        return tried[th]

    try:
        if name == "Y":
            p, sign = _named_point(invariants(v_mod), v_mod.dim)
            lines = [th for th in (sign.eps_prime * p.theta_star(0),) if len(item(th)[2]) == 1]
    except (IdentificationFailed, NotRationalFamily, NotAModule):  # no point named
        pass
    yield from map(item, lines)
    roots = rational_spectrum(g)
    if not roots.split:
        raise NonSplitSpectrum(f"spectrum of {name} is not rational")
    yield from map(item, sorted(set(roots.roots).difference(lines)))


def oracle_irreducible(v_mod: BIModule) -> IrrVerdict:
    """Decide irreducibility from the matrices alone: one pass over Y, then
    X, then a probe of their combinations.

    For each generator g, the kernel of g - theta for each rational
    eigenvalue theta, in the order of ``_eigenspaces`` (for Y the named
    theta*_0 line first), comes from one elimination; the first kernel line
    is a Norton element for the two-sided spin test.  If every eigenspace of
    g is >= 2-dimensional, each kernel basis vector is spun under X and Y
    (the MeatAxe step, run exactly unless its ``rank_mod_p`` is n); the
    first proper spin is a verified witness, and in an irreducible module
    every spin is full.  Last, (Y - theta) + t (X - theta') for t in
    (1, -1, 2, -2) is probed for nullity 1.  Indeterminate is left only
    when no shift of X or Y and no combination has nullity 1, and every
    eigenvector spin is full.  Raises NonSplitSpectrum if the spectrum of
    Y or X is not rational.
    """
    n, ops = v_mod.dim, [v_mod.X, v_mod.Y]
    if n == 1:
        return IrrVerdict("irreducible", None, "dimension 1")
    fat = {}
    for name, fmt in (("Y", "Y - {}"), ("X", "(X - {})")):
        fat[name] = []
        for th, shifted, kernel in _eigenspaces(v_mod, name):
            label = fmt.format(_shift(th))
            if len(kernel) == 1:
                return _norton(v_mod, shifted, kernel[0], label)
            fat[name].append((shifted, label, kernel))
        for _, label, kernel in fat[name]:
            for v in kernel:
                if rank_mod_p([v], ops) < n and len(sub := spin([v], ops)) < n:
                    what = f"an eigenvector in the kernel of {label}"
                    return _reducible(v_mod, sub, f"spin of {what}",
                                      f"{what} generates a proper submodule")
    for (ym, ylab, _), (xm, xlab, _), t in itertools.product(fat["Y"], fat["X"], (1, -1, 2, -2)):
        nmat = ym + t * xm
        kernel = kernel_basis(nmat)
        if len(kernel) == 1:
            return _norton(v_mod, nmat, kernel[0], f"({ylab}) + {t}*{xlab}")
    return IrrVerdict("indeterminate", None, "no shift of X or Y and no combination has "
                      "nullity 1, and every eigenvector spin is full")


# --- the lowering matrix certificate -------------------------------------------

def lowering_matrix(d: int, a: RatLike, b: RatLike, c: RatLike,
                    method: str = "closed") -> Matrix:
    """(d+1) x (d+1) lower-triangular matrix of coefficients of the lowest
    ladder vector after applying the full Y-lowering product and a partial
    X-raising product; nonsingular exactly when criterion_even holds.

    method: "closed" (product formula), "recurrence" (two-term recurrence
    from the first column), or "operator" (read off the actual matrix
    products in the module).  All three agree; they share no code.
    """
    p = EvenParams(d, a, b, c)
    if method == "closed":
        return _lowering_closed(p, d)
    if method == "recurrence":
        return _lowering_recurrence(p, d)
    if method == "operator":
        return _lowering_operator(p, d)
    raise ValueError(f"unknown method {method!r}")


def _lowering_closed(t, d: int) -> Matrix:
    # running products, built once: item k of each is the product of its first k factors
    def running(factors):
        return list(itertools.accumulate(factors, operator.mul, initial=_F1))

    # the superdiagonal of Y in the reversed-ladder basis: phi_h of (-a, b, c)
    low_phi = SequenceTable(t.delta, -t.a, t.b, t.c).phi_upper
    gap = running(t.theta_star(0) - t.theta_star(d - h + 1) for h in range(1, d + 1))
    low = running(low_phi(h) for h in range(1, d + 1))
    odd = running(t.phi_upper(2 * h - 1) for h in range(1, (d + 1) // 2 + 1))
    down = [running(t.phi_upper(2 * (q - h + 1)) for h in range(1, q + 1))
            for q in range(d // 2 + 1)]
    return Matrix([[_F0 if j > i or (i % 2 == 0 and j % 2 == 1) else
                    gap[i - j] * low[d - i] * odd[(j + 1) // 2] * down[i // 2][j // 2]
                    for j in range(d + 1)] for i in range(d + 1)])


def _lowering_recurrence(t, d: int) -> Matrix:
    size, low_phi = d + 1, SequenceTable(t.delta, -t.a, t.b, t.c).phi_upper
    top, theta = t.theta_star(0), [t.theta(i) for i in range(size)]
    # first column: l[i][0] = gap[i] * low[d - i], from two prefix products
    gap = list(itertools.accumulate((top - t.theta_star(d - h + 1) for h in range(1, size)),
                                    operator.mul, initial=_F1))
    low = list(itertools.accumulate(map(low_phi, range(1, size)), operator.mul, initial=_F1))
    l = [[gap[i] * low[d - i]] + [_F0] * d for i in range(size)]
    for j in range(1, size):
        for i in range(j, size):
            l[i][j] = (theta[i] - theta[j - 1]) * l[i][j - 1] + l[i - 1][j - 1]
    return Matrix(l)


def _lowering_operator(t: EvenParams, d: int) -> Matrix:
    e = t.module()
    # Y upper triangular with diagonal theta*_0 ... theta*_d makes rows i >= 1 of
    # (Y - theta*_1) ... (Y - theta*_d) zero (Cayley-Hamilton on the right
    # Y-invariant span of e_i^T ... e_d^T), so only row 0, a walk under Y^T, is left
    if not e.Y.is_upper_triangular() or any(e.Y[i, i] != t.theta_star(i) for i in range(d + 1)):
        raise CertificateError("lowering product escaped the lowest ladder line")
    r0 = shifted_walk(e.Y.T, Matrix.identity(d + 1).rows[0],
                      [t.theta_star(h) for h in range(1, d + 1)])[-1]
    # row i is r_0 (X - theta_d) ... (X - theta_{i+1}), a walk under X^T
    walk = shifted_walk(e.X.T, r0, [t.theta(i) for i in range(d, 0, -1)])
    return Matrix(walk[::-1])


# --- intertwiners and isomorphism -----------------------------------------------

def _hom(v_mod: BIModule, w_mod: BIModule) -> tuple[tuple[Matrix, ...], bool]:
    """Basis of Hom(V, W) by one graph spin, and whether every seeding
    Y-eigenspace has the same dimension in V and in W.

    Candidate seeds are the kernel vectors of Y_V - theta, in the order of
    ``_eigenspaces``, whose images must lie in ker(Y_W - theta); then unit
    vectors, whose images are free.  A candidate joins only if it raises
    the seeds' ``rank_mod_p`` in V; at rank n they generate V (a bad prime
    only adds seeds).  One graph spin follows: seed i with d_i allowed
    images is spun as (s_i; its images, each in its own W slot) in V + W^u,
    u = sum d_i: the first n rref rows pivot in V and read [I | A_1 ... A_u],
    the others (0 | R_1 ... R_u) are the relations sum c_j R_j = 0, and
    each solution c gives T = sum c_j A_j.  The basis is the one
    kernel_basis gives for the linear equations on T's row-major entries.
    """
    n, m = v_mod.dim, w_mod.dim
    eye_w, agree = Matrix.identity(m), []

    def candidates():
        try:
            for th, _, kv in _eigenspaces(v_mod, "Y"):
                kw = kernel_basis(w_mod.Y - th * eye_w)
                agree.append(len(kv) == len(kw))
                yield from ((s, kw) for s in kv)
        except NonSplitSpectrum:
            pass
        yield from ((e, eye_w.rows) for e in Matrix.identity(n).rows)

    seeds, rank, pad = [], 0, (_F0,) * m
    for s, kw in candidates():
        if (r := rank_mod_p([s_i for s_i, _ in seeds] + [s], [v_mod.X, v_mod.Y])) > rank:
            seeds.append((s, kw))
            if (rank := r) == n:
                break
    slots = [(i, w) for i, (_, images) in enumerate(seeds) for w in images]
    lifted = [s_i + sum((w if k == i else pad for k, w in slots), ())
              for i, (s_i, _) in enumerate(seeds)]
    u = len(slots)
    graph = spin(lifted, [Matrix.block_diag(v_mod.X, *[w_mod.X] * u),
                          Matrix.block_diag(v_mod.Y, *[w_mod.Y] * u)])
    eqs = [[r[n + j * m + p] for j in range(u)] for r in graph[n:] for p in range(m)]
    acc = RrefAccumulator(n * m)
    for c in (kernel_basis(Matrix(eqs)) if eqs else Matrix.identity(u).rows if u else ()):
        t = [sum((cj * graph[k][n + j * m + p] for j, cj in enumerate(c) if cj), _F0)
             for p in range(m) for k in range(n)]
        acc.add(t[::-1])
    # the rref of the reversed entries, reversed back, is kernel_basis's basis
    return tuple(Matrix([flat[p * n:(p + 1) * n] for p in range(m)])
                 for flat in (r[::-1] for r in reversed(acc.rows))), all(agree)


def intertwiner_space(v_mod: BIModule, w_mod: BIModule) -> tuple[Matrix, ...]:
    """Basis of {T : T X_V = X_W T and T Y_V = Y_W T} (maps V -> W), from
    the graph spin of ``_hom``; a kappa mismatch rules out a nonzero T."""
    if v_mod.kappa != w_mod.kappa:
        return ()
    return tuple(certify_intertwiner(t, v_mod, w_mod, "intertwiner-space element")
                 for t in _hom(v_mod, w_mod)[0])


def are_isomorphic(v_mod: BIModule, w_mod: BIModule) -> tuple[bool, Matrix | None]:
    """Decide module isomorphism; on success the witness is an exact invertible
    intertwiner T with T X_V = X_W T and T Y_V = Y_W T.

    After the cheap invariants, the intertwiner space comes from one graph
    spin (``_hom``).  Not isomorphic when a seeding Y-eigenspace differs in
    dimension between V and W, or when the space is zero or a line spanned
    by a singular map.  Otherwise the basis elements are tried, then ten
    draws sum c_i T_i over the whole basis, c_i uniform in [-4n, 4n] from
    random.Random(0): if some T is invertible, each draw is singular with
    probability at most n/(8n+1) < 1/8 (Schwartz, J. ACM 27, 1980), all ten
    below 2**-30, and only then is IndeterminateIsomorphism raised.  T is
    invertible when its ``rank_mod_p`` is n (a nonzero integer minor), else
    when its exact rank is n; the returned T is exact either way.
    """
    if v_mod.dim != w_mod.dim or v_mod.kappa != w_mod.kappa:
        return (False, None)
    if v_mod.same_matrices(w_mod):
        return (True, Matrix.identity(v_mod.dim))
    if invariants(v_mod) != invariants(w_mod):
        return (False, None)
    space, nullities_agree = _hom(v_mod, w_mod)
    if not nullities_agree or not space:
        return (False, None)
    n, rng = v_mod.dim, random.Random(0)
    draws = (sum((el * rng.randint(-4 * n, 4 * n) for el in space), Matrix.zero(n))
             for _ in range(10 if len(space) > 1 else 0))
    for t in itertools.chain(space, draws):
        if rank_mod_p(t.rows) == n or t.rank() == n:
            return (True, certify_intertwiner(t, v_mod, w_mod, "intertwiner-space element"))
    if len(space) == 1:
        return (False, None)  # every intertwiner is a multiple of one singular map
    raise IndeterminateIsomorphism(
        "nonzero intertwiner space but no invertible element found; "
        "both modules are reducible")


# --- invariants and identification ----------------------------------------------

class InvariantData(NamedTuple):
    """Cheap isomorphism invariants: the generator traces and the three
    central scalars."""

    trace_x: Fraction
    trace_y: Fraction
    kappa: Fraction
    lam: Fraction
    mu: Fraction


def invariants(v_mod: BIModule) -> InvariantData:
    """With lam, mu as stored, else read off the matrices (NotAModule)."""
    stored = v_mod.lam is not None and v_mod.mu is not None
    lam, mu = (v_mod.lam, v_mod.mu) if stored else central_scalars(v_mod)[1:]
    return InvariantData(v_mod.X.trace(), v_mod.Y.trace(), v_mod.kappa, lam, mu)


def orbit_canonical(a: RatLike, b: RatLike, c: RatLike) -> tuple[Fraction, Fraction, Fraction]:
    """Canonical representative of the sign-flip orbit: all entries >= 0."""
    return (abs(rat(a)), abs(rat(b)), abs(rat(c)))


class ClassCoordinates(NamedTuple):
    """Isomorphism class coordinates: family, d, twist signs (even family
    only) and the parameter triple (canonical orbit representative for the
    even family, exact values for the odd one)."""

    family: str  # "even" | "odd"
    d: int
    twist: TwistSign | None
    params: tuple[Fraction, Fraction, Fraction]


def _sqrt_exact(q: Fraction) -> Fraction | None:
    rn, rd = math.isqrt(max(q.numerator, 0)), math.isqrt(q.denominator)
    return Fraction(rn, rd) if (rn * rn, rd * rd) == (q.numerator, q.denominator) else None


def _named_point(inv: InvariantData, n: int) -> tuple[EvenParams | OddParams, TwistSign]:
    """The family point and twist signs (trivial for odd n) that the
    invariants of an n-dimensional module name, uncertified.  Odd n: a, b
    are the traces, c follows from kappa.  Even n: the signs come from the
    traces, +-n/2 (IdentificationFailed otherwise), the parameters are exact
    roots of the untwisted central-scalar sums (else NotRationalFamily)."""
    if n % 2 == 1:
        a, b = inv.trace_x, inv.trace_y
        return OddParams(n - 1, a, b, (2 * a * b - inv.kappa) / n), TwistSign(1, 1)
    trace_sign = {Fraction(-n, 2): 1, Fraction(n, 2): -1}
    ea, eb = trace_sign.get(inv.trace_x), trace_sign.get(inv.trace_y)
    if ea is None or eb is None:
        raise IdentificationFailed("generator traces are not +-n/2; not an even-family module")
    # untwist the central scalars with the trace signs
    kappa, lam, mu = ea * eb * inv.kappa, ea * inv.lam, eb * inv.mu
    params = tuple(_sqrt_exact(Fraction(n * n, 4) - s / 2)
                   for s in (kappa + mu, lam + kappa, mu + lam))
    if any(p is None for p in params):
        raise NotRationalFamily("central-scalar sums are not rational squares")
    return EvenParams(n - 1, *params), TwistSign(ea, eb)


def _family_map(p: EvenParams | OddParams, w_mod: BIModule) -> Matrix | None:
    """The module map from the family module at an irreducible point p (where
    ker(Y - theta*_0) is a line) into w_mod that sends v_0 into the kernel
    line of Y - theta*_0, or the identity if the matrices are the family's.
    None means "not isomorphic"; a nonzero map is invertible (Schur)."""
    if w_mod.same_matrices(p.module()):
        return Matrix.identity(p.d + 1)
    kernel = kernel_basis(w_mod.Y - p.theta_star(0) * Matrix.identity(p.d + 1))
    try:
        return ladder_map(p, w_mod, kernel[0]) if len(kernel) == 1 else None
    except (AnnihilatorFails, PremiseViolated):
        return None


def identify(v_mod: BIModule, *, assume_irreducible: bool = False) -> ClassCoordinates:
    """Coordinates of an irreducible module's isomorphism class: the family
    point and twist signs the invariants name (``_named_point``), certified
    by the ladder map from that family module into the untwisted input
    (``_family_map``).  IdentificationFailed when the named point is
    reducible (checked before any map) or when no such map exists."""
    if not assume_irreducible:
        verdict = oracle_irreducible(v_mod)
        if not verdict.is_irreducible:
            exc = (IndeterminateIrreducibility if verdict.status == "indeterminate"
                   else IdentificationFailed)
            raise exc(f"module is not irreducible ({verdict.status})")
    p, sign = _named_point(invariants(v_mod), v_mod.dim)
    if not criterion(p):
        raise IdentificationFailed(f"the invariants name a reducible {p.family} point")
    if _family_map(p, twist(v_mod, sign)) is None:
        raise IdentificationFailed(f"no invertible intertwiner to the {p.family} family")
    return ClassCoordinates(p.family, p.d, sign if p.family == "even" else None, p.coords)
