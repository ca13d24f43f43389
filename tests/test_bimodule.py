"""Tests for the module constructors, sequences, twisting and relation checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bannai_ito.bimodule import (
    ALL_TWISTS,
    BIModule,
    CertificateError,
    EvenParams,
    NotAModule,
    OddParams,
    SequenceTable,
    TwistSign,
    central_scalars,
    certify_intertwiner,
    check_relations,
    conjugate,
    derive_Z,
    diagonalizability,
    direct_sum,
    even_module,
    example_even,
    example_odd,
    minimal_polynomials,
    odd_module,
    twist,
)
from bannai_ito.classify import are_isomorphic, identify
from bannai_ito.exactlinalg import Matrix, Poly, anticommutator

F = Fraction

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)

# the third matrix of each pinned example, frozen independently of derive_Z
Z_EVEN = Matrix([
    ["-3/2", -1, 0, 0],
    [-1, "1/2", 4, 0],
    [0, 1, "-3/2", 3],
    [0, 0, -1, "1/2"],
])
Z_ODD = Matrix([
    ["3/2", -4, 0, 0, 0],
    [-1, "-5/2", -2, 0, 0],
    [0, 1, "3/2", -6, 0],
    [0, 0, -1, "-5/2", -12],
    [0, 0, 0, 1, "3/2"],
])


def test_sequence_values_even():
    t = EvenParams(3, 1, 0, 1)
    assert [t.theta(i) for i in range(4)] == [F(-1, 2), F(-1, 2), F(3, 2), F(-5, 2)]
    assert [t.theta_star(i) for i in range(4)] == [F(-3, 2), F(1, 2), F(1, 2), F(-3, 2)]
    assert [t.phi_upper(i) for i in range(1, 4)] == [F(1), F(4), F(-3)]
    # the reversed-ladder superdiagonal is phi of the a-flipped point
    assert [EvenParams(3, -1, 0, 1).phi_upper(i) for i in range(1, 4)] == [F(-3), F(4), F(1)]
    assert t.phi_upper(4) == 0  # closes the ladder at i = d + 1
    assert t.central_scalars() == (F(4), F(4), F(2))


def test_sequence_values_odd():
    t = OddParams(4, "3/2", "1/2", "-1/2")
    assert (t.d, *t.coords) == (F(4), F(3, 2), F(1, 2), F(-1, 2))
    assert [t.theta(i) for i in range(5)] == [F(-1, 2), F(-1, 2), F(3, 2), F(-5, 2), F(7, 2)]
    assert [t.theta_star(i) for i in range(5)] == [F(-3, 2), F(1, 2), F(1, 2), F(-3, 2), F(5, 2)]
    assert [t.phi_upper(i) for i in range(1, 5)] == [F(4), F(-2), F(6), F(-12)]
    assert t.central_scalars() == (F(4), F(-8), F(-4))
    # the four-argument table at the same point keeps the even formulas
    even = SequenceTable(F(4), F(3, 2), F(1, 2), F(-1, 2))
    assert [even.phi_upper(i) for i in range(1, 5)] == [F(0), F(6), F(-6), F(4)]
    assert even.central_scalars() != t.central_scalars()
    # small second sample, frozen by hand
    t0 = OddParams(2, 0, 0, 0)
    assert [t0.phi_upper(i) for i in range(1, 3)] == [F(-1), F(-1)]


def test_params_validation():
    with pytest.raises(ValueError):
        EvenParams(2, 0, 0, 0)
    with pytest.raises(ValueError):
        EvenParams(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        OddParams(3, 0, 0, 0)
    # a sign must be a plain int +-1: not a bool or a float that equals one
    for signs in ((2, 1), (True, 1), (1, True), (1.0, -1), (1, F(-1))):
        with pytest.raises(ValueError, match="^twist signs must be \\+1 or -1$"):
            TwistSign(*signs)
    assert OddParams(0, 1, 2, 3).module().dim == 1
    # d must be a plain int: not a bool, a Fraction or a float
    for d in (True, F(3), 3.0):
        with pytest.raises(ValueError, match=f"^even family needs odd d >= 1, got {d}$"):
            EvenParams(d, 0, 0, 0)
    with pytest.raises(ValueError, match="^odd family needs even d >= 0, got False$"):
        OddParams(False, 0, 0, 0)


def test_params_value_semantics():
    # a family point is a value: coerced parameters, equal hashes, d an int
    p = EvenParams(3, 1, 0, 1)
    assert p == EvenParams(3, "1", 0, F(1)) and hash(p) == hash(EvenParams(3, "1", 0, F(1)))
    assert p.d == 3 and type(p.d) is int and p.delta == F(3)


def test_certify_intertwiner_checks_both_equations():
    v, eye = even_module(3, 1, 0, 1), Matrix.identity(4)
    assert certify_intertwiner(eye, v, v, "I") is eye
    # the identity fails on the X equation, then on the Y equation alone
    for sign in (TwistSign(-1, 1), TwistSign(1, -1)):
        with pytest.raises(CertificateError, match=r"^I fails to intertwine \(library bug\)$"):
            certify_intertwiner(eye, v, twist(v, sign), "I")
    with pytest.raises(ValueError, match=r"^shape mismatch \(3, 3\) vs \(4, 4\)$"):
        certify_intertwiner(Matrix.identity(3), v, v, "I")


def test_family_module_is_built_once_per_point(monkeypatch):
    # a point keeps its module: identify compares the input with it and the
    # ladder map certifies against it, from one build of the ladder
    p = EvenParams(3, 1, 0, 1)
    assert p.module() is p.module() and p == EvenParams(3, 1, 0, 1)
    assert p.module().same_matrices(EvenParams(3, 1, 0, 1).module())
    v = twist(even_module(3, F(1, 3), F(2, 7), F(5, 11)), TwistSign(-1, 1))
    built, real_ladder = [], SequenceTable.ladder

    def counting_ladder(self, n):
        built.append(n)
        return real_ladder(self, n)

    monkeypatch.setattr(SequenceTable, "ladder", counting_ladder)
    identify(v, assume_irreducible=True)
    assert built == [4]


def test_even_module_matches_pinned_example():
    built = even_module(3, 1, 0, 1)
    ex = example_even()
    assert built.same_matrices(ex)
    assert built.Z == ex.Z == Z_EVEN
    assert (built.kappa, built.lam, built.mu) == (F(4), F(4), F(2))


def test_odd_module_matches_pinned_example():
    built = odd_module(4, "3/2", "1/2", "-1/2")
    ex = example_odd()
    assert built.same_matrices(ex)
    assert built.Z == ex.Z == Z_ODD
    assert (built.kappa, built.lam, built.mu) == (F(4), F(-8), F(-4))


def test_pinned_examples_satisfy_displayed_relations():
    for ex in (example_even(), example_odd()):
        eye = Matrix.identity(ex.dim)
        z = ex.Z
        assert anticommutator(ex.X, ex.Y) == z + ex.kappa * eye
        assert anticommutator(ex.Y, z) == ex.X + ex.lam * eye
        assert anticommutator(z, ex.X) == ex.Y + ex.mu * eye


def test_derive_Z_definition():
    v = even_module(1, 1, 1, 1)
    assert v.X == Matrix([["1/2", 0], [1, "-3/2"]])
    assert v.Y == Matrix([["1/2", -3], [0, "-3/2"]])
    assert v.kappa == 0
    # kappa = 0 here, so Z is exactly the anticommutator
    assert v.Z == anticommutator(v.X, v.Y) == Matrix([["-5/2", 3], [-1, "3/2"]])
    assert derive_Z(v.X, v.Y, 1) == v.Z - Matrix.identity(2)


def test_check_relations_passes_on_small_grid():
    vals = [F(0), F(1, 2), F(-1), F(3, 2)]
    for d, ctor in ((1, even_module), (3, even_module), (0, odd_module), (2, odd_module)):
        for a in vals:
            for b in vals[:2]:
                for c in vals[:2]:
                    rep = check_relations(ctor(d, a, b, c))
                    assert rep.ok, (d, a, b, c, rep)


def test_check_relations_catches_fake_module():
    fake = BIModule(Matrix.identity(2), Matrix([[0, 1], [0, 0]]), 0)
    rep = check_relations(fake)
    assert not rep.ok
    names = [c.name for c in rep.checks if not c.passed]
    assert "mu" in names
    with pytest.raises(NotAModule):
        central_scalars(fake)


def test_check_relations_catches_wrong_stored_scalar():
    good = even_module(3, 1, 0, 1)
    bad = BIModule(good.X, good.Y, good.kappa, lam=F(5), mu=good.mu)
    rep = check_relations(bad)
    assert not rep.ok
    assert rep.scalar("lambda") == F(4)  # the true scalar is still discovered


def test_central_scalars_discovered():
    v = odd_module(2, "1/2", "-1/2", 1)
    # stored values come from closed forms; discovery must agree
    assert central_scalars(v) == (v.kappa, v.lam, v.mu)


def test_twist_action():
    v = even_module(3, 1, 0, 1)
    w = twist(v, TwistSign(-1, 1))
    assert w.X == -1 * v.X and w.Y == v.Y
    assert (w.kappa, w.lam, w.mu) == (-v.kappa, -v.lam, v.mu)
    assert w.X.trace() == 2  # -eps (d+1)/2 with eps = -1
    assert check_relations(w).ok
    # Z picks up the product sign
    assert w.Z == -1 * v.Z


def test_twist_composition_and_identity():
    v = odd_module(2, 1, "1/2", 0)
    s, t = TwistSign(-1, 1), TwistSign(-1, -1)
    assert twist(twist(v, s), t).same_matrices(twist(v, s * t))
    assert twist(v, TwistSign(1, 1)).same_matrices(v)


@pytest.mark.parametrize("point, sign", [
    (EvenParams(3, F(1, 3), F(2, 7), F(5, 11)), TwistSign(-1, 1)),
    (OddParams(2, F(1, 3), F(2, 7), F(5, 11)), TwistSign(1, -1)),
], ids=["even", "odd"])
def test_conjugate_and_direct_sum(point, sign):
    v = twist(point.module(), sign)
    n = v.dim
    upper = Matrix([[1 if j >= i else 0 for j in range(n)] for i in range(n)])
    p = upper * upper.T  # dense, determinant 1
    w = conjugate(v, p)
    # P invertible with P X_V = X_W P and P Y_V = Y_W P: W is P V P^-1
    assert certify_intertwiner(p, v, w, "P") is p
    assert (w.kappa, w.lam, w.mu) == (v.kappa, v.lam, v.mu)
    ok, t = are_isomorphic(v, w)
    assert ok and certify_intertwiner(t, v, w, "T") is t and t.rank() == n
    with pytest.raises(ValueError, match="singular"):
        conjugate(v, upper - Matrix.identity(n))
    # the first summand at the top left, the stored scalars carried and checked
    s = direct_sum(v, w)
    assert (s.X, s.Y) == (Matrix.block_diag(v.X, w.X), Matrix.block_diag(v.Y, w.Y))
    assert (s.kappa, s.lam, s.mu) == (v.kappa, v.lam, v.mu) and check_relations(s).ok
    for summands in ((v, twist(v, TwistSign(-1, -1))), (v, BIModule(w.X, w.Y, w.kappa)), ()):
        with pytest.raises(ValueError, match="store one"):
            direct_sum(*summands)
    # Matrix.block_diag of non-square blocks: summed shape, each block in place
    a, b = Matrix([[1, 2, 3]]), Matrix([[4], [5]])
    assert Matrix.block_diag(a, b) == Matrix([[1, 2, 3, 0], [0, 0, 0, 4], [0, 0, 0, 5]])
    assert Matrix.block_diag(a) == a


def test_minimal_polynomials_of_examples():
    # the six factorizations, all with a repeated factor
    mp_e = minimal_polynomials(example_even())
    assert mp_e["X"] == Poly.from_roots(["3/2", "-1/2", "-1/2", "-5/2"])
    assert mp_e["Y"] == Poly.from_roots(["1/2", "1/2", "-3/2", "-3/2"])
    assert mp_e["Z"] == Poly.from_roots(["3/2", "-1/2", "-1/2", "-5/2"])
    mp_o = minimal_polynomials(example_odd())
    assert mp_o["X"] == Poly.from_roots(["7/2", "3/2", "-1/2", "-1/2", "-5/2"])
    assert mp_o["Y"] == Poly.from_roots(["5/2", "1/2", "1/2", "-3/2", "-3/2"])
    assert mp_o["Z"] == Poly.from_roots(["3/2", "3/2", "-1/2", "-1/2", "-5/2"])


def test_examples_not_diagonalizable():
    assert diagonalizability(example_even()) == {"X": False, "Y": False, "Z": False}
    assert diagonalizability(example_odd()) == {"X": False, "Y": False, "Z": False}
    # a diagonalizable sanity case: 1-dimensional module
    assert diagonalizability(odd_module(0, 1, 2, 3)) == {"X": True, "Y": True, "Z": True}


def test_generator_accessor():
    v = example_even()
    assert v.generator("Z") == v.Z
    with pytest.raises(ValueError):
        v.generator("W")


# --- properties ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(rationals, rationals, st.integers(min_value=-3, max_value=8))
def test_theta_three_term_identities(delta, a, i):
    t = SequenceTable(delta, a, F(0), F(0))
    assert t.theta(i + 1) + t.theta(i - 1) == -2 * t.theta(i)
    assert t.theta(i + 1) * t.theta(i - 1) == (t.theta(i) - 1) * (t.theta(i) + 1)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 3, 5]), rationals, rationals, rationals)
def test_even_relations_hold(d, a, b, c):
    assert check_relations(even_module(d, a, b, c)).ok


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([0, 2, 4]), rationals, rationals, rationals)
def test_odd_relations_hold(d, a, b, c):
    assert check_relations(odd_module(d, a, b, c)).ok


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 3, 5]), rationals, rationals, rationals,
       st.sampled_from(ALL_TWISTS))
def test_even_trace_and_central_sums(d, a, b, c, sign):
    v = even_module(d, a, b, c)
    w = twist(v, sign)
    half = F(d + 1, 2)
    assert w.X.trace() == -sign.eps * half
    assert w.Y.trace() == -sign.eps_prime * half
    # central sums on the untwisted module determine a^2, b^2, c^2
    shift = F((d + 1) ** 2, 4)
    assert v.kappa + v.mu == -2 * (a * a - shift)
    assert v.lam + v.kappa == -2 * (b * b - shift)
    assert v.mu + v.lam == -2 * (c * c - shift)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([0, 2, 4]), rationals, rationals, rationals)
def test_odd_traces(d, a, b, c):
    v = odd_module(d, a, b, c)
    assert v.X.trace() == a
    assert v.Y.trace() == b
    assert v.kappa == 2 * a * b - c * (d + 1)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 3, 5, 7]), rationals, rationals, rationals)
def test_superdiagonal_recurrence(d, a, b, c):
    # phi_{i+1} + 2 phi_i + phi_{i-1}
    #   = 2 kappa - (3 theta_i + theta_{i-1}) theta*_i
    #     - (theta_i + 3 theta_{i-1}) theta*_{i-1},  with phi_0 = phi_{d+1} = 0
    t = EvenParams(d, a, b, c)
    kappa = t.central_scalars()[0]
    assert t.phi_upper(0) == 0 and t.phi_upper(d + 1) == 0
    for i in range(1, d + 1):
        lhs = t.phi_upper(i + 1) + 2 * t.phi_upper(i) + t.phi_upper(i - 1)
        rhs = (2 * kappa
               - (3 * t.theta(i) + t.theta(i - 1)) * t.theta_star(i)
               - (t.theta(i) + 3 * t.theta(i - 1)) * t.theta_star(i - 1))
        assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 3, 5]), rationals, rationals, rationals)
def test_reversed_ladder_sequence_symmetry(d, a, b, c):
    # theta_{d-i}(a) = theta_i(-a)
    t = SequenceTable(F(d), a, b, c)
    tn = SequenceTable(F(d), -a, b, c)
    for i in range(d + 1):
        assert t.theta(d - i) == tn.theta(i)
