"""Tests for irreducibility decisions, the lowering-matrix certificate,
isomorphism testing and class identification."""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bannai_ito import classify, exactlinalg, universal
from bannai_ito.bimodule import ALL_TWISTS, BIModule, CertificateError, EvenParams, \
    NotAModule, OddParams, SequenceTable, TwistSign, conjugate, direct_sum, even_module, \
    example_even, example_odd, odd_module, twist
from bannai_ito.classify import ClassCoordinates, IdentificationFailed, \
    IndeterminateIsomorphism, NonSplitSpectrum, NotRationalFamily, \
    are_isomorphic, criterion, criterion_even, criterion_odd, identify, \
    intertwiner_space, invariants, \
    lowering_matrix, oracle_irreducible, orbit_canonical, \
    verify_invariant_subspace
from bannai_ito.exactlinalg import Matrix, RrefAccumulator, kernel_basis, \
    rational_spectrum, rref, spin
from bannai_ito.universal import PremiseViolated, ladder_map

from conftest import EVEN_DIMS, ODD_DIMS, grid_points

small = st.fractions(min_value=-2, max_value=2, max_denominator=2)


# --- closed-form criteria ----------------------------------------------------

def test_criterion_even_fixed():
    assert not criterion_even(1, 0, 0, 0)  # all four sums hit 0
    assert criterion_even(3, 1, 0, 1)
    assert not criterion_even(3, 1, 1, 1)  # three sums equal 1
    assert criterion_even(1, 1, 1, 1)
    assert not criterion_even(5, F(1, 2), F(3, 2), 2)  # a+b-c = 0 is forbidden
    assert criterion_even(5, F(3, 2), 1, F(7, 2))


def test_criterion_odd_fixed():
    assert criterion_odd(4, F(3, 2), F(1, 2), F(-1, 2))
    assert not criterion_odd(2, 0, 0, F(-1, 2))  # -a-b+c = -1/2 is forbidden
    assert criterion_odd(2, 1, F(-1, 2), F(3, 2))
    # d = 0 has an empty forbidden set
    assert criterion_odd(0, 17, F(-3, 5), 0)


def test_criterion_rejects_bad_parity():
    with pytest.raises(ValueError):
        criterion_even(2, 0, 0, 0)
    with pytest.raises(ValueError):
        criterion_odd(3, 0, 0, 0)


def test_criterion_verdict_wraps_both_families():
    assert criterion(EvenParams(3, F(1), F(0), F(1)))
    assert not criterion(OddParams(2, F(0), F(0), F(-1, 2)))


# --- matrix oracle -----------------------------------------------------------

def test_oracle_on_the_examples():
    for mod in (example_even(), example_odd()):
        verdict = oracle_irreducible(mod)
        assert verdict.is_irreducible


def test_oracle_finds_reducible_witness():
    mod = even_module(1, 0, 0, 0)  # superdiagonal vanishes, e_1 spans a submodule
    verdict = oracle_irreducible(mod)
    assert verdict.is_reducible
    assert verdict.witness == ((F(0), F(1)),)
    assert verify_invariant_subspace(mod, verdict.witness)


def test_oracle_dimension_one():
    assert oracle_irreducible(odd_module(0, 2, -1, F(1, 2))).is_irreducible


def test_oracle_labels_a_value_past_the_digit_limit():
    # b = 10**4400 has more digits than str() converts: the label says so
    verdict = oracle_irreducible(odd_module(2, 1, 10**4400, 0))
    assert verdict.status == "irreducible"
    assert verdict.detail == "two-sided spin of ker(Y - <too many digits>) is full"


# the conjugating matrix of the 4 x 4 X-route examples below
_P4 = Matrix([[1, 1, -1, 0], [1, 2, -2, 1], [-1, 0, 1, 0], [-1, -1, 1, 1]])


def _pair(x: Matrix, y: Matrix) -> BIModule:
    """An operator pair with all three stored scalars 0."""
    return BIModule(x, y, F(0), F(0), F(0))


def _unimodular(n: int, rng: random.Random) -> Matrix:
    """L U with L, U unit triangular and entries in {-1, 0, 1} from rng."""
    low = Matrix([[1 if i == j else rng.randint(-1, 1) if j < i else 0 for j in range(n)]
                  for i in range(n)])
    up = Matrix([[1 if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(n)]
                 for i in range(n)])
    return low * up


def _block_sum(seed: int, size: int) -> BIModule:
    """P (S1 D S1^-1 + S2 D S2^-1, T1 D T1^-1 + T2 D T2^-1) P^-1 for
    D = diag(0, ..., size - 1): an operator pair (not a module) whose
    generators have only 2-dimensional eigenspaces, seeded small-integer
    S_i, T_i and a unimodular P that mixes the two blocks."""
    rng = random.Random(seed)

    def invertible(m):
        while True:
            s = Matrix([[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)])
            if s.det() != 0:
                return s

    d = _pair(Matrix.diagonal(range(size)), Matrix.diagonal(range(size)))
    blocks = []
    for _ in range(2):
        s, t = invertible(size), invertible(size)
        blocks.append(_pair(conjugate(d, s).X, conjugate(d, t).Y))
    return conjugate(direct_sum(*blocks), _unimodular(2 * size, rng))


def test_oracle_x_shift_norton_reducible():
    # Y has only fat eigenspaces, and P mixes the two invariant coordinate
    # planes into every kernel_basis vector of Y - 0 and Y - 1, so each
    # eigenvector spin is full; X has simple eigenvalues, and the kernel of
    # the first shift, X + 2, sits in the second plane
    x = Matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 4], [0, 0, 1, 0]])
    y = Matrix([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
    mod = conjugate(_pair(x, y), _P4)
    for th in (0, 1):
        for v in kernel_basis(mod.Y - th * Matrix.identity(4)):
            assert len(spin([v], [mod.X, mod.Y])) == 4
    verdict = oracle_irreducible(mod)
    assert verdict.is_reducible
    assert verdict.detail == "kernel of (X - (-2)) generates a proper submodule"
    assert verify_invariant_subspace(mod, verdict.witness)
    expected, _ = rref(Matrix([_P4.column(2), _P4.column(3)]))
    assert verdict.witness == expected.rows


def test_oracle_spins_x_eigenvectors():
    # X = X1 + X2 with both blocks of spectrum {1, -1}, so every shift of X
    # and of Y = diag(0, 1, 0, 1) has nullity 2 and every Y-eigenvector spin
    # is full; a kernel vector of X + 1 lies in the first plane
    y = Matrix.diagonal([0, 1])
    mod = conjugate(direct_sum(_pair(Matrix([[0, 1], [1, 0]]), y),
                               _pair(Matrix([[F(1, 2), F(3, 4)], [1, F(-1, 2)]]), y)), _P4)
    for th in (0, 1):
        for v in kernel_basis(mod.Y - th * Matrix.identity(4)):
            assert len(spin([v], [mod.X, mod.Y])) == 4
    verdict = oracle_irreducible(mod)
    assert verdict.is_reducible
    assert verdict.detail == ("an eigenvector in the kernel of (X - (-1)) "
                              "generates a proper submodule")
    expected, _ = rref(Matrix([_P4.column(0), _P4.column(1)]))
    assert verdict.witness == expected.rows


def test_oracle_combination_decides():
    # every shift of X and Y has nullity 2 and every eigenvector spin is
    # full; (Y - 0) - 2 (X - 0) has nullity 1 and its kernel spins to a
    # proper submodule
    mod = _block_sum(347, 3)
    verdict = oracle_irreducible(mod)
    assert verdict.is_reducible
    assert verdict.detail == "kernel of (Y - 0) + -2*(X - 0) generates a proper submodule"
    assert verify_invariant_subspace(mod, verdict.witness)


def test_oracle_indeterminate():
    mod = _block_sum(75, 2)
    verdict = oracle_irreducible(mod)
    assert verdict.status == "indeterminate" and verdict.witness is None
    assert verdict.detail == ("no shift of X or Y and no combination has nullity 1, "
                              "and every eigenvector spin is full")


def test_oracle_work_is_bounded(monkeypatch):
    # the worst path: every Y and X shift, every eigenvector spin and all
    # 4 * 6 * 6 combinations, one elimination each
    calls = []

    def counting_kernel_basis(m):
        calls.append(m.nrows)
        return kernel_basis(m)

    mod = _block_sum(8, 6)
    monkeypatch.setattr(classify, "kernel_basis", counting_kernel_basis)
    n = mod.dim
    assert oracle_irreducible(mod).status == "indeterminate"
    assert len(calls) <= 2 * n + n * n


@pytest.mark.parametrize("d", [3, 7])
def test_oracle_spins_fat_eigenspaces_of_direct_sums(monkeypatch, d):
    # every element acts on V + V' as A + A', so no Y shift has nullity 1;
    # an eigenvector inside one summand spins to a proper submodule before
    # X is looked at
    real_eigenspaces = classify._eigenspaces

    def y_only(v_mod, name):
        if name != "Y":
            raise AssertionError("X must not be looked at")
        return real_eigenspaces(v_mod, name)

    monkeypatch.setattr(classify, "_eigenspaces", y_only)
    a, b, c = F(1, 3), F(2, 7), F(5, 11)
    v = even_module(d, a, b, c)
    for partner in ((a, b, c), (-a, b, c), (a, -b, c), (a, b, -c)):
        s = direct_sum(v, even_module(d, *partner))
        verdict = oracle_irreducible(s)
        assert verdict.is_reducible
        assert verdict.detail.startswith("an eigenvector in the kernel of Y - ")
        assert verify_invariant_subspace(s, verdict.witness)


@pytest.mark.parametrize("b, text", [
    (F(-1, 2), "spin of the kernel of Y - (-1) is not a submodule"),
    (F(1, 2), "dual-spin annihilator for the kernel of Y - (-1) is not a submodule"),
])
def test_norton_witness_certificate_texts(monkeypatch, b, text):
    # a rejected primal (b = -1/2) or dual (b = 1/2) Norton witness names its
    # source; the Norton element is Y - theta*_0 of the named point E_3(0, 1/2, 1/2)
    monkeypatch.setattr(classify, "verify_invariant_subspace", lambda v_mod, basis: False)
    with pytest.raises(CertificateError) as exc:
        oracle_irreducible(even_module(3, 0, b, F(1, 2)))
    assert str(exc.value) == text


def test_oracle_x_shift_norton_irreducible():
    # two X-Jordan blocks crossed by a pair swap: Y has only fat eigenspaces
    # (+-1, each twice) whose every spin is full, and no X-block flag is
    # Y-invariant
    x = Matrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]])
    y = Matrix([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    verdict = oracle_irreducible(BIModule(x, y, kappa=F(0), lam=F(0), mu=F(0)))
    assert verdict.is_irreducible


def test_oracle_nonsplit_spectrum():
    y = Matrix([[0, 1], [2, 0]])  # eigenvalues are irrational
    with pytest.raises(NonSplitSpectrum, match="spectrum of Y is not rational"):
        oracle_irreducible(BIModule(Matrix.identity(2), y, kappa=F(0)))
    # Y split but useless, X non-split: raised once the oracle turns to X
    x = Matrix([[0, 1], [2, 0]])
    with pytest.raises(NonSplitSpectrum, match="spectrum of X is not rational"):
        oracle_irreducible(BIModule(x, Matrix.zero(2, 2), kappa=F(0)))


def test_invariants_of_a_non_module_without_stored_scalars():
    # nothing to read lambda and mu from: the relations fail, so no family
    # point is named and the oracle goes on without a hint
    mod = BIModule(Matrix.identity(2), Matrix([[0, 1], [2, 0]]), kappa=F(0))
    with pytest.raises(NotAModule):
        invariants(mod)


def test_verify_invariant_subspace_edges():
    mod = even_module(1, 0, 0, 0)
    assert not verify_invariant_subspace(mod, ())
    e0, e1 = (F(1), F(0)), (F(0), F(1))
    assert not verify_invariant_subspace(mod, (e0, e1))  # not proper
    assert not verify_invariant_subspace(mod, (e1, (F(0), F(2))))  # dependent
    assert not verify_invariant_subspace(mod, (e0,))  # not closed: X e0 hits e1
    assert verify_invariant_subspace(mod, (e1,))


def test_verify_invariant_subspace_checks_y_too():
    # phi_1 != 0, so span{e_1} is X-invariant (the lowest ladder line) but
    # Y e_1 has an e_0 part
    mod = even_module(1, F(1, 3), F(2, 7), F(5, 11))
    assert mod.X.matvec((0, 1))[0] == 0 and mod.Y.matvec((0, 1))[0] != 0
    assert not verify_invariant_subspace(mod, ((F(0), F(1)),))


def test_criterion_matches_oracle_sample():
    pool = (F(0), F(1, 2), F(-1), F(3, 2))
    for d in (1, 3):
        for a in pool:
            for b in pool[:2]:
                for c in pool[:3]:
                    expected = criterion_even(d, a, b, c)
                    verdict = oracle_irreducible(even_module(d, a, b, c))
                    assert verdict.is_irreducible == expected, (d, a, b, c)
    for d in (0, 2):
        for a in pool[:3]:
            for b in pool[:3]:
                for c in pool[:2]:
                    expected = criterion_odd(d, a, b, c)
                    verdict = oracle_irreducible(odd_module(d, a, b, c))
                    assert verdict.is_irreducible == expected, (d, a, b, c)


quarter = st.integers(min_value=-12, max_value=12).map(lambda k: F(k, 4))


@given(d=st.integers(min_value=0, max_value=9), a=quarter, b=quarter, c=quarter)
@settings(max_examples=300, deadline=None)
def test_one_rule_matches_oracle_beyond_the_grid(d, a, b, c):
    # quarter-integers put points on the walls (d-1)/2 - i as well as off
    # them, in dimensions past the acceptance grid's d <= 5
    p = (OddParams if d % 2 == 0 else EvenParams)(d, a, b, c)
    holds = (criterion_odd if d % 2 == 0 else criterion_even)(d, a, b, c)
    verdict = oracle_irreducible(p.module())
    assert verdict.status != "indeterminate", (d, a, b, c)
    assert verdict.is_irreducible == holds == criterion(p), (d, a, b, c)


# --- lowering matrix ---------------------------------------------------------

def test_lowering_matrix_fixed_2x2():
    expected = Matrix([[1, 0], [2, -3]])
    for method in ("closed", "recurrence", "operator"):
        assert lowering_matrix(1, 1, 1, 1, method=method) == expected


def test_lowering_matrix_methods_agree():
    for params in ((1, 1, 1, 1), (3, 1, 0, 1), (3, F(1, 2), F(-3, 2), 2),
                   (5, F(1, 2), F(3, 2), 2), (3, 1, 1, 1)):
        closed = lowering_matrix(*params, method="closed")
        assert closed == lowering_matrix(*params, method="recurrence")
        assert closed == lowering_matrix(*params, method="operator")
        assert closed.is_lower_triangular()


def test_lowering_matrix_detects_reducibility():
    for params in ((3, 1, 0, 1), (1, 1, 1, 1), (5, F(1, 2), F(3, 2), 2),
                   (3, 1, 1, 1), (1, 0, 0, 0), (5, F(1, 2), F(1, 2), F(1, 2))):
        nonsingular = bool(lowering_matrix(*params).det())
        assert nonsingular == criterion_even(*params), params


def test_lowering_matrix_rejects_unknown_method():
    with pytest.raises(ValueError):
        lowering_matrix(1, 1, 1, 1, method="magic")


@given(a=small, b=small, c=small)
@settings(max_examples=25, deadline=None)
def test_lowering_matrix_agreement_property(a, b, c):
    closed = lowering_matrix(3, a, b, c, method="closed")
    assert closed == lowering_matrix(3, a, b, c, method="recurrence")
    assert bool(closed.det()) == criterion_even(3, a, b, c)


@pytest.mark.parametrize("i, j", [(1, 1), (2, 1)], ids=["diagonal", "below"])
def test_lowering_operator_certificate(monkeypatch, i, j):
    # rows 1..d of the lowering product vanish only for a Y that is upper
    # triangular with diagonal theta*_0 ... theta*_d
    real_module = EvenParams.module

    def perturbed(self):
        e = real_module(self)
        y = [list(row) for row in e.Y.rows]
        y[i][j] += 1
        return BIModule(e.X, Matrix(y), e.kappa, e.lam, e.mu)

    monkeypatch.setattr(EvenParams, "module", perturbed)
    with pytest.raises(CertificateError,
                       match="^lowering product escaped the lowest ladder line$"):
        lowering_matrix(3, 1, 0, 1, method="operator")


def test_lowering_operator_work_is_linear(monkeypatch):
    # one walk from e_0 under Y^T, one under X^T: not a walk from every unit
    # vector, (d + 1) d + d = 255 matvec calls at d = 15
    calls = []
    real_matvec = Matrix.matvec

    def counting_matvec(self, v):
        calls.append(len(v))
        return real_matvec(self, v)

    d, params = 15, (F(1, 3), F(2, 7), F(5, 11))
    monkeypatch.setattr(Matrix, "matvec", counting_matvec)
    low = lowering_matrix(d, *params, method="operator")
    assert len(calls) <= 2 * d
    monkeypatch.undo()
    assert low == lowering_matrix(d, *params, method="closed")


def test_lowering_recurrence_reads_each_table_value_once(monkeypatch):
    # the first column comes from two prefix products: at most 3d table values
    # at d = 31, where rebuilding both products for every row took 1,488
    calls = []
    for name in ("theta_star", "phi_upper"):
        real = getattr(SequenceTable, name)
        monkeypatch.setattr(SequenceTable, name,
                            lambda self, i, real=real: calls.append(i) or real(self, i))
    d, params = 31, (F(1, 3), F(2, 7), F(5, 11))
    low = lowering_matrix(d, *params, method="recurrence")
    assert len(calls) <= 3 * d
    monkeypatch.undo()
    assert low == lowering_matrix(d, *params, method="closed")


# --- parameter sign flips ----------------------------------------------------

def _a_flip_basis(d, a, b, c):
    """The reversed-ladder basis w_i = prod_{h<i} (X - theta_{d-h}) v_0 of
    E_d(a, b, c) as columns: the ladder map from E_d(-a, b, c)."""
    return ladder_map(EvenParams(d, -a, b, c), even_module(d, a, b, c),
                      Matrix.identity(d + 1).rows[0])


def test_a_flip_basis_fixed():
    assert _a_flip_basis(1, 1, 1, 1) == Matrix([[1, 2], [0, 1]])  # w_1 = 2 v_0 + v_1


@pytest.mark.parametrize("d", EVEN_DIMS)
def test_a_flip_basis_on_grid(d):
    # reducible points included; the change of basis onto the flipped
    # module is checked independently of the library's own certificate
    for _, a, b, c in grid_points((d,))[::4]:
        basis = _a_flip_basis(d, a, b, c)
        assert basis.is_upper_triangular() and all(basis[i, i] == 1 for i in range(d + 1))
        e, inv = even_module(d, a, b, c), basis.inverse()
        assert (inv * e.X * basis, inv * e.Y * basis) == EvenParams(d, -a, b, c).ladder(d + 1)


# --- intertwiners ------------------------------------------------------------

def test_intertwiner_space_of_irreducible_is_a_line():
    mod = example_even()
    space = intertwiner_space(mod, mod)
    assert len(space) == 1
    t = space[0]
    assert t == t[0, 0] * Matrix.identity(4) and t[0, 0] != 0


def test_intertwiner_space_kappa_shortcircuit():
    mod = example_even()
    assert intertwiner_space(mod, twist(mod, TwistSign(1, -1))) == ()


def test_intertwiner_space_distinct_central_character():
    # kappa agrees (both 4) but lambda differs, so Hom must vanish
    v = even_module(3, 1, 0, 1)
    w = even_module(3, 0, 1, 1)
    assert v.kappa == w.kappa
    assert intertwiner_space(v, w) == ()


def test_are_isomorphic_sign_flips_d3():
    base = even_module(3, 1, F(1, 2), 2)
    for flipped in ((3, -1, F(1, 2), 2), (3, 1, F(-1, 2), 2), (3, 1, F(1, 2), -2)):
        ok, t = are_isomorphic(base, even_module(*flipped))
        assert ok
        assert t.rank() == 4
        assert t * base.X == even_module(*flipped).X * t
        assert t * base.Y == even_module(*flipped).Y * t


def test_are_isomorphic_rejects_distinct_classes():
    assert are_isomorphic(even_module(3, 1, 0, 1), even_module(3, 2, 0, 1)) == (False, None)
    assert are_isomorphic(even_module(3, 1, 0, 1), even_module(1, 1, 1, 1)) == (False, None)
    mod = example_even()
    assert are_isomorphic(mod, twist(mod, TwistSign(-1, 1)))[0] is False


def test_are_isomorphic_identity():
    for mod in (example_even(), example_odd(), even_module(1, 0, 0, 0)):
        ok, t = are_isomorphic(mod, mod)
        assert ok and t.rank() == mod.dim


def test_are_isomorphic_indeterminate():
    # v is not a module ({Y, Z} - X = -X_v is not scalar), which
    # are_isomorphic does not check; every intertwiner kills e_0, so the
    # bounded search finds nothing invertible and must say so
    x_v = Matrix([[0, 1], [0, 0]])
    x_w = Matrix.zero(2, 2)
    y = Matrix.zero(2, 2)
    v = BIModule(x_v, y, kappa=F(0), lam=F(0), mu=F(0))
    w = BIModule(x_w, y, kappa=F(0), lam=F(0), mu=F(0))
    with pytest.raises(IndeterminateIsomorphism):
        are_isomorphic(v, w)


def test_are_isomorphic_singular_line_is_not_isomorphic():
    # Hom(E_1(0, 1, 1), E_1(0, -1, 1)) is spanned by one singular map, so
    # no isomorphism exists; the bounded search alone cannot tell
    v, w = even_module(1, 0, 1, 1), even_module(1, 0, -1, 1)
    space = intertwiner_space(v, w)
    assert len(space) == 1 and space[0].rank() < 2
    assert are_isomorphic(v, w) == (False, None)


def test_are_isomorphic_seed_eigenspace_nullities_differ():
    # ker Y_V is a line (a Jordan block at 0), ker Y_W a plane: no isomorphism,
    # although Hom is 3-dimensional and holds nothing invertible
    z = Matrix.zero(3)
    v = BIModule(z, Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 1]]), F(0), F(0), F(0))
    w = BIModule(z, Matrix.diagonal([0, 0, 1]), F(0), F(0), F(0))
    assert len(intertwiner_space(v, w)) == 3
    assert are_isomorphic(v, w) == (False, None)


@pytest.mark.parametrize("k", [3, 4, 6])
def test_are_isomorphic_direct_power_against_a_conjugate(k):
    # Hom(E^k, P E^k P^-1) is k^2-dimensional and every basis element has
    # rank 2; random combinations of the whole basis find an isomorphism
    v = direct_sum(*[even_module(1, F(1, 3), F(2, 7), F(5, 11))] * k)
    w = conjugate(v, _unimodular(2 * k, random.Random(k)))
    assert all(t.rank() < 2 * k for t in intertwiner_space(v, w))
    ok, t = are_isomorphic(v, w)
    assert ok and t.rank() == 2 * k
    assert t * v.X == w.X * t and t * v.Y == w.Y * t


def test_are_isomorphic_search_is_ten_draws_after_the_basis(monkeypatch):
    # a 2-dimensional Hom with nothing invertible (the indeterminate pair
    # above): one rank per basis element, then one per draw, ten draws
    ranks = []
    real_rank = Matrix.rank

    def counting_rank(self):
        ranks.append(self)
        return real_rank(self)

    y = Matrix.zero(2, 2)
    v = BIModule(Matrix([[0, 1], [0, 0]]), y, kappa=F(0), lam=F(0), mu=F(0))
    w = BIModule(Matrix.zero(2, 2), y, kappa=F(0), lam=F(0), mu=F(0))
    space = intertwiner_space(v, w)
    assert len(space) == 2
    monkeypatch.setattr(Matrix, "rank", counting_rank)
    with pytest.raises(IndeterminateIsomorphism):
        are_isomorphic(v, w)
    assert ranks[:2] == list(space) and len(ranks) == 12


def test_intertwiner_spin_outcomes(monkeypatch):
    # plain operator pairs, not modules: e_0 spans ker Y on both sides, so
    # (e_0; e_0) is the first seed of the graph spin
    y = Matrix.diagonal([0, 1])
    v = BIModule(Matrix([[0, 0], [1, 0]]), y, F(0), F(0), F(0))
    assert intertwiner_space(v, v) == (Matrix.identity(2),)
    assert are_isomorphic(v, v) == (True, Matrix.identity(2))
    # X_W swaps e_0 and e_1: X^2 kills e_0 in V but not in W, so the spin
    # carries the relation (0 | e_0) and Hom is zero
    swap = BIModule(Matrix([[0, 1], [1, 0]]), y, F(0), F(0), F(0))
    assert intertwiner_space(v, swap) == ()
    assert are_isomorphic(v, swap) == (False, None)
    # X_W = 0: Hom is the line of the singular map e_0 -> e_0, e_1 -> 0
    flat = BIModule(Matrix.zero(2), y, F(0), F(0), F(0))
    assert intertwiner_space(v, flat) == (Matrix.diagonal([1, 0]),)
    assert are_isomorphic(v, flat) == (False, None)
    # X_V = 0: e_0 spans a proper submodule, so e_1 seeds the spin as well;
    # Hom is the line of e_1 -> e_1
    assert intertwiner_space(flat, v) == (Matrix.diagonal([0, 1]),)
    assert are_isomorphic(flat, v) == (False, None)
    # a graph that is not invariant must fail its certificate, not read as "no"
    monkeypatch.setattr(classify, "spin", lambda vectors, operators: tuple(
        r + r for r in Matrix.identity(2).rows))
    for call in (intertwiner_space, are_isomorphic):
        with pytest.raises(CertificateError,
                           match=r"intertwiner-space element fails to intertwine \(library bug\)"):
            call(v, swap)


def test_intertwiner_space_of_a_wall_point_spins_once(monkeypatch):
    # E_3(2/3, 3/4, 5/12) is reducible (a + b - c = 1) with b > 0: its named
    # theta*_0 line is the ladder seed v_0, which generates it, so in either
    # argument order one graph spin finds Hom and the dense conjugate's Y
    # needs no spectrum
    e = even_module(3, F(2, 3), F(3, 4), F(5, 12))
    assert not criterion_even(3, F(2, 3), F(3, 4), F(5, 12))
    conj = conjugate(e, _unimodular(4, random.Random(1)))
    spins, dense = [], []
    real_spin, real_spectrum = classify.spin, classify.rational_spectrum

    def counting_spin(vectors, operators):
        spins.append(len(vectors))
        return real_spin(vectors, operators)

    def counting_spectrum(m):
        dense.append(not (m.is_upper_triangular() or m.is_lower_triangular()))
        return real_spectrum(m)

    monkeypatch.setattr(classify, "spin", counting_spin)
    monkeypatch.setattr(classify, "rational_spectrum", counting_spectrum)
    for v, w in ((e, conj), (conj, e)):
        spins.clear()
        dense.clear()
        space = intertwiner_space(v, w)
        assert space and all(t * v.X == w.X * t and t * v.Y == w.Y * t for t in space)
        assert len(spins) == 1 and not any(dense)


def _dense_hom_system(v_mod, w_mod) -> Matrix:
    """The 2nm x nm linear system T X_V = X_W T, T Y_V = Y_W T in the
    row-major entries of T: an oracle for the graph spin."""
    n, m = v_mod.dim, w_mod.dim
    rows = []
    for a_v, a_w in ((v_mod.X, w_mod.X), (v_mod.Y, w_mod.Y)):
        for i in range(m):
            for j in range(n):
                row = [F(0)] * (m * n)
                for s in range(n):
                    row[i * n + s] += a_v[s, j]
                for r in range(m):
                    row[r * n + j] -= a_w[i, r]
                rows.append(row)
    return Matrix(rows)


@st.composite
def operator_pairs(draw):
    """Two operator pairs of sizes n, m <= 4 of one kind: small integer,
    triangular with Jordan-type superdiagonals, diagonal, a Y with a
    non-split spectrum, or W a unimodular conjugate of V."""
    kind = draw(st.sampled_from(["integer", "triangular", "diagonal", "nonsplit", "conjugate"]))
    n = draw(st.integers(1, 4))
    m = n if kind == "conjugate" else draw(st.integers(1, 4))
    ints = st.integers(-2, 2)

    def mat(k, shape):
        cells = {"integer": lambda i, j: draw(ints),
                 "triangular": lambda i, j: draw(ints) if i == j else
                 draw(st.integers(0, 1)) if j == i + 1 else 0,
                 "diagonal": lambda i, j: draw(st.integers(-1, 1)) if i == j else 0}[shape]
        return Matrix([[cells(i, j) for j in range(k)] for i in range(k)])

    shape = {"conjugate": "triangular", "nonsplit": "diagonal"}.get(kind, kind)

    def pair(k):
        y = mat(k, shape)
        if kind == "nonsplit" and k >= 2:
            # a rotation block: x^2 + 1 has no rational root
            y = Matrix([[0, -1] + [0] * (k - 2), [1, 0] + [0] * (k - 2)]
                       + [list(r) for r in y.rows[2:]])
        return BIModule(mat(k, shape), y, F(0), F(0), F(0))

    v = pair(n)
    if kind == "conjugate":
        low = Matrix([[1 if i == j else draw(st.integers(-1, 1)) if j < i else 0
                       for j in range(n)] for i in range(n)])
        up = Matrix([[1 if i == j else draw(st.integers(-1, 1)) if j > i else 0
                      for j in range(n)] for i in range(n)])
        return v, conjugate(v, low * up)
    return v, pair(m)


_ROTATION = BIModule(Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
                     Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 1]]), F(0), F(0), F(0))
_STRETCH = BIModule(Matrix([[0, 0, 0], [3, 0, 0], [0, 0, 0]]),
                    Matrix.diagonal([0, 0, 1]), F(0), F(0), F(0))


@given(operator_pairs())
@settings(max_examples=150, deadline=None)
# a non-split Y: unit-vector seeds, e_2 inside the spin of e_1
@example((_ROTATION, conjugate(_ROTATION, Matrix([[1, 1, 0], [0, 1, 0], [1, 0, 1]]))))
# the eigenvector e_2 is inside the spin of e_1 over Q (skipped), not mod 3
@example((_STRETCH, _STRETCH))
def test_intertwiner_space_matches_dense_system(pair):
    v, w = pair
    n, m = v.dim, w.dim
    expected = tuple(Matrix([k[r * n:(r + 1) * n] for r in range(m)])
                     for k in kernel_basis(_dense_hom_system(v, w)))
    assert intertwiner_space(v, w) == expected
    # a bad prime undercounts the seeds' rank, which only adds seeds
    with mock.patch.object(exactlinalg, "_PRIME", 3):
        assert intertwiner_space(v, w) == expected


def _direct_sum_pair(d: int) -> tuple[BIModule, BIModule]:
    """V + V and P (V + V') P^-1, V = E_d(1/3, 2/7, 5/11), V' its a-flip
    partner, P = (I + N^T)(I - N) for the shift N: an isomorphic pair with
    a 4-dimensional Hom."""
    a, b, c = F(1, 3), F(2, 7), F(5, 11)
    v, flip = even_module(d, a, b, c), even_module(d, -a, b, c)
    n = 2 * (d + 1)
    shift = Matrix([[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])
    p = (Matrix.identity(n) + shift.T) * (Matrix.identity(n) - shift)
    return direct_sum(v, v), conjugate(direct_sum(v, flip), p)


def test_intertwiner_work_is_bounded(monkeypatch):
    # one graph spin per Hom, its seeds picked mod p, not the dense 2nm x nm
    # system (720 eliminated rows for this pair at 2n = 16)
    calls, spins = [], []
    real_add, real_spin = RrefAccumulator.add, classify.spin

    def counting_add(self, v):
        calls.append(len(v))
        return real_add(self, v)

    v, w = _direct_sum_pair(7)
    monkeypatch.setattr(RrefAccumulator, "add", counting_add)
    monkeypatch.setattr(classify, "spin", lambda *a: spins.append(a) or real_spin(*a))
    ok, t = are_isomorphic(v, w)
    eliminated = len(calls)
    assert ok and t.rank() == 16
    assert len(spins) == 1 and eliminated <= 140


def test_certificates_build_no_products(monkeypatch):
    # certify_intertwiner compares T X_V with X_W T row by row over integers,
    # so neither the ladder map nor the isomorphism certificate builds a
    # Fraction product (four n x n products each at the parent of this check)
    real_certify, real_mul = classify.certify_intertwiner, Matrix.__mul__
    certified, inside, products = [], [], []

    def watched(t, v, w, what):
        certified.append(what)
        inside.append(what)
        try:
            return real_certify(t, v, w, what)
        finally:
            inside.pop()

    def counting_mul(self, other):
        if inside:
            products.append(other)
        return real_mul(self, other)

    a, b, c = F(1, 3), F(2, 7), F(5, 11)
    v, flip = even_module(31, a, b, c), even_module(31, -a, b, c)
    for module in (classify, universal):
        monkeypatch.setattr(module, "certify_intertwiner", watched)
    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    t = ladder_map(EvenParams(31, -a, b, c), v, Matrix.identity(32).rows[0])
    ok, s = are_isomorphic(v, flip)
    assert ok and t.rank() == s.rank() == 32
    assert certified == ["ladder map", "intertwiner-space element"] and products == []


def test_a_bad_prime_is_skipped(monkeypatch):
    # mod 2 many full spins and the rank of T = P read "not shown" (det P = -2),
    # and each falls back to the exact engine: the same verdicts, witnesses,
    # details, intertwiners and classes as at the real prime
    calls = []
    real_spin, real_rank = classify.spin, Matrix.rank
    monkeypatch.setattr(classify, "spin", lambda *a: calls.append("spin") or real_spin(*a))
    monkeypatch.setattr(Matrix, "rank", lambda m: calls.append("rank") or real_rank(m))
    a, b, c = F(1, 3), F(2, 7), F(5, 11)
    mods = [example_even(), example_odd(), even_module(3, 0, F(1, 2), F(1, 2)),
            even_module(5, 0, F(-1, 2), F(1, 2)),
            conjugate(even_module(5, a, b, c), _unimodular(6, random.Random(1))),
            direct_sum(even_module(3, a, b, c), even_module(3, a, b, c))]

    def answers():
        out = []
        for v in mods:
            p = Matrix.block_diag(Matrix([[1, 1], [1, -1]]), Matrix.identity(v.dim - 2))
            out += [oracle_irreducible(v), are_isomorphic(v, conjugate(v, p))]
            try:
                out.append(identify(v))
            except IdentificationFailed as exc:
                out.append(str(exc))
        return out

    expected = answers()
    exact, calls[:] = sorted(calls), []
    monkeypatch.setattr(exactlinalg, "_PRIME", 2)
    assert answers() == expected
    assert all(calls.count(f) > exact.count(f) for f in ("spin", "rank"))


def test_certificates_checked_under_python_O():
    # assert statements vanish under -O; the guarantees must not
    script = textwrap.dedent("""
        import bannai_ito.classify as cls
        from bannai_ito import CertificateError, IdentificationFailed, even_module
        assert False, "assert statements must be stripped"
        try:
            cls.identify(even_module(1, 1, 0, 1), assume_irreducible=True)
        except IdentificationFailed as exc:
            print("identify:", exc)
        cls.verify_invariant_subspace = lambda v_mod, basis: False
        try:
            cls.oracle_irreducible(even_module(1, 0, 0, 0))
        except CertificateError as exc:
            print("oracle:", exc)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [
        "identify: the invariants name a reducible even point",
        "oracle: spin of an eigenvector in the kernel of Y - (-1/2) is not a submodule",
    ]


def test_invariants_of_examples():
    inv = invariants(example_even())
    assert (inv.trace_x, inv.trace_y) == (F(-2), F(-2))
    assert (inv.kappa, inv.lam, inv.mu) == (F(4), F(4), F(2))
    inv_o = invariants(example_odd())
    assert (inv_o.trace_x, inv_o.trace_y) == (F(3, 2), F(1, 2))
    assert (inv_o.kappa, inv_o.lam, inv_o.mu) == (F(4), F(-8), F(-4))


# --- identification ----------------------------------------------------------

def test_identify_example_even():
    coords = identify(example_even())
    assert coords == ClassCoordinates("even", 3, TwistSign(1, 1), (F(1), F(0), F(1)))


def test_identify_example_odd():
    coords = identify(example_odd())
    assert coords == ClassCoordinates("odd", 4, None, (F(3, 2), F(1, 2), F(-1, 2)))


def test_identify_round_trip_with_twists():
    base = even_module(3, 1, 0, 1)
    for sign in (TwistSign(1, 1), TwistSign(1, -1), TwistSign(-1, 1), TwistSign(-1, -1)):
        coords = identify(twist(base, sign), assume_irreducible=True)
        assert coords.family == "even"
        assert coords.twist == sign
        assert coords.params == (F(1), F(0), F(1))


def test_identify_computes_no_spectrum_of_a_conjugate(monkeypatch):
    # the invariants name theta*_0, whose kernel line is the oracle's Norton
    # element and the ladder map's seed, so the conjugate's dense Y never
    # needs a spectrum
    calls = []

    def counting_rational_spectrum(m):
        calls.append(m.is_upper_triangular() or m.is_lower_triangular())
        return rational_spectrum(m)

    mod = conjugate(even_module(3, F(1, 3), F(2, 7), F(5, 11)), _P4)
    expected = ClassCoordinates("even", 3, TwistSign(1, 1), (F(1, 3), F(2, 7), F(5, 11)))
    monkeypatch.setattr(classify, "rational_spectrum", counting_rational_spectrum)
    assert identify(mod, assume_irreducible=True) == expected
    assert calls.count(False) == 0
    calls.clear()
    assert identify(mod) == expected
    assert calls.count(False) == 0


def test_identify_recovers_orbit_representative():
    coords = identify(even_module(3, -1, F(1, 2), -2))
    assert coords.twist == TwistSign(1, 1)
    assert coords.params == (F(1), F(1, 2), F(2))


def test_identify_odd_is_exact():
    coords = identify(odd_module(2, 1, F(-1, 2), F(3, 2)))
    assert coords == ClassCoordinates("odd", 2, None, (F(1), F(-1, 2), F(3, 2)))


def test_identify_rejects_reducible():
    with pytest.raises(IdentificationFailed):
        identify(even_module(1, 0, 0, 0))


def test_identify_not_rational_family():
    # irreducible pair with the even-family traces (-1, -1) whose fabricated
    # central scalars make the squared parameters irrational: n^2/4 - (kappa + mu)/2 = 1/2
    x = Matrix([["-1/2", 0], [1, "-1/2"]])
    y = Matrix([["-1/2", 1], [0, "-1/2"]])
    mod = BIModule(x, y, kappa=F(0), lam=F(0), mu=F(1))
    with pytest.raises(NotRationalFamily):
        identify(mod)
    # traces (0, 0) are not the +-n/2 of any even-family module: no square roots are taken
    x = Matrix([[0, 1], [1, 0]])
    y = Matrix([[1, 1], [0, -1]])
    mod = BIModule(x, y, kappa=F(0), lam=F(3), mu=F(1, 3))
    with pytest.raises(IdentificationFailed):
        identify(mod)


def test_identify_failure_outside_family():
    # traces (-1, -1) and square roots a = b = c = 1 all exist here, but X has a
    # Jordan block, so no intertwiner to the even-family module E_1(1, 1, 1) exists
    x = Matrix([["-1/2", 0], [1, "-1/2"]])
    y = Matrix([["-1/2", 1], [0, "-1/2"]])
    mod = BIModule(x, y, kappa=F(0), lam=F(0), mu=F(0))
    with pytest.raises(IdentificationFailed, match="no invertible intertwiner"):
        identify(mod)


def test_identify_direct_sum_names_an_irreducible_point():
    # E_1(1, 1, 1) + E_1(1, 1, 1) has the traces and central scalars of the
    # irreducible E_3(2, 2, 2), but a 2-dimensional ker(Y - theta*_0)
    s = direct_sum(even_module(1, 1, 1, 1), even_module(1, 1, 1, 1))
    assert classify._named_point(invariants(s), 4) == (EvenParams(3, 2, 2, 2), TwistSign(1, 1))
    with pytest.raises(IdentificationFailed) as exc:
        identify(s, assume_irreducible=True)
    assert str(exc.value) == "no invertible intertwiner to the even family"


@pytest.mark.parametrize("sign", ALL_TWISTS, ids=lambda s: f"{s.eps},{s.eps_prime}")
def test_identify_rejects_a_reducible_named_point_before_mapping(monkeypatch, sign):
    # twists of E_1(-1, 0, -1) name the reducible point E_1(1, 0, 1), to which
    # they are isomorphic; the criterion rejects it before any map is built
    def forbidden(*args):
        raise AssertionError("family map built at a reducible point")

    monkeypatch.setattr(classify, "_family_map", forbidden)
    with pytest.raises(IdentificationFailed) as exc:
        identify(twist(even_module(1, -1, 0, -1), sign), assume_irreducible=True)
    assert str(exc.value) == "the invariants name a reducible even point"


def test_identify_failed_ladder_walk():
    # the invariants name the irreducible E_1(1, 1, 1) and ker(Y - 1/2) is a
    # line, but its vector fails the second-order premise: no map, so no class
    x = Matrix([["-1/2", 0], [1, "-1/2"]])
    y = Matrix([["1/2", 1], [0, "-3/2"]])
    mod = BIModule(x, y, kappa=F(0), lam=F(0), mu=F(0))
    p, sign = classify._named_point(invariants(mod), 2)
    assert (p, sign) == (EvenParams(1, 1, 1, 1), TwistSign(1, 1))
    kernel = kernel_basis(y - F(1, 2) * Matrix.identity(2))
    assert len(kernel) == 1
    with pytest.raises(PremiseViolated) as exc:
        ladder_map(p, mod, kernel[0])
    assert exc.value.premise == "second_order"
    assert classify._family_map(p, mod) is None
    with pytest.raises(IdentificationFailed) as exc:
        identify(mod, assume_irreducible=True)
    assert str(exc.value) == "no invertible intertwiner to the even family"


def test_family_maps_make_no_hom_search(monkeypatch):
    # identify, also on a twisted odd module, and the a-flip basis each come
    # from one ladder map, never from the general intertwiner search
    def forbidden(*args, **kwargs):
        raise AssertionError("general Hom search called")

    for name in ("are_isomorphic", "_hom", "intertwiner_space"):
        monkeypatch.setattr(classify, name, forbidden)
    mod = conjugate(even_module(3, F(1, 3), F(-2, 7), F(5, 11)), _P4)
    assert identify(twist(mod, TwistSign(-1, 1))) == ClassCoordinates(
        "even", 3, TwistSign(-1, 1), (F(1, 3), F(2, 7), F(5, 11)))
    assert identify(example_odd()).family == "odd"
    assert _a_flip_basis(3, 1, 0, 1).is_upper_triangular()
    assert identify(twist(example_odd(), TwistSign(-1, -1))).family == "odd"


def test_orbit_canonical():
    assert orbit_canonical(F(-1), F(1, 2), F(-2)) == (F(1), F(1, 2), F(2))
    assert orbit_canonical(0, -3, 1) == (F(0), F(3), F(1))


# --- odd-family twist collapse -------------------------------------------------

def test_identify_odd_twist_pinned_targets():
    v = odd_module(4, F(3, 2), F(1, 2), F(-1, 2))
    for sign, target in ((TwistSign(1, -1), (F(3, 2), F(-1, 2), F(1, 2))),
                         (TwistSign(-1, 1), (F(-3, 2), F(1, 2), F(1, 2))),
                         (TwistSign(-1, -1), (F(-3, 2), F(-1, 2), F(-1, 2)))):
        assert identify(twist(v, sign)) == ClassCoordinates("odd", 4, None, target)


@pytest.mark.parametrize("d", ODD_DIMS)
def test_identify_collapses_odd_twists(d):
    # the twist by (e, e') of an irreducible O_d(a, b, c) is O_d(e a, e' b, e e' c)
    points = [key for key in grid_points((d,)) if criterion_odd(*key)][::3]
    for (_, a, b, c), s in itertools.product(points, ALL_TWISTS[1:]):
        target = (s.eps * a, s.eps_prime * b, s.eps * s.eps_prime * c)
        assert identify(twist(odd_module(d, a, b, c), s), assume_irreducible=True) == \
            ClassCoordinates("odd", d, None, target)


# --- randomized round trips ----------------------------------------------------

@given(a=small, b=small, c=small)
@settings(max_examples=20, deadline=None)
def test_flip_isomorphism_property(a, b, c):
    if not criterion_even(3, a, b, c):
        return
    base = even_module(3, a, b, c)
    ok, t = are_isomorphic(base, even_module(3, -a, b, c))
    assert ok and t.rank() == 4


@given(a=small, b=small, c=small)
@settings(max_examples=15, deadline=None)
def test_identify_round_trip_property(a, b, c):
    if not criterion_even(3, a, b, c):
        return
    coords = identify(even_module(3, a, b, c), assume_irreducible=True)
    assert coords.family == "even" and coords.d == 3
    assert coords.twist == TwistSign(1, 1)
    assert coords.params == orbit_canonical(a, b, c)


@given(a=small, b=small, c=small)
@settings(max_examples=15, deadline=None)
def test_identify_odd_round_trip_property(a, b, c):
    if not criterion_odd(2, a, b, c):
        return
    coords = identify(odd_module(2, a, b, c), assume_irreducible=True)
    assert coords == ClassCoordinates("odd", 2, None, (F(a), F(b), F(c)))


_GRID = (F(0), F(1, 2), F(-1, 2), F(1), F(-1), F(-3, 2), F(2, 7))


@given(family_d=st.sampled_from([("even", 1), ("even", 3), ("odd", 0), ("odd", 2), ("odd", 4)]),
       a=st.sampled_from(_GRID), b=st.sampled_from(_GRID), c=st.sampled_from(_GRID),
       sign=st.sampled_from(ALL_TWISTS), seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_conjugated_family_points_property(family_d, a, b, c, sign, seed):
    # a seeded unimodular conjugate of a twisted family point: the oracle
    # agrees with the criterion, identify recovers the coordinates and, at
    # irreducible points, are_isomorphic certifies a second conjugate; a
    # spectrum of a non-triangular matrix is computed only when the kernel
    # of Y - eps' theta*_0 at the named point is not a line
    family, d = family_d
    even = family == "even"
    base = (even_module if even else odd_module)(d, a, b, c)
    v = twist(base, sign)
    n = v.dim
    mod = conjugate(v, _unimodular(n, random.Random(seed)))
    if even:
        named = EvenParams(d, *orbit_canonical(a, b, c))
        theta = sign.eps_prime * named.theta_star(0)
        expected = ClassCoordinates("even", d, sign, named.coords)
    else:
        e, ep = sign.eps, sign.eps_prime
        named = OddParams(d, e * a, ep * b, e * ep * c)
        theta = named.theta_star(0)
        expected = ClassCoordinates("odd", d, None, named.coords)
    line = len(kernel_basis(mod.Y - theta * Matrix.identity(n))) == 1
    dense = []
    real_spectrum = classify.rational_spectrum

    def counting_spectrum(m):
        dense.append(not (m.is_upper_triangular() or m.is_lower_triangular()))
        return real_spectrum(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "rational_spectrum", counting_spectrum)
        verdict = oracle_irreducible(mod)
        holds = (criterion_even if even else criterion_odd)(d, a, b, c)
        assert verdict.status == ("irreducible" if holds else "reducible")
        if verdict.is_reducible:
            assert verify_invariant_subspace(mod, verdict.witness)
        else:
            assert identify(mod, assume_irreducible=True) == expected
            other = conjugate(v, _unimodular(n, random.Random(seed + 1)))
            ok, t = are_isomorphic(mod, other)
            assert ok and t.rank() == n
            assert (t * mod.X, t * mod.Y) == (other.X * t, other.Y * t)
            assert not any(dense)
    assert not any(dense) or not line
