"""Tests for the truncated Verma-type module, its quotients and the ladder map."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bannai_ito.bimodule import BIModule, CertificateError, EvenParams, OddParams, \
    check_relations, even_module, example_even, odd_module
from bannai_ito.exactlinalg import Matrix
from bannai_ito.universal import (
    AnnihilatorFails,
    PremiseViolated,
    interior_relation_check,
    ladder_map,
    ladder_vector,
    truncated_verma,
    verma_quotient_check,
)

from conftest import ODD_DIMS, grid_points

F = Fraction

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def test_truncation_shape_and_interior():
    tv = truncated_verma("7/3", "1/2", 0, 1, 6)
    assert tv.X.shape == (6, 6) and tv.Y.shape == (6, 6)
    assert tv.interior == range(0, 4)
    assert tv.X[3, 2] == 1 and tv.X[3, 3] == tv.table.theta(3)
    assert tv.Y[2, 3] == tv.table.phi_upper(3)
    with pytest.raises(ValueError):
        truncated_verma(1, 0, 0, 0, 2)


def test_interior_relations_generic_delta():
    # delta need not be an integer; relations still hold away from the boundary
    for delta in (F(7, 3), F(-1, 2), F(4)):
        tv = truncated_verma(delta, "1/2", "-1/3", 2, 7)
        rep = interior_relation_check(tv)
        assert rep.interior_ok
        # the very last column is genuinely broken (the truncation is visible)
        assert not (rep.lambda_ok[6] and rep.mu_ok[6])


def test_ladder_vector_identity():
    tv = truncated_verma(3, 1, 0, 1, 8)
    for i in range(0, 6):
        for j in range(i, 7):
            v = ladder_vector(tv, i, j)
            assert v == tuple(F(1) if k == j + 1 else F(0) for k in range(8))
    with pytest.raises(ValueError):
        ladder_vector(tv, 0, 7)
    with pytest.raises(ValueError):
        ladder_vector(tv, 3, 2)


def test_descend_identity_on_ladder_head():
    v_mod = example_even()
    t = ladder_map(EvenParams(3, 1, 0, 1), v_mod, (1, 0, 0, 0))
    assert t == Matrix.identity(4)


def test_descend_reducible_gives_singular_intertwiner():
    v_mod = even_module(1, 0, 0, 0)
    t = ladder_map(EvenParams(1, 0, 0, 0), v_mod, (0, 1))
    assert t == Matrix([[0, 0], [1, 0]])
    assert t.rank() == 1  # non-invertible: the target vector generates a proper piece
    assert t * v_mod.X == v_mod.X * t
    assert t * v_mod.Y == v_mod.Y * t


def test_descend_annihilator_fails():
    # with (delta, a, b, c) = (1, 0, 0, 2) the ladder only closes at length 3
    # (phi_2 = 0 and phi_3 = 0), so the 3-dimensional quotient W of the Verma
    # module is a genuine module in which the depth-2 annihilator fails
    tv = truncated_verma(1, 0, 0, 2, 3)
    w = BIModule(tv.X, tv.Y, tv.kappa, tv.lam, tv.mu)
    assert check_relations(w).ok  # truncation is exact here because phi_3 = 0
    with pytest.raises(AnnihilatorFails):
        ladder_map(EvenParams(1, 0, 0, 2), w, (1, 0, 0))
    # W is the odd family module O_2(1/2, 1/2, -3/2), whose ladder map closes
    assert ladder_map(OddParams(2, "1/2", "1/2", "-3/2"), w, (1, 0, 0)) == Matrix.identity(3)


def test_quotient_check_fixed():
    rep = verma_quotient_check(EvenParams(3, 1, 0, 1))
    assert rep.superdiagonal_vanishes and rep.tail_invariant and rep.head_matches
    assert rep.ok
    with pytest.raises(ValueError):
        verma_quotient_check(EvenParams(3, 1, 0, 1), n=5)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 3, 5]), rationals, rationals, rationals)
def test_quotient_check_random(d, a, b, c):
    assert verma_quotient_check(EvenParams(d, a, b, c)).ok


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([0, 2, 4]), rationals, rationals, rationals)
def test_quotient_check_random_odd(d, a, b, c):
    assert verma_quotient_check(OddParams(d, a, b, c)).ok


def test_quotient_check_odd_grid():
    # the odd family is cut at the odd index d + 1 of its reparametrized table
    assert all(verma_quotient_check(OddParams(*key)).ok for key in grid_points(ODD_DIMS))


@settings(max_examples=20, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_interior_relations_random(delta, a, b, c):
    tv = truncated_verma(delta, a, b, c, 6)
    assert interior_relation_check(tv).interior_ok


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 3]), rationals, rationals, rationals)
def test_descend_onto_built_module(d, a, b, c):
    # v_0 of the built module always satisfies the premises; the descent map
    # from the matching parameters is the identity
    v_mod = even_module(d, a, b, c)
    seed = tuple(F(1) if i == 0 else F(0) for i in range(d + 1))
    t = ladder_map(EvenParams(d, a, b, c), v_mod, seed)
    assert t == Matrix.identity(d + 1)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([0, 2, 4]), rationals, rationals, rationals)
def test_ladder_map_onto_built_odd_module(d, a, b, c):
    # the odd family's ladder map is the same walk with the odd table
    seed = tuple(F(1) if i == 0 else F(0) for i in range(d + 1))
    assert ladder_map(OddParams(d, a, b, c), odd_module(d, a, b, c), seed) == Matrix.identity(d + 1)


def test_ladder_map_wrong_seed_names_premise():
    # e_1 is not a Y-eigenvector of E_1(1, 1, 1): the walk does not close
    with pytest.raises(PremiseViolated) as exc:
        ladder_map(EvenParams(1, 1, 1, 1), even_module(1, 1, 1, 1), (0, 1))
    assert exc.value.premise == "highest_weight"
    # same (theta*, theta) data but a different phi_1
    with pytest.raises(PremiseViolated) as exc:
        ladder_map(EvenParams(1, 1, 1, 1), even_module(1, 1, 1, 0), (1, 0))
    assert exc.value.premise == "second_order"


def test_universal_map_premise_central_scalars():
    # the universal map out of the family module is ladder_map; 1-dimensional
    # modules tuned so the first two premises pass while a central scalar
    # disagrees with the table for (delta, a, b, c) = (1, 1, 1, 1)
    bad_kappa = odd_module(0, -1, "1/2", 5)
    with pytest.raises(PremiseViolated) as exc:
        ladder_map(EvenParams(1, 1, 1, 1), bad_kappa, (1,))
    assert exc.value.premise == "kappa"
    bad_mu = odd_module(0, -1, "1/2", -1)
    with pytest.raises(PremiseViolated) as exc:
        ladder_map(EvenParams(1, 1, 1, 1), bad_mu, (1,))
    assert exc.value.premise == "mu"
    # an unknown premise name is a caller error, also under python -O
    with pytest.raises(ValueError, match="unknown premise 'lambda_'"):
        PremiseViolated("lambda_")


def test_ladder_map_premise_past_the_digit_limit():
    # c = 10**4400 makes kappa too long for str(): the premise is still named
    with pytest.raises(PremiseViolated) as exc:
        ladder_map(EvenParams(1, 1, 1, 1), odd_module(0, -1, F(1, 2), 10**4400), (1,))
    assert exc.value.premise == "kappa"


def test_ladder_map_failure_with_premises_met_is_a_library_bug(monkeypatch):
    # every premise holds, so a map that does not intertwine is a bug
    real_module = EvenParams.module

    def perturbed(self):
        e = real_module(self)
        return BIModule(e.X, e.Y + Matrix.identity(e.dim), e.kappa, e.lam, e.mu)

    monkeypatch.setattr(EvenParams, "module", perturbed)
    with pytest.raises(CertificateError, match=r"^ladder map fails to intertwine \(library bug\)$"):
        ladder_map(EvenParams(3, 1, 0, 1), example_even(), (1, 0, 0, 0))
