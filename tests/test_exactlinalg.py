"""Tests for the exact linear algebra kernel.

The characteristic polynomial has an independent oracle here (recursive
cofactor expansion over polynomial entries) so the library's
Faddeev-LeVerrier path is cross-checked rather than self-certified.  Row
reduction has one too: a textbook column-by-column Gauss-Jordan, against
which the library's incremental rref engine is compared.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from bannai_ito import exactlinalg
from bannai_ito.exactlinalg import (
    Matrix,
    Poly,
    Roots,
    RrefAccumulator,
    anticommutator,
    char_poly,
    is_squarefree,
    kernel_basis,
    min_poly,
    products_equal,
    rank_mod_p,
    rat,
    rational_roots,
    rational_spectrum,
    rref,
    shifted_walk,
    spin,
    vec,
)

F = Fraction


# --- independent oracle -----------------------------------------------------

def poly_det(rows):
    """Determinant of a matrix of Poly entries by first-column expansion."""
    if len(rows) == 1:
        return rows[0][0]
    acc = Poly(())
    for i, row in enumerate(rows):
        if row[0].is_zero:
            continue
        minor = [r[1:] for k, r in enumerate(rows) if k != i]
        term = row[0] * poly_det(minor)
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def char_poly_cofactor(m):
    """det(xI - m) the slow, independent way."""
    n = m.nrows
    ent = [[Poly((-m[i, j], 1)) if i == j else Poly((-m[i, j],))
            for j in range(n)] for i in range(n)]
    return poly_det(ent)


def gauss_jordan(rows):
    """Textbook Gauss-Jordan: (rref rows, pivot columns).  For each column in
    turn, swap the topmost usable nonzero row up, scale it to 1 and clear the
    column in every other row."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [a / rows[r][c] for a in rows[r]]
        for i in range(len(rows)):
            if i != r:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def det_cofactor(rows):
    """Determinant by first-column cofactor expansion (constant Poly entries)."""
    p = poly_det([[Poly((x,)) for x in row] for row in rows])
    return p.coeffs[0] if p.coeffs else F(0)


def inverse_oracle(m):
    """Right half of the Gauss-Jordan form of [m | I], or None if m is singular."""
    n = m.nrows
    eye = Matrix.identity(n).rows
    rows, pivots = gauss_jordan([r + e for r, e in zip(m.rows, eye)])
    return Matrix([r[n:] for r in rows]) if pivots == list(range(n)) else None


def textbook_product(a, b):
    return [[sum((a[i, j] * b[j, k] for j in range(a.ncols)), F(0)) for k in range(b.ncols)]
            for i in range(a.nrows)]


def kernel_oracle(m):
    rows, pivots = gauss_jordan(m.rows)
    basis = []
    for free in (j for j in range(m.ncols) if j not in pivots):
        v = [F(0)] * m.ncols
        v[free] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(tuple(v))
    return tuple(basis)


def spin_oracle(seeds, operators):
    """Rref of the smallest invariant subspace containing the seeds, the naive
    way: apply every operator to every basis vector with textbook Fraction
    sums until Gauss-Jordan finds no new pivot."""
    basis = [tuple(F(x) for x in v) for v in seeds]
    rank = -1
    while basis:
        rows, pivots = gauss_jordan(basis)
        if len(pivots) == rank:
            return tuple(tuple(r) for r in rows[:rank])
        rank, basis = len(pivots), rows[:len(pivots)]
        basis += [tuple(sum((op[i, j] * b[j] for j in range(op.ncols)), F(0))
                        for i in range(op.nrows)) for op in operators for b in basis]
    return ()


def min_poly_oracle(m):
    """First linear dependence among I, m, m^2, ... as a monic polynomial."""
    powers = [Matrix.identity(m.nrows)]
    while True:
        powers.append(powers[-1] * m)
        flat = [[x for row in p.rows for x in row] for p in powers]
        rows, pivots = gauss_jordan([list(col) for col in zip(*flat)])
        k = len(powers) - 1
        if k not in pivots:  # m^k depends on the lower powers, which pivot at 0..k-1
            return Poly(tuple(-rows[j][k] for j in range(k)) + (1,))


# --- strategies ---------------------------------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


# small rationals mixed with numerators and denominators of up to 10 digits
mixed_heights = st.one_of(
    rationals, st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**10))

# which entries (i, j) an operand of each shape may hold nonzero
SHAPES = {
    "dense": lambda i, j: True,
    "upper bidiagonal": lambda i, j: j - i in (0, 1),
    "lower bidiagonal": lambda i, j: i - j in (0, 1),
    "tridiagonal": lambda i, j: abs(i - j) <= 1,
    "zero": lambda i, j: False,
}


def shaped_matrices(nrows, ncols):
    def build(case):
        shape, entries = case
        return Matrix([[entries[i][j] if SHAPES[shape](i, j) else 0 for j in range(ncols)]
                       for i in range(nrows)])
    return st.tuples(
        st.sampled_from(sorted(SHAPES)),
        st.lists(st.lists(mixed_heights, min_size=ncols, max_size=ncols),
                 min_size=nrows, max_size=nrows),
    ).map(build)


@st.composite
def product_operands(draw, max_n=5):
    """(a, b, v): an r x k and a k x c operand of independently drawn shapes,
    and a vector of length c."""
    r, k, c = (draw(st.integers(min_value=1, max_value=max_n)) for _ in range(3))
    return (draw(shaped_matrices(r, k)), draw(shaped_matrices(k, c)),
            tuple(draw(st.lists(mixed_heights, min_size=c, max_size=c))))


@st.composite
def spanning_rows(draw, max_n=5):
    """(ncols, rows): independent-looking rows of mixed heights, shuffled
    together with combinations of them (already in their span) and zero rows."""
    ncols = draw(st.integers(min_value=1, max_value=max_n))
    row = st.lists(mixed_heights, min_size=ncols, max_size=ncols).map(tuple)
    base = draw(st.lists(row, min_size=1, max_size=max_n))
    combos = [tuple(sum((cf * r[j] for cf, r in zip(cfs, base)), F(0)) for j in range(ncols))
              for cfs in draw(st.lists(st.lists(mixed_heights, min_size=len(base),
                                                max_size=len(base)), max_size=3))]
    zeros = [(F(0),) * ncols] * draw(st.integers(min_value=0, max_value=2))
    return ncols, draw(st.permutations(base + combos + zeros))


@st.composite
def spin_cases(draw, max_n=4):
    """(seeds, operators): one or two n x n operators of independently drawn
    shapes (the zero operator among them), and seeds drawn with repetition
    from a pool of vectors and the zero vector, sometimes followed by the
    unit vectors, which already span the space."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    operators = draw(st.lists(shaped_matrices(n, n), min_size=1, max_size=2))
    pool = draw(st.lists(st.lists(mixed_heights, min_size=n, max_size=n).map(tuple),
                         min_size=1, max_size=2))
    seeds = draw(st.lists(st.sampled_from(pool + [(F(0),) * n]), max_size=4))
    if draw(st.booleans()):
        seeds += Matrix.identity(n).rows
    return seeds, operators


def square_matrices(max_n=4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n),
            min_size=n, max_size=n,
        ).map(Matrix))


def product_matrices(max_n=5, square=False):
    """Tall, wide and square r x c matrices (r = c if `square`), built as a
    product of r x k and k x c factors so that rank deficiency (k < min(r, c))
    is common."""
    def product(r, c, k):
        return st.tuples(
            st.lists(st.lists(rationals, min_size=k, max_size=k), min_size=r, max_size=r),
            st.lists(st.lists(rationals, min_size=c, max_size=c), min_size=k, max_size=k),
        ).map(lambda bc: Matrix(bc[0]) * Matrix(bc[1]))
    size = st.integers(min_value=1, max_value=max_n)
    shapes = st.tuples(size, size, size)
    if square:
        shapes = shapes.map(lambda rck: (rck[0], rck[0], rck[2]))
    return shapes.flatmap(lambda rck: product(*rck))


# fixed 4x4 examples: the upper-bidiagonal and lower-bidiagonal shapes the
# module constructors produce, frozen here as plain matrices
X4 = Matrix([
    ["-1/2", 0, 0, 0],
    [1, "-1/2", 0, 0],
    [0, 1, "3/2", 0],
    [0, 0, 1, "-5/2"],
])
Y4 = Matrix([
    ["-3/2", 1, 0, 0],
    [0, "1/2", 4, 0],
    [0, 0, "1/2", -3],
    [0, 0, 0, "-3/2"],
])


def test_rational_contract():
    # lowest terms, positive denominator, exact field ops
    assert F(2, 4) == F(1, 2)
    assert F(1, -2).denominator == 2 and F(1, -2).numerator == -1
    assert F(1, 3) + F(1, 6) == F(1, 2)
    assert F(1, 10) * 10 == 1
    assert str(F(-3, 2)) == "-3/2" and str(F(4)) == "4"


def test_matrix_basic_ops():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a + b == Matrix([[1, 3], [4, 4]])
    assert a - a == Matrix.zero(2)
    assert a * b == Matrix([[2, 1], [4, 3]])
    assert b * a == Matrix([[3, 4], [1, 2]])
    assert 2 * a == Matrix([[2, 4], [6, 8]])
    assert a.T == Matrix([[1, 3], [2, 4]])
    assert a.trace() == 5
    assert a.matvec((1, 0)) == (F(1), F(3))
    assert Matrix.identity(2) * a == a
    with pytest.raises(ValueError):
        a * Matrix([[1, 2, 3]])


def test_anticommutator_2x2():
    # frozen by hand: XY = [[1/4, -3/2], [1/2, -3/4]],
    # YX = [[-11/4, 9/2], [-3/2, 9/4]], sum below
    x = Matrix([["1/2", 0], [1, "-3/2"]])
    y = Matrix([["1/2", -3], [0, "-3/2"]])
    assert x * y == Matrix([["1/4", "-3/2"], ["1/2", "-3/4"]])
    assert y * x == Matrix([["-11/4", "9/2"], ["-3/2", "9/4"]])
    assert anticommutator(x, y) == Matrix([["-5/2", 3], [-1, "3/2"]])
    assert anticommutator(x, y) == anticommutator(y, x)


def test_rref_and_rank():
    m = Matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    red, rank = rref(m)
    assert rank == 2
    assert red == Matrix([[1, 0, -1], [0, 1, 2], [0, 0, 0]])
    # idempotent
    assert rref(red)[0] == red
    assert m.rank() == m.T.rank()


def test_kernel_example():
    # kernel of an upper-triangular matrix with two zero diagonal entries in
    # the same "chain": only one free direction survives
    m = Matrix([[-2, 1, 0, 0], [0, 0, 4, 0], [0, 0, 0, -3], [0, 0, 0, -2]])
    ker = kernel_basis(m)
    assert ker == ((F(1, 2), F(1), F(0), F(0)),)
    v = ker[0]
    assert m.matvec(v) == (F(0),) * 4
    # the kernel vector is proportional to (1, 2, 0, 0)
    assert vec((1, 2, 0, 0)) == tuple(2 * c for c in v)


def test_kernel_rank_nullity():
    m = Matrix([[1, 2], [2, 4]])
    ker = kernel_basis(m)
    assert len(ker) == 1
    assert m.matvec(ker[0]) == (F(0), F(0))


def test_char_poly_fixed():
    # frozen expectation: det(xI - Y4) = (x - 1/2)^2 (x + 3/2)^2,
    # cross-checked against the cofactor oracle
    expected = Poly.from_roots(["1/2", "1/2", "-3/2", "-3/2"])
    assert char_poly(Y4) == expected
    assert char_poly_cofactor(Y4) == expected
    assert char_poly(X4) == Poly.from_roots(["-1/2", "-1/2", "3/2", "-5/2"])
    assert char_poly_cofactor(X4) == char_poly(X4)


def test_char_poly_dense_matches_cofactor():
    m = Matrix([[1, 2, 0], [3, "1/2", 1], [-1, 0, 2]])
    assert char_poly(m) == char_poly_cofactor(m)


def test_min_poly_fixed():
    # X4 has a size-2 Jordan block at -1/2, so the factor stays squared
    assert min_poly(X4) == Poly.from_roots(["-1/2", "-1/2", "3/2", "-5/2"])
    assert min_poly(Y4) == Poly.from_roots(["1/2", "1/2", "-3/2", "-3/2"])
    assert min_poly(Matrix.identity(3)) == Poly((-1, 1))
    assert min_poly(Matrix.diagonal([1, 2])) == Poly.from_roots([1, 2])


def test_rational_roots_fixed():
    p = Poly.from_roots(["1/2", "1/2", "-3/2", "-3/2"])
    assert rational_roots(p) == Roots((F(-3, 2), F(-3, 2), F(1, 2), F(1, 2)), True)
    # x^2 - 2 has no rational roots
    assert rational_roots(Poly((-2, 0, 1))) == Roots((), False)
    # mixed: (x - 1)(x^2 - 2)
    mixed = Poly.from_roots([1]) * Poly((-2, 0, 1))
    assert rational_roots(mixed) == Roots((F(1),), False)
    # zero roots are found too
    assert rational_roots(Poly((0, 0, 1))) == Roots((F(0), F(0)), True)


def test_is_squarefree():
    assert is_squarefree(Poly.from_roots([1, 2, "1/2"]))
    assert not is_squarefree(Poly.from_roots([1, 1]))
    assert is_squarefree(Poly((1, 0, 1)))  # x^2 + 1
    assert not is_squarefree(Poly((1, 0, 1)) * Poly((1, 0, 1)))


def test_spin_proper_subspace():
    # lower bidiagonal X with equal diagonal, scalar Y: (0,1) spans an
    # invariant line
    x = Matrix([["-1/2", 0], [1, "-1/2"]])
    y = Matrix.diagonal(["-1/2", "-1/2"])
    basis = spin([(0, 1)], [x, y])
    assert basis == ((F(0), F(1)),)


def test_spin_full_space():
    x = Matrix([["-1/2", 0], [1, "-3/2"]])
    y = Matrix([["1/2", 1], [0, "-1/2"]])
    basis = spin([(1, 0)], [x, y])
    assert len(basis) == 2


def test_poly_str():
    assert str(Poly((-1, 0, 1))) == "x^2 - 1"
    assert str(Poly(("1/2", 1))) == "x + 1/2"
    assert str(Poly(())) == "0"


def test_matrix_det_and_inverse():
    m = Matrix([[1, 2], [3, "1/2"]])
    assert m.det() == F(1, 2) - 6
    inv = m.inverse()
    assert m * inv == Matrix.identity(2)
    with pytest.raises(ValueError):
        Matrix([[1, 1], [1, 1]]).inverse()


def test_accumulator_rejects_wrong_length():
    # as in Matrix.matvec: a vector of another width is an error, not a row
    acc = RrefAccumulator(2)
    with pytest.raises(ValueError, match="^vector length mismatch$"):
        acc.add((F(0), F(0), F(1)))
    assert len(acc) == 0 and acc.pivots == []
    acc = RrefAccumulator(3)
    acc.add((F(1), F(0), F(0)))
    with pytest.raises(ValueError, match="^vector length mismatch$"):
        acc.contains((F(1),))


@pytest.mark.parametrize("call", [
    lambda: Matrix([[1, 2], [3, 4]]).matvec((0.5, 1.0)),
    lambda: shifted_walk(Matrix([[1, 2], [3, 4]]), (0.5, 1), [1]),
    lambda: RrefAccumulator(2).add((0.5, 1)),
    lambda: RrefAccumulator(2).contains((1, 0.5)),
], ids=["matvec", "shifted_walk", "accumulator_add", "accumulator_contains"])
def test_floats_are_rejected(call):
    # a float entry would make the result inexact; it is refused like rat(0.5)
    with pytest.raises(TypeError, match=r"^not an exact rational: 0\.5$"):
        call()


_ROW = Matrix([[1, 2]])


@pytest.mark.parametrize("call,error,message", [
    (lambda: Matrix.identity(2) + _ROW, ValueError, r"shape mismatch \(2, 2\) vs \(1, 2\)"),
    (lambda: Matrix.identity(2) - _ROW, ValueError, r"shape mismatch \(2, 2\) vs \(1, 2\)"),
    (lambda: _ROW.matvec((1,)), ValueError, "vector length mismatch"),
    (lambda: _ROW.trace(), ValueError, "trace of non-square matrix"),
    (lambda: _ROW.det(), ValueError, "determinant of non-square matrix"),
    (lambda: _ROW.inverse(), ValueError, "inverse of non-square matrix"),
    (lambda: char_poly(_ROW), ValueError, "characteristic polynomial of non-square matrix"),
    (lambda: rational_spectrum(_ROW), ValueError, "spectrum of non-square matrix"),
    (lambda: min_poly(_ROW), ValueError, "minimal polynomial of non-square matrix"),
    (lambda: Poly(()).leading, ValueError, "zero polynomial has no leading coefficient"),
    (lambda: divmod(Poly((1, 1)), Poly(())), ZeroDivisionError, "polynomial division by zero"),
    (lambda: rational_roots(Poly(())), ValueError, "zero polynomial"),
    (lambda: is_squarefree(Poly(())), ValueError, "zero polynomial"),
    (lambda: spin([], []), ValueError, "need at least one operator"),
    (lambda: rat(1.5), TypeError, r"not an exact rational: 1\.5"),
    (lambda: Matrix.identity(0), ValueError, "matrix must have at least one row and column"),
    (lambda: Matrix.zero(0), ValueError, "matrix must have at least one row and column"),
    (lambda: Matrix.diagonal([]), ValueError, "matrix must have at least one row and column"),
    (lambda: Matrix.block_diag(), ValueError, "matrix must have at least one row and column"),
], ids=["add", "sub", "matvec", "trace", "det", "inverse", "char_poly", "rational_spectrum",
        "min_poly", "leading", "divmod", "rational_roots", "is_squarefree", "spin", "rat",
        "identity_0", "zero_0", "diagonal_empty", "block_diag_empty"])
def test_guards_raise(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_spin_rejects_mismatched_operators():
    with pytest.raises(ValueError, match="^operators must be square and of one size$"):
        spin([(1, 0)], [Matrix.identity(2), Matrix.identity(3)])
    with pytest.raises(ValueError, match="^operators must be square and of one size$"):
        spin([(1, 0)], [Matrix([[1, 0]])])


# --- properties ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(square_matrices(3))
def test_cayley_hamilton(m):
    p = char_poly(m)
    assert p.at_matrix(m) == Matrix.zero(m.nrows)


@pytest.mark.parametrize("n,seed", [(5, 1), (6, 2), (7, 3), (8, 4)])
def test_cayley_hamilton_larger(n, seed):
    import random
    rng = random.Random(seed)
    m = Matrix([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)])
    p = char_poly(m)
    assert p.degree == n
    assert p.at_matrix(m) == Matrix.zero(n)
    assert (min_poly(m) is not None) and char_poly(m) % min_poly(m) == Poly(())


@settings(max_examples=40, deadline=None)
@given(square_matrices(3))
def test_min_poly_divides_char_poly(m):
    mp = min_poly(m)
    assert mp.leading == 1
    assert mp.at_matrix(m) == Matrix.zero(m.nrows)
    assert char_poly(m) % mp == Poly(())


@settings(max_examples=40, deadline=None)
@given(square_matrices(3))
def test_char_poly_matches_cofactor_oracle(m):
    assert char_poly(m) == char_poly_cofactor(m)


@settings(max_examples=50, deadline=None)
@given(square_matrices(4))
def test_kernel_vectors_annihilate(m):
    ker = kernel_basis(m)
    for v in ker:
        assert m.matvec(v) == (F(0),) * m.nrows
    _, rank = rref(m)
    assert rank + len(ker) == m.ncols


@settings(max_examples=40, deadline=None)
@given(square_matrices(4))
# the sign of the pivot product: rows inserted above an odd number of others
@example(Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]))  # anti-diagonal, det -1
@example(Matrix([[0, 0, 2], [0, 3, 1], [5, 1, 1]]))  # descending pivots, det -30
@example(Matrix([[0, 1, 2], [0, 3, 4], [0, 5, 7]]))  # zero first column, det 0
def test_rref_idempotent_and_det(m):
    red, _ = rref(m)
    assert rref(red)[0] == red
    # det cross-check against the characteristic polynomial constant term
    sign = 1 if m.nrows % 2 == 0 else -1
    assert m.det() == sign * char_poly(m)(0)


@settings(max_examples=80, deadline=None)
@given(product_matrices())
def test_rref_and_kernel_match_gauss_jordan(m):
    rows, pivots = gauss_jordan(m.rows)
    assert rref(m) == (Matrix(rows), len(pivots))
    assert m.rank() == len(pivots)
    assert kernel_basis(m) == kernel_oracle(m)


@settings(max_examples=60, deadline=None)
@given(product_matrices(4, square=True))
def test_inverse_or_singular(m):
    if m.det():
        assert m * m.inverse() == Matrix.identity(m.nrows)
    else:
        with pytest.raises(ValueError):
            m.inverse()


@settings(max_examples=40, deadline=None)
@given(square_matrices(4))
def test_min_poly_matches_first_power_dependence(m):
    assert min_poly(m) == min_poly_oracle(m)


@settings(max_examples=40, deadline=None)
@given(square_matrices(4).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(rationals, min_size=m.nrows, max_size=m.nrows),
    st.lists(rationals, max_size=4))))
def test_shifted_walk_matches_polynomial_at_matrix(case):
    m, v, shifts = case
    walk = shifted_walk(m, v, shifts)
    assert len(walk) == len(shifts) + 1
    for k, w in enumerate(walk):
        assert w == Poly.from_roots(shifts[:k]).at_matrix(m).matvec(v)


@settings(max_examples=30, deadline=None)
@given(square_matrices(3), square_matrices(3))
def test_anticommutator_symmetric(a, b):
    if a.shape != b.shape:
        return
    assert anticommutator(a, b) == anticommutator(b, a)


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=4),
       st.lists(rationals, min_size=1, max_size=3))
def test_poly_divmod_roundtrip(fc, gc):
    f, g = Poly(fc), Poly(gc)
    if g.is_zero:
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=4), st.lists(rationals, min_size=1, max_size=4))
def test_poly_gcd_divides(fc, gc):
    f, g = Poly(fc), Poly(gc)
    if f.is_zero or g.is_zero:
        return
    d = f.gcd(g)
    assert f % d == Poly(()) and g % d == Poly(())


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=5))
def test_from_roots_recovered(roots):
    p = Poly.from_roots(roots)
    found = rational_roots(p)
    assert found.split
    assert list(found.roots) == sorted(F(r) for r in roots)


@settings(max_examples=30, deadline=None)
@given(square_matrices(3))
def test_spin_is_invariant(m):
    seed = tuple(F(1) if i == 0 else F(0) for i in range(m.nrows))
    basis = spin([seed], [m])
    acc = RrefAccumulator(m.nrows)
    for b in basis:
        acc.add(b)
    for b in basis:
        assert acc.contains(m.matvec(b))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda r: st.integers(
    min_value=1, max_value=4).flatmap(lambda c: shaped_matrices(r, c))))
@example(Matrix([[F(1, 2), 0], [F(1, 3), F(-2, 5)]]))  # rows over 2 and over 15
@example(Matrix([[0, 0], [0, 0]]))
def test_integer_form_is_the_whole_matrix_over_one_scale(m):
    # one scale for the whole matrix, the lcm of every denominator; the
    # (column, s*value) pairs give back each entry, and zeros are dropped
    s, rows = m._int_rows()
    assert s == math.lcm(*(x.denominator for r in m.rows for x in r))
    assert len(rows) == m.nrows and all(a for row in rows for _, a in row)
    for r, row in zip(m.rows, rows):
        nonzero = dict(row)
        assert [j for j, _ in row] == sorted(nonzero)
        assert all(type(a) is int for a in nonzero.values())
        assert tuple(F(nonzero.get(j, 0), s) for j in range(m.ncols)) == r
    assert m._int_rows() is m._int_rows()  # built once and cached


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3).flatmap(lambda r: st.integers(
    min_value=1, max_value=3).flatmap(lambda c: shaped_matrices(r, c))), min_size=1, max_size=3))
def test_block_diag_integer_form_comes_from_the_blocks(blocks):
    # the form set from the blocks' forms is the one the dense rows give
    m = Matrix.block_diag(*blocks)
    assert m._ints == Matrix._new(m.rows)._int_rows()


@settings(max_examples=80, deadline=None)
@given(product_operands())
@example((Matrix([[0, 0, 0], [F(1, 3), 0, F(2, 7)]]), Matrix([[0, F(5, 2)], [0, 0], [0, 1]]),
          (F(0), F(1, 2**61 - 1))))  # an all-zero row, column and right-hand row
@example((Matrix([[F(3, 7)]]), Matrix([[F(-7, 2**61 - 1)]]), (F(1, 10**12 + 39),)))
@example((Matrix([[0]]), Matrix([[0]]), (F(0),)))
def test_products_match_textbook_sums(case):
    a, b, v = case
    fresh_a, fresh_b = Matrix(a.rows), Matrix(b.rows)
    ab = a * b
    assert ab == Matrix(textbook_product(a, b))
    assert b.matvec(v) == tuple(sum((b[i, j] * v[j] for j in range(b.ncols)), F(0))
                                for i in range(b.nrows))
    assert all(type(x) is F for row in ab.rows for x in row)
    assert all(type(x) is F for x in b.matvec(v))
    # the cached sparse views now exist on a and b; equality and hash ignore them
    assert a == fresh_a and hash(a) == hash(fresh_a)
    assert b == fresh_b and hash(b) == hash(fresh_b)
    assert fresh_a * fresh_b == ab


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda r: st.integers(
    min_value=1, max_value=4).flatmap(lambda c: st.tuples(
        shaped_matrices(r, c), shaped_matrices(r, c), mixed_heights))))
def test_sums_and_scaling_match_dense(case):
    a, b, c = case
    zero = [[F(0)] * a.ncols] * a.nrows
    cases = [
        (a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)]),
        (a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)]),
        (a - a, zero),
        (c * a, [[c * x for x in r] for r in a.rows]),
        (a * c, [[c * x for x in r] for r in a.rows]),
        (0 * a, zero),
        (F(0) * b, zero),
    ]
    for got, want in cases:
        assert got.rows == tuple(tuple(r) for r in want)
        assert _all_fractions(got.rows)


@settings(max_examples=60, deadline=None)
@given(product_operands(), mixed_heights, st.data())
def test_products_equal_matches_fraction_products(case, k, data):
    a, b, _ = case
    ab, eye = a * b, Matrix.identity(b.ncols)
    equal = [(a, b), (ab, eye), (Matrix.identity(a.nrows), ab)]
    if k:
        equal.append((k * a, (1 / k) * b))  # other row scales, the same product
    i = data.draw(st.integers(min_value=0, max_value=ab.nrows - 1))
    j = data.draw(st.integers(min_value=0, max_value=ab.ncols - 1))
    bump = data.draw(mixed_heights.filter(bool))
    rows = [list(r) for r in ab.rows]
    rows[i][j] += bump
    for (c, d), want in [(pair, True) for pair in equal] + [((Matrix(rows), eye), False)]:
        assert (a * b == c * d) is want
        assert products_equal(a, b, c, d) is want and products_equal(c, d, a, b) is want


def test_products_equal_shapes():
    # a factor mismatch raises as a * b does; products of two shapes differ
    with pytest.raises(ValueError, match=r"^shape mismatch \(2, 2\) vs \(1, 2\)$"):
        products_equal(Matrix.identity(2), _ROW, Matrix.identity(2), Matrix.identity(2))
    with pytest.raises(ValueError, match=r"^shape mismatch \(2, 2\) vs \(1, 2\)$"):
        products_equal(Matrix.identity(2), Matrix.identity(2), Matrix.identity(2), _ROW)
    assert not products_equal(_ROW, Matrix.identity(2), Matrix.identity(2), Matrix.identity(2))
    assert not products_equal(_ROW.T, _ROW, _ROW, _ROW.T)


def test_products_equal_compares_outer_shapes():
    # the first rows agree, so comparing the rows that zip pairs up is not enough
    eye = Matrix.identity(2)
    assert not products_equal(Matrix([[1, 0]]), eye, eye, eye)


@pytest.mark.parametrize("m, v, shifts", [
    (X4, (1, 0, 0, 0), [F(1, 2), 1, -2, 3]),
    (X4, (F(1, 2), 0, 3, 0), []),
    (Y4, (F(1, 3), 2, 0, -1), [0, 0, 0]),
    (Y4, (0, 0, 0, 0), [F(1, 3), 2]),
    (Matrix([[F(2, 3)]]), (F(5, 7),), [F(1, 2), F(2, 3), 4]),
    (Matrix([[0]]), (3,), [0]),
], ids=["int_shifts", "no_shifts", "zero_shifts", "zero_vector", "1x1", "1x1_zero"])
def test_shifted_walk_cases(m, v, shifts):
    walk = shifted_walk(m, v, shifts)
    assert len(walk) == len(shifts) + 1 and walk[0] == tuple(v)
    for k, w in enumerate(walk):
        assert w == Poly.from_roots(shifts[:k]).at_matrix(m).matvec(v)
    assert _all_fractions(walk[1:])


def test_spin_of_a_generating_set_is_the_identity():
    # X4 lowers e_0 through every ladder line: the rref of the whole space
    for seeds, ops in [([(1, 0, 0, 0)], [X4, Y4]), (Matrix.identity(4).rows, [Y4]),
                       ([(F(1, 2), F(-3, 7), 0, 5)], [X4])]:
        basis = spin(seeds, ops)
        assert basis == Matrix.identity(4).rows and _all_fractions(basis)


@settings(max_examples=60, deadline=None)
@given(spin_cases())
def test_spin_rows_are_the_rref_of_the_span(case):
    seeds, operators = case
    got, n = spin(seeds, operators), operators[0].ncols
    if len(got) == n:
        assert got == Matrix.identity(n).rows
    elif got:
        red, rank = rref(Matrix(got))
        assert red.rows[:rank] == got and rank == len(got)


@settings(max_examples=100, deadline=None)
@given(spin_cases())
@example(([(F(1, 2**61 - 1), F(3), F(0))],
          [Matrix([[F(1, 10**12 + 39), 1, 0], [0, F(2, 2**61 - 1), F(5, 3)],
                   [F(7, 10**12 + 39), 0, 0]])]))
@example(([(F(1), F(0)), (F(1), F(0))], [Matrix.zero(2)]))
@example(([(F(0), F(0))], [Matrix([[1, 2], [3, 4]])]))
@example(([], [Matrix([[1, 2], [3, 4]])]))
def test_spin_matches_naive_closure(case):
    seeds, operators = case
    got = spin(seeds, operators)
    assert got == spin_oracle(seeds, operators)
    assert _all_fractions(got)


@pytest.mark.parametrize("prime", [exactlinalg._PRIME, 3], ids=["real_prime", "prime_3"])
@settings(max_examples=50, deadline=None)
@given(spin_cases(), product_matrices(max_n=4))
@example(([(F(1), F(0))], [Matrix([[0, 0], [3, 0]])]), Matrix([[3, 0], [0, 1]]))
def test_rank_mod_p_is_a_lower_bound(prime, case, t):
    # a rank mod p never exceeds the rank over Q, at every prime, so rank n
    # is a proof; at p = 3 many ranks undercount (the example is full over Q)
    seeds, operators = case
    with mock.patch.object(exactlinalg, "_PRIME", prime):
        spun, independent = rank_mod_p(seeds, operators), rank_mod_p(t.rows)
    assert spun <= len(spin(seeds, operators))
    assert independent <= t.rank()


def test_rank_mod_p_fixed():
    assert rank_mod_p([(1, 0, 0, 0)], [X4, Y4]) == rank_mod_p(X4.rows) == 4
    assert rank_mod_p([(0, 0, 0, 1)], [X4]) == 1  # the lowest ladder line is X-invariant
    assert rank_mod_p(Matrix([[1, 2], [2, 4]]).rows) == 1
    assert rank_mod_p([]) == rank_mod_p([], [X4]) == 0  # the empty span
    with mock.patch.object(exactlinalg, "_PRIME", 3):
        assert rank_mod_p([(1, 0)], [Matrix([[0, 0], [3, 0]])]) == 1  # an undercount mod 3
        assert rank_mod_p([(1, 0)], [Matrix([[0, 0], [F(1, 3), 0]])]) == 2  # a scale of 3 is harmless


def _all_fractions(rows):
    return all(type(x) is F for row in rows for x in row)


@settings(max_examples=120, deadline=None)
@given(spanning_rows())
@example((2, [(F(0), F(0)), (F(0), F(0))]))
@example((3, [(F(1, 10**12 + 39), F(10**30, 7), F(-3)), (F(0),) * 3,
              (F(2, 10**12 + 39), F(2 * 10**30, 7), F(-6)), (F(5, 9), F(0), F(1, 2**61 - 1))]))
def test_accumulator_matches_gauss_jordan(case):
    ncols, rows = case
    m = Matrix(rows)
    gj_rows, pivots = gauss_jordan(rows)
    red, rank = rref(m)
    assert (red, rank) == (Matrix(gj_rows), len(pivots))
    assert kernel_basis(m) == kernel_oracle(m)
    acc = RrefAccumulator(ncols)
    for r in rows:
        acc.add(r)
    assert acc.rows == tuple(tuple(r) for r in gj_rows[:rank])
    assert acc.pivots == pivots
    probes = list(rows) + [(F(0),) * ncols, tuple(F(j + 1, 3) for j in range(ncols))]
    for v in probes:
        assert acc.contains(v) == (len(gauss_jordan(list(rows) + [v])[1]) == rank)
    square = Matrix((list(rows) + [(F(0),) * ncols] * ncols)[:ncols])
    assert square.det() == det_cofactor(square.rows)
    inv = inverse_oracle(square)
    if inv is None:
        with pytest.raises(ValueError):
            square.inverse()
    else:
        assert square.inverse() == inv
        assert _all_fractions(square.inverse().rows)
    assert type(square.det()) is F
    assert _all_fractions(red.rows) and _all_fractions(kernel_basis(m))
    assert _all_fractions(acc.rows)
    assert _all_fractions(spin(rows, [square]))
