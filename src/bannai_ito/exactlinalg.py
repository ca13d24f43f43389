"""Exact linear algebra over the rationals.

Everything in this module is deterministic and exact: entries are
``fractions.Fraction`` and no floating point is ever involved.  Matrices are
immutable and dense, but products, ``matvec``, ``spin``, the ladder walk
``shifted_walk`` and the certificate comparison ``products_equal`` read one
cached integer form of each matrix (the whole matrix times the lcm of its
denominators, zeros dropped), so the family matrices cost only their nonzeros
and each output entry is built as a ``Fraction`` once, or not at all where
only equality is asked.  One Gauss-Jordan engine, ``RrefAccumulator``, does
every exact row elimination (rref, rank, kernel, inverse, det, spin, Krylov
annihilators); it eliminates fraction-free over integer rows and hands back
``Fraction`` rows at its boundary, and it builds every witness.  Only the
dimension of a spin or span is first asked mod one prime (``rank_mod_p``),
a lower bound over Q: a full rank mod p is a nonzero integer minor.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

RatLike = Union[int, str, Fraction]
Vector = tuple[Fraction, ...]

_F0 = Fraction(0)
_F1 = Fraction(1)


def rat(x: RatLike) -> Fraction:
    """Coerce an int, a "p/q" string or a Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vec(entries: Iterable[RatLike]) -> Vector:
    return tuple(rat(x) for x in entries)


def as_text(x: object) -> str:
    """str(x) for a message, or a fixed placeholder when x holds an integer
    with more digits than the interpreter converts to a string."""
    try:
        return str(x)
    except ValueError:
        return "<too many digits>"


def _scaled(v: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(s*v as ints, s), where s > 0 is the least scale that makes v integral."""
    if all(type(x) is int for x in v):
        return list(v), 1  # ints pass through, at a quarter of the cost
    try:
        s = math.lcm(*(x.denominator for x in v))
    except AttributeError:
        bad = next(x for x in v if not hasattr(x, "denominator"))
        raise TypeError(f"not an exact rational: {bad!r}") from None
    return [x.numerator * (s // x.denominator) for x in v], s


class Matrix:
    """Immutable dense matrix over Fraction, stored row-major.

    Products, ``matvec``, spins and walks read one integer form, ``_ints``:
    the least scale s > 0 that makes the whole matrix integral, and for each
    row the (column, s*value) pairs of its nonzero entries.  It is built on
    first use and cached, and it is not part of ``==`` or ``hash``.
    """

    __slots__ = ("rows", "_ints")

    def __init__(self, rows: Iterable[Iterable[RatLike]]):
        rs = Matrix._new(tuple(tuple(rat(x) for x in row) for row in rows)).rows
        if any(len(r) != len(rs[0]) for r in rs):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rs)

    @classmethod
    def _new(cls, rows: tuple[tuple[Fraction, ...], ...]) -> "Matrix":
        # internal: entries already Fraction, rows already of one length
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._new(tuple(tuple(_F1 if i == j else _F0 for j in range(n))
                              for i in range(n)))

    @classmethod
    def zero(cls, n: int, m: int | None = None) -> "Matrix":
        m = n if m is None else m
        return cls._new(tuple(tuple(_F0 for _ in range(m)) for _ in range(n)))

    @classmethod
    def diagonal(cls, entries: Iterable[RatLike]) -> "Matrix":
        es = vec(entries)
        n = len(es)
        return cls._new(tuple(tuple(es[i] if i == j else _F0 for j in range(n))
                              for i in range(n)))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[RatLike]]) -> "Matrix":
        return cls(zip(*[tuple(c) for c in cols]))

    @classmethod
    def block_diag(cls, *blocks: "Matrix") -> "Matrix":
        """The blocks down the diagonal, the first at the top left; the
        integer form is set from the blocks' cached forms, columns offset."""
        widths = [b.ncols for b in blocks]
        m = cls._new(tuple((_F0,) * sum(widths[:i]) + r + (_F0,) * sum(widths[i + 1:])
                           for i, b in enumerate(blocks) for r in b.rows))
        forms = [b._int_rows() for b in blocks]
        s = math.lcm(*(t for t, _ in forms))
        object.__setattr__(m, "_ints", (s, tuple(
            tuple((j + sum(widths[:i]), x * (s // t)) for j, x in row)
            for i, (t, rows) in enumerate(forms) for row in rows)))
        return m

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.rows[ij[0]][ij[1]]

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix._new(tuple(tuple(a + b if b else a for a, b in zip(r, s))
                                 for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix._new(tuple(tuple(a - b if b else a for a, b in zip(r, s))
                                 for r, s in zip(self.rows, other.rows)))

    def _int_rows(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """(s, rows): the least s > 0 that makes the matrix integral, and the
        (column, s*value) pairs of the nonzeros of each row."""
        try:
            return self._ints
        except AttributeError:
            s = math.lcm(*{x.denominator for r in self.rows for x in r})
            ints = s, tuple(tuple((j, x.numerator * (s // x.denominator))
                                  for j, x in enumerate(r) if x) for r in self.rows)
            object.__setattr__(self, "_ints", ints)
            return ints

    def _int_product(self, other: "Matrix") -> tuple[int, list[list[int]]]:
        """(s*t, rows): self * other is rows / (s*t), where s and t are the
        scales of the two integer forms."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        (s, left), (t, right), out = self._int_rows(), other._int_rows(), []
        for row in left:
            acc = [0] * other.ncols
            for j, a in row:
                for k, b in right[j]:
                    acc[k] += a * b
            out.append(acc)
        return s * t, out

    def __mul__(self, other):
        if isinstance(other, Matrix):
            s, rows = self._int_product(other)
            return Matrix._new(tuple(tuple(Fraction(x, s) if x else _F0 for x in acc)
                                     for acc in rows))
        s = rat(other)
        return Matrix._new(tuple(tuple(s * a if a else a for a in r) for r in self.rows))

    def __rmul__(self, other: RatLike) -> "Matrix":
        return self.__mul__(other)

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        u, t = _scaled(v)
        s, rows = self._int_rows()
        return tuple(Fraction(x, s * t) if x else _F0 for x in _apply(rows, u))

    @property
    def T(self) -> "Matrix":
        return Matrix._new(tuple(zip(*self.rows)))

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace of non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), _F0)

    def is_upper_triangular(self) -> bool:
        return all(not self.rows[i][j]
                   for i in range(self.nrows) for j in range(min(i, self.ncols)))

    def is_lower_triangular(self) -> bool:
        return all(not self.rows[i][j]
                   for i in range(self.nrows) for j in range(i + 1, self.ncols))

    def scalar_value(self) -> Fraction | None:
        """Return c if the matrix equals c*I, else None."""
        if not self.is_square:
            return None
        c = self.rows[0][0]
        for i in range(self.nrows):
            for j in range(self.ncols):
                if self.rows[i][j] != (c if i == j else _F0):
                    return None
        return c

    def rank(self) -> int:
        return len(_row_reduce(self.rows, self.ncols))

    def det(self) -> Fraction:
        """Determinant: the product of the signed pivots the rows leave in
        one rref accumulator (0 as soon as a row falls in the span)."""
        if not self.is_square:
            raise ValueError("determinant of non-square matrix")
        acc = RrefAccumulator(self.ncols)
        result = _F1
        for r in self.rows:
            p = acc.add(r)
            if not p:
                return _F0
            result *= p
        return result

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        eye = Matrix.identity(n).rows
        acc = _row_reduce((r + e for r, e in zip(self.rows, eye)), 2 * n)
        if acc.pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._new(tuple(tuple(r[n:]) for r in acc.rows))


def anticommutator(a: Matrix, b: Matrix) -> Matrix:
    """{a, b} = a*b + b*a."""
    return a * b + b * a


def products_equal(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> bool:
    """a * b == c * d, compared row by row over integers (the scales
    cross-multiplied), without building either product as Fractions."""
    (s, left), (t, right) = a._int_product(b), c._int_product(d)
    return (a.nrows, b.ncols) == (c.nrows, d.ncols) and all(
        [x * t for x in u] == [y * s for y in w] for u, w in zip(left, right))


def _apply(rows: Sequence[Sequence[tuple[int, int]]], u: Sequence[int]) -> list[int]:
    """The integer matrix given by the (column, value) pairs of its rows,
    applied to the integer vector u."""
    return [sum(a * u[j] for j, a in row) for row in rows]


def shifted_walk(m: Matrix, v: Sequence[Fraction],
                 shifts: Iterable[Fraction]) -> tuple[Vector, ...]:
    """(v, (m - s_0) v, (m - s_1)(m - s_0) v, ...): one more vector per shift.
    The walk runs over ints: it reads the cached integer form of m, carries
    the vector as (ints, scale) with its content divided out at each step,
    and builds each output entry as a Fraction once."""
    walk, shifts = [tuple(v)], [rat(s) for s in shifts]
    if not shifts:
        return tuple(walk)
    if len(v) != m.ncols:
        raise ValueError("vector length mismatch")
    scale, op = m._int_rows()
    u, t = _scaled(v)
    for s in shifts:
        # (m - p/q)(u/t) = (q M u - p scale u) / (q scale t), M = scale m
        p, q = s.numerator * scale, s.denominator
        u = [q * y - p * x for y, x in zip(_apply(op, u), u)]
        t *= q * scale
        g = math.gcd(t, *u)
        u, t = [x // g for x in u], t // g
        walk.append(tuple(Fraction(x, t) if x else _F0 for x in u))
    return tuple(walk)


class RrefAccumulator:
    """Incrementally maintained rref basis of a growing span of row vectors.

    Elimination is fraction-free: each row is kept as a primitive integer
    vector (content divided out with gcd, pivot positive, zero in every other
    pivot column), i.e. the rref row times its pivot entry.  An incoming
    vector (Fractions or ints) is scaled to integers once, by the lcm of its
    denominators; ``rows`` divides by the pivots and gives the rref.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: list[list[int]] = []
        self.pivots: list[int] = []

    def __len__(self) -> int:
        return len(self._rows)

    def _reduce(self, v: Sequence[Fraction]) -> tuple[list[int], int]:
        """(s*w, s): w is v reduced against every row, so zero in their pivot
        columns, and s > 0 is the scale that makes s*w integral."""
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        u, s = _scaled(v)
        for row, c in zip(self._rows, self.pivots):
            if u[c]:
                g = math.gcd(row[c], u[c])
                p, f = row[c] // g, u[c] // g
                u = [p * a - f * b for a, b in zip(u, row)]
                s *= p
        return u, s

    def add(self, v: Sequence[Fraction | int]) -> Fraction:
        """Add v, a vector of Fractions or ints, to the span.  Returns 0 if v
        was already in it; otherwise the pivot v was divided by, negated when
        the new row lands above an odd number of existing rows (so the signed
        pivots multiply to the det)."""
        u, s = self._reduce(v)
        c = next((j for j, a in enumerate(u) if a), None)
        if c is None:
            return _F0
        p = Fraction(u[c], s)
        g = math.gcd(*u) if u[c] > 0 else -math.gcd(*u)
        u = [a // g for a in u]
        for row in self._rows:
            if row[c]:
                g = math.gcd(u[c], row[c])
                q, f = u[c] // g, row[c] // g
                row[:] = [q * a - f * b for a, b in zip(row, u)]
                g = math.gcd(*row)
                row[:] = [a // g for a in row]
        at = next((k for k, pc in enumerate(self.pivots) if pc > c), len(self.pivots))
        self._rows.insert(at, u)
        self.pivots.insert(at, c)
        return -p if (len(self._rows) - 1 - at) % 2 else p

    def contains(self, v: Sequence[Fraction]) -> bool:
        return not any(self._reduce(v)[0])

    @property
    def rows(self) -> tuple[Vector, ...]:
        """The rref rows over Fraction, in pivot order."""
        return tuple(tuple(Fraction(a, r[c]) if a else _F0 for a in r)
                     for r, c in zip(self._rows, self.pivots))


def _row_reduce(rows: Iterable[Sequence[Fraction]], ncols: int) -> RrefAccumulator:
    """Accumulator holding the rref of the span of `rows`."""
    acc = RrefAccumulator(ncols)
    for r in rows:
        if len(acc) == ncols:
            break  # full rank: every later row reduces to zero
        acc.add(r)
    return acc


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form (zero rows at the bottom) and rank."""
    acc = _row_reduce(m.rows, m.ncols)
    zero = (_F0,) * m.ncols
    rows = acc.rows + (zero,) * (m.nrows - len(acc))
    return Matrix._new(rows), len(acc)


def kernel_basis(m: Matrix) -> tuple[Vector, ...]:
    """Deterministic basis of the right kernel {v : m v = 0}.

    One basis vector per free column, in ascending column order; the free
    coordinate is set to 1 and pivot coordinates are back-substituted.
    """
    acc = _row_reduce(m.rows, m.ncols)
    ncols, rows = m.ncols, acc.rows
    pivot_set = set(acc.pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [_F0] * ncols
        v[free] = _F1
        for row, c in zip(rows, acc.pivots):
            v[c] = -row[free]
        basis.append(tuple(v))
    return tuple(basis)


def spin(vectors: Sequence[Sequence[RatLike]], operators: Sequence[Matrix]) -> tuple[Vector, ...]:
    """Basis of the smallest operator-invariant subspace containing `vectors`.

    Iteratively applies each operator to the working basis and grows an rref
    basis until the dimension stabilizes.  Returned basis rows are in rref,
    sorted by pivot column, so the output is canonical for the subspace.
    The walk runs over ints: a scalar multiple of an operator spans the same
    subspace, so it reads each operator's cached integer form and scales
    each seed to integers once.
    """
    if not operators:
        raise ValueError("need at least one operator")
    ncols = operators[0].ncols
    if any(op.shape != (ncols, ncols) for op in operators):
        raise ValueError("operators must be square and of one size")
    int_ops = [op._int_rows()[1] for op in operators]
    acc = RrefAccumulator(ncols)
    queue = deque(u for u, _ in map(_scaled, map(vec, vectors)) if acc.add(u))
    while queue and len(acc) < ncols:
        u = queue.popleft()
        for op in int_ops:
            w = _apply(op, u)
            if acc.add(w):
                queue.append(w)
    return acc.rows


_PRIME = 2**61 - 1


def rank_mod_p(vectors: Sequence[Sequence[RatLike]], operators: Sequence[Matrix] = ()) -> int:
    """The dimension mod p of the spin of `vectors` under `operators` (with
    none, of their span), a lower bound on it over Q: n proves a full spin,
    and a lower value means "not shown", never "proper".

    Row reduction mod the prime _PRIME over the integer forms ``spin`` reads:
    each reduced row is the residue of an integer vector of the spin, so k
    rows independent mod p give a nonzero integer minor, whatever the prime.
    """
    n, p = operators[0].ncols if operators else 0, _PRIME  # n stops the spin; no operators, no spin
    int_ops, basis = [op._int_rows()[1] for op in operators], []

    def add(u: list[int]) -> list[int] | None:
        """u reduced against the basis and scaled to pivot 1, or None if 0."""
        u = [x % p for x in u]
        for c, tail in basis:  # a basis row is kept from its pivot c on
            if f := u[c]:
                u[c:] = [(a - f * b) % p for a, b in zip(u[c:], tail)]
        for c, lead in enumerate(u):
            if lead:
                inv = pow(lead, -1, p)
                u = [a * inv % p for a in u]
                basis.append((c, u[c:]))
                return u

    queue = deque(filter(None, (add(_scaled(vec(v))[0]) for v in vectors)))
    while queue and len(basis) < n:
        u = queue.popleft()
        queue.extend(filter(None, (add(_apply(op, u)) for op in int_ops)))
    return len(basis)


class Poly:
    """Univariate polynomial over Fraction; coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike]):
        cs = [rat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def from_roots(cls, roots: Iterable[RatLike]) -> "Poly":
        p = cls((1,))
        for r in roots:
            p = p * cls((-rat(r), 1))
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly(())
        out = [_F0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [_F0] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.coeffs
        while len(rem) >= len(d) and any(rem):
            if not rem[-1]:
                rem.pop()
                continue
            k = len(rem) - len(d)
            f = rem[-1] / d[-1]
            q[k] = f
            for i, c in enumerate(d):
                rem[k + i] -= f * c
            rem.pop()
        return Poly(q), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __call__(self, x: RatLike) -> Fraction:
        acc = _F0
        for c in reversed(self.coeffs):
            acc = acc * rat(x) + c
        return acc

    def at_matrix(self, m: Matrix) -> Matrix:
        n = m.nrows
        acc = Matrix.zero(n)
        eye = Matrix.identity(n)
        for c in reversed(self.coeffs):
            acc = acc * m + c * eye
        return acc

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.leading
        if lead == _F1:
            return self
        return Poly(tuple(c / lead for c in self.coeffs))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def lcm(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly(())
        g = self.gcd(other)
        return ((self * other) // g).monic()

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                term = str(c)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    term = xs
                elif c == -1:
                    term = f"-{xs}"
                else:
                    term = f"{c}*{xs}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


class Roots(NamedTuple):
    """Rational roots with multiplicity (sorted) and a full-split flag."""
    roots: tuple[Fraction, ...]
    split: bool


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(p: Poly) -> Roots:
    """All rational roots of p with multiplicity, via the rational root bound.

    Zero roots are stripped first; then candidates num/den with num | constant
    term and den | leading coefficient (after clearing denominators) are tested
    and deflated until simple.  `split` is True iff the roots found account for
    the whole degree.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    degree = p.degree
    coeffs = list(p.coeffs)
    roots: list[Fraction] = []
    while coeffs and not coeffs[0]:
        roots.append(_F0)
        coeffs.pop(0)
    work = Poly(coeffs)
    if work.degree > 0:
        scale = math.lcm(*(c.denominator for c in work.coeffs))
        ints = [int(c * scale) for c in work.coeffs]
        candidates = sorted({Fraction(s * num, den)
                             for num in _divisors(ints[0])
                             for den in _divisors(ints[-1])
                             for s in (1, -1)})
        for cand in candidates:
            while work.degree > 0 and work(cand) == 0:
                roots.append(cand)
                work = work // Poly((-cand, 1))
    return Roots(tuple(sorted(roots)), len(roots) == degree)


def is_squarefree(p: Poly) -> bool:
    """True iff p has no repeated irreducible factor (over Q)."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return True
    return p.gcd(p.derivative()).degree == 0


def char_poly(m: Matrix) -> Poly:
    """Characteristic polynomial det(xI - m), monic, by Faddeev-LeVerrier."""
    if not m.is_square:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.nrows
    eye = Matrix.identity(n)
    mk = m
    cs = []
    for k in range(1, n + 1):
        ck = -mk.trace() / k
        cs.append(ck)
        if k < n:
            mk = m * (mk + ck * eye)
    return Poly(tuple(reversed(cs)) + (_F1,))


def rational_spectrum(m: Matrix) -> Roots:
    """Rational eigenvalues of m with multiplicity, plus a full-split flag.

    Triangular matrices are read off the diagonal; everything else goes
    through the characteristic polynomial's rational roots.
    """
    if not m.is_square:
        raise ValueError("spectrum of non-square matrix")
    if m.is_upper_triangular() or m.is_lower_triangular():
        return Roots(tuple(sorted(m.rows[i][i] for i in range(m.nrows))), True)
    return rational_roots(char_poly(m))


def min_poly(m: Matrix) -> Poly:
    """Minimal polynomial: lcm over standard basis vectors of the Krylov
    annihilator of each vector."""
    if not m.is_square:
        raise ValueError("minimal polynomial of non-square matrix")
    n = m.nrows
    result = Poly((1,))
    for e in Matrix.identity(n).rows:
        if result.degree == n:
            break
        result = result.lcm(_vector_annihilator(m, e))
    return result


def _vector_annihilator(m: Matrix, v: Vector) -> Poly:
    """Monic p of least degree with p(m) v = 0.

    Rows (m^k v | e_k) go into one accumulator; the first whose head reduces
    to zero pivots in the tail, which then holds the coefficients of p.
    """
    n = len(v)
    acc = RrefAccumulator(2 * n + 1)
    w, k = v, 0
    while True:
        acc.add(w + tuple(_F1 if j == k else _F0 for j in range(n + 1)))
        if acc.pivots[-1] >= n:
            # the integer row is a multiple of the rref row; monic() drops the scale
            return Poly(acc._rows[-1][n:]).monic()
        w, k = m.matvec(w), k + 1
