"""The library's records keep their value semantics whatever class machinery
builds them: construction by position and by keyword, defaults, `repr`
text, hashing, copying and pickling, immutability, `BIModule`'s coercion
and checks, and class-strict equality of the family points."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from bannai_ito.bimodule import BIModule, EvenParams, OddParams, RelationCheck, \
    RelationReport, SequenceTable, TwistSign
from bannai_ito.classify import ClassCoordinates, InvariantData, IrrVerdict
from bannai_ito.exactlinalg import Matrix
from bannai_ito.universal import QuotientReport, TruncatedVerma, VermaRelationReport

_TABLE = SequenceTable(F(1), F(0), F(0), F(0))
_TABLE_TEXT = "SequenceTable(delta=Fraction(1, 1), a=Fraction(0, 1), b=Fraction(0, 1), c=Fraction(0, 1))"

# (record type, fields in order as keywords, repr captured before the records
# stopped being dataclasses)
RECORDS = [
    (RelationCheck, dict(name="lambda", passed=True, scalar=F(4), expected=None),
     "RelationCheck(name='lambda', passed=True, scalar=Fraction(4, 1), expected=None)"),
    (RelationReport, dict(checks=(RelationCheck("kappa", True, F(1), F(1)),)),
     "RelationReport(checks=(RelationCheck(name='kappa', passed=True, scalar=Fraction(1, 1), "
     "expected=Fraction(1, 1)),))"),
    (IrrVerdict, dict(status="reducible", witness=((F(1), F(0)),), detail="spin"),
     "IrrVerdict(status='reducible', witness=((Fraction(1, 1), Fraction(0, 1)),), detail='spin')"),
    (InvariantData, dict(trace_x=F(-1), trace_y=F(1, 2), kappa=F(4), lam=F(4), mu=F(2)),
     "InvariantData(trace_x=Fraction(-1, 1), trace_y=Fraction(1, 2), kappa=Fraction(4, 1), "
     "lam=Fraction(4, 1), mu=Fraction(2, 1))"),
    (ClassCoordinates, dict(family="even", d=1, twist=TwistSign(1, -1), params=(F(1), F(0), F(1, 2))),
     "ClassCoordinates(family='even', d=1, twist=TwistSign(eps=1, eps_prime=-1), "
     "params=(Fraction(1, 1), Fraction(0, 1), Fraction(1, 2)))"),
    (TruncatedVerma, dict(table=_TABLE, n=3, X=Matrix([[1]]), Y=Matrix([[2]]),
                          kappa=F(1), lam=F(1), mu=F(1)),
     f"TruncatedVerma(table={_TABLE_TEXT}, n=3, X=Matrix[1], Y=Matrix[2], "
     "kappa=Fraction(1, 1), lam=Fraction(1, 1), mu=Fraction(1, 1))"),
    (VermaRelationReport, dict(lambda_ok=(True, False), mu_ok=(True, True), interior=range(0, 1)),
     "VermaRelationReport(lambda_ok=(True, False), mu_ok=(True, True), interior=range(0, 1))"),
    (QuotientReport, dict(superdiagonal_vanishes=True, tail_invariant=False, head_matches=True),
     "QuotientReport(superdiagonal_vanishes=True, tail_invariant=False, head_matches=True)"),
    (TwistSign, dict(eps=-1, eps_prime=1), "TwistSign(eps=-1, eps_prime=1)"),
    (BIModule, dict(X=Matrix([[1]]), Y=Matrix([[2]]), kappa=F(3), lam=F(1, 2), mu=F(-1)),
     "BIModule(X=Matrix[1], Y=Matrix[2], kappa=Fraction(3, 1), lam=Fraction(1, 2), "
     "mu=Fraction(-1, 1))"),
    (SequenceTable, dict(delta=F(1), a=F(0), b=F(1, 2), c=F(-1)),
     "SequenceTable(delta=Fraction(1, 1), a=Fraction(0, 1), b=Fraction(1, 2), c=Fraction(-1, 1))"),
    (EvenParams, dict(d=1, a=0, b=0, c=0),
     "EvenParams(delta=Fraction(1, 1), a=Fraction(0, 1), b=Fraction(0, 1), c=Fraction(0, 1))"),
    (OddParams, dict(d=0, a=F(-1, 2), b=F(-1, 2), c=F(-1, 2)),
     "OddParams(delta=Fraction(1, 1), a=Fraction(0, 1), b=Fraction(0, 1), c=Fraction(0, 1))"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, fields, text):
    rec = cls(*fields.values())
    assert rec == cls(**fields) and hash(rec) == hash(cls(**fields))
    assert repr(rec) == text
    assert copy.deepcopy(rec) == rec and pickle.loads(pickle.dumps(rec)) == rec
    name = text.partition("(")[2].partition("=")[0]  # the first field shown
    with pytest.raises(AttributeError):
        setattr(rec, name, getattr(rec, name))
    assert repr(rec) == text


def test_record_defaults_and_coercion():
    assert IrrVerdict("irreducible", None).detail == ""
    x, y = Matrix([[1, 0], [0, 1]]), Matrix([[0, 1], [1, 0]])
    v = BIModule(x, y, 2)
    assert (v.lam, v.mu) == (None, None)
    assert v.kappa == F(2) and type(v.kappa) is F
    w = BIModule(x, y, "3/2", 1, "-1")
    assert (w.kappa, w.lam, w.mu) == (F(3, 2), F(1), F(-1))
    assert all(type(s) is F for s in (w.kappa, w.lam, w.mu))
    for bad_x, bad_y in ((Matrix([[1, 0]]), Matrix([[1, 0]])), (x, Matrix([[1]]))):
        with pytest.raises(ValueError, match="^X and Y must be square of equal size$"):
            BIModule(bad_x, bad_y, 0)


def test_family_points_compare_by_class():
    # both name the Verma point (1, 0, 0, 0), yet they are different points
    odd, even = OddParams(0, F(-1, 2), F(-1, 2), F(-1, 2)), EvenParams(1, 0, 0, 0)
    assert (odd.delta, odd.a, odd.b, odd.c) == (even.delta, even.a, even.b, even.c)
    assert odd != even and not odd == even
    assert odd != SequenceTable(odd.delta, odd.a, odd.b, odd.c)


def test_family_point_coordinates_are_frozen():
    # d and coords are no table fields, yet a point is a value all the same
    p = EvenParams(3, 1, 0, 1)
    for name, value in (("d", 5), ("coords", (F(0),) * 3), ("delta", F(5))):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    assert (p.d, p.coords, p.delta) == (3, (F(1), F(0), F(1)), F(3))
    q = pickle.loads(pickle.dumps(p))
    assert (q.d, q.coords) == (p.d, p.coords) and q.module().same_matrices(p.module())
