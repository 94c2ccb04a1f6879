"""Value types are namedtuples: checked on construction, immutable, compared and
hashed by value, picklable (a process pool sends instances), and printed as
``Name(field=value, ...)``."""

import pickle

import pytest

from jacverify.combinatorics import LastRep, SubsetPermutation
from jacverify.fern import FernLabeling
from jacverify.generators import DLinearSpec, JKey
from jacverify.identities import IdentityInstance, RelationEntry
from jacverify.involution import Classification, TupleState
from jacverify.membership import BasisRow, MembershipCertificate, TheoremEntry
from jacverify.poly import DomainError, Poly, StructuralError, VarId
from jacverify.polytext import parse_poly

P = parse_poly("a[1,1]*a[2,2] - 1/2*a[1,2]^2", 2)

# (type, fields in order, repr); each repr is the one the type printed as a dataclass.
VALUES = [
    (VarId, ("a", 1, 2), "VarId(kind='a', i=1, j=2)"),
    (DLinearSpec, (2, 3), "DLinearSpec(d=2, n=3)"),
    (JKey, (1, (1, 0)), "JKey(k=1, alpha=(1, 0))"),
    (SubsetPermutation, ((1, 2), (2, 1), 1),
     "SubsetPermutation(S=(1, 2), sigma=(2, 1), cycle_count=1)"),
    (LastRep, (0, 2), "LastRep(l1=0, l2=2)"),
    (FernLabeling, (2, 2, 1, 1, 2, ((1,),)),
     "FernLabeling(d=2, n=2, k=1, u0=1, uk=2, nu=((1,),))"),
    (IdentityInstance, ("identity2", 2, 2, (1, 1), 1, 2, (2,)),
     "IdentityInstance(which='identity2', d=2, n=2, alpha=(1, 1), u0=1, un=2, beta=(2,))"),
    (TupleState, (2, 2, (1, 2), ((1,),), (1,), (1,), ((2,),)),
     "TupleState(d=2, n=2, lam=(1, 2), nu=((1,),), S=(1,), sigma=(1,), rho=((2,),))"),
    (Classification, (None, 0, 1, "domain"), "Classification(h=None, l1=0, l2=1, side='domain')"),
    (BasisRow, (JKey(1, (1, 0)), (0, 0, 0, 1, 0, 0, 0)),
     "BasisRow(key=JKey(k=1, alpha=(1, 0)), multiplier=(0, 0, 0, 1, 0, 0, 0))"),
    (RelationEntry, (2, P, False, True),
     "RelationEntry(v=2, difference=Poly(2, '-1/2 * a[1,2]^2 + a[1,1]*a[2,2]'), "
     "is_zero=False, homogeneous_2d=True)"),
    (MembershipCertificate, (P, [(JKey(1, (1, 0)), P)], Poly.zero(2)),
     "MembershipCertificate(target=Poly(2, '-1/2 * a[1,2]^2 + a[1,1]*a[2,2]'), "
     "combination=[(JKey(k=1, alpha=(1, 0)), Poly(2, '-1/2 * a[1,2]^2 + a[1,1]*a[2,2]'))], "
     "residual=Poly(2, '0'))"),
    (TheoremEntry, (1, (2, 1), 4, False, True, None),
     "TheoremEntry(i=1, alpha=(2, 1), N=4, exceptional=False, member=True, certificate=None)"),
]


@pytest.mark.parametrize("cls,fields,text", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_type(cls, fields, text):
    value = cls(*fields)
    by_keyword = cls(**dict(zip(cls._fields, fields)))
    assert value == by_keyword and type(by_keyword) is cls
    assert repr(value) == text
    if cls is MembershipCertificate:
        with pytest.raises(TypeError):  # its combination is a list, as with the dataclass
            hash(value)
    else:
        assert hash(value) == hash(by_keyword)
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is cls
    with pytest.raises(AttributeError):
        setattr(value, cls._fields[0], fields[0])
    with pytest.raises(AttributeError):
        value.extra = 1  # no instance dict


@pytest.mark.parametrize("cls,fields,error", [
    (VarId, ("b", 1, 2), StructuralError),
    (DLinearSpec, (0, 2), DomainError),
    (DLinearSpec, (2, 0), DomainError),
    (FernLabeling, (2, 2, 1, 1, 3, ((1,),)), DomainError),
    (FernLabeling, (2, 2, 1, 1, 2, ((1, 2),)), DomainError),
    (FernLabeling, (2, 2, 2, 1, 2, ((1,),)), DomainError),
    (IdentityInstance, ("identity1", 2, 2, (1, 1), 1, 2, (2,)), DomainError),
    (IdentityInstance, ("identity2", 2, 2, (1, 1), 1, 1, (2,)), DomainError),
    (IdentityInstance, ("identity2", 2, 2, (2, 1), 1, 2, (2,)), DomainError),
    (IdentityInstance, ("identity3", 2, 2, (1, 1), 1, 2, None), DomainError),
])
def test_invalid_fields_raise_positionally_or_by_keyword(cls, fields, error):
    with pytest.raises(error):
        cls(*fields)
    with pytest.raises(error):
        cls(**dict(zip(cls._fields, fields)))


def test_defaults_fill_trailing_fields():
    assert VarId("t") == VarId(kind="t") == ("t", 0, 0)
    assert IdentityInstance("identity1", 2, 2, (1, 1), 1, 2).beta is None
    with pytest.raises(TypeError):
        DLinearSpec(2)


def test_check_results_are_namedtuples():
    """Each check returns one namedtuple, whole when the check returns; the
    reports with a verdict carry it as the bool field ``ok``."""
    from jacverify.generators import cross_check_generators
    from jacverify.identities import cayley_hamilton_numeric, relation_report
    from jacverify.inverse import verify_inverse
    from jacverify.involution import verify_involution
    from jacverify.membership import verify_fern_lemmas, verify_main_theorem

    spec = DLinearSpec(1, 2)
    results = [cross_check_generators(spec), verify_inverse(spec, 2), relation_report(2),
               cayley_hamilton_numeric(2, 1), verify_involution(1, 2, (0, 0), 1, 2, 1),
               verify_fern_lemmas(1), verify_main_theorem(1, [2])]
    for result in results:
        assert isinstance(result, tuple) and repr(result).startswith(type(result).__name__)
        with pytest.raises(AttributeError):
            setattr(result, result._fields[0], None)
        with pytest.raises(AttributeError):
            result.extra = 1
    assert [r.ok for r in results if "ok" in r._fields] == [True] * 6
