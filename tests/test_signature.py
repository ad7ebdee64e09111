import itertools

from hypothesis import given, strategies as st

from fcn import signature as sg
from fcn.errors import CompositionMismatch, FcnError
import pytest

A = sg.GenObj("a")
B = sg.GenObj("b")
C = sg.GenObj("c")


def _small_val():
    val = sg.Valuation()
    val.carriers["a"] = ("a0", "a1")
    val.carriers["b"] = ("b0", "b1", "b2")
    val.carriers["c"] = ("c0",)
    return val


def _small_sig():
    sig = sg.Signature()
    for n in "abc":
        sig.declare_object(n)
    return sig


objs = st.recursive(
    st.sampled_from([A, B, C, sg.UNIT]),
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda p: sg.Tensor((p[0], p[1]))),
        st.tuples(kids, kids).map(lambda p: sg.Sum(*p)),
        kids.map(sg.Stack),
    ),
    max_leaves=6,
)


@given(objs)
def test_normalize_obj_idempotent(e):
    # normal input comes back as the same object, not a rebuilt copy
    n = sg.normalize_obj(e)
    assert sg.normalize_obj(n) is n
    for f in sg.obj_factors(n):
        assert sg.normalize_obj(f) is f


@given(objs)
def test_tensor_factors_flat(e):
    n = sg.normalize_obj(e)
    if isinstance(n, sg.Tensor):
        assert len(n.factors) >= 2
        for f in n.factors:
            assert not isinstance(f, (sg.Tensor, sg.Unit))


def test_unit_is_empty_tensor():
    assert sg.normalize_obj(sg.Tensor(())) == sg.UNIT
    assert sg.tensor_obj(A, sg.UNIT, B) == sg.Tensor((A, B))
    assert sg.tensor_obj(sg.UNIT) == sg.UNIT


def test_tensor_value_flattens():
    v = sg.tensor_value(sg.AtomV("a0"), sg.UNITV, sg.AtomV("b0"))
    assert v == sg.TupleV((sg.AtomV("a0"), sg.AtomV("b0")))
    assert sg.tensor_value(sg.AtomV("a0")) == sg.AtomV("a0")
    assert sg.tensor_value() == sg.UNITV


def test_check_value():
    val = _small_val()
    assert sg.check_value(sg.AtomV("a0"), A, val)
    assert not sg.check_value(sg.AtomV("b0"), A, val)
    assert sg.check_value(sg.InlV(sg.AtomV("a0")), sg.Sum(A, B), val)
    assert sg.check_value(
        sg.ListV((sg.AtomV("a0"), sg.AtomV("a1"))), sg.Stack(A), val
    )
    assert not sg.check_value(sg.ListV((sg.AtomV("b0"),)), sg.Stack(A), val)


def test_enumerate_values_counts():
    val = _small_val()
    assert len(list(sg.enumerate_values(A, val))) == 2
    assert len(list(sg.enumerate_values(sg.tensor_obj(A, B), val))) == 6
    assert len(list(sg.enumerate_values(sg.Sum(A, B), val))) == 5
    assert len(list(sg.enumerate_values(sg.UNIT, val))) == 1


def test_enumerate_values_stack_not_enumerable():
    from fcn.errors import NotEnumerable

    with pytest.raises(NotEnumerable):
        list(sg.enumerate_values(sg.Stack(A), _small_val()))


def test_eval_mor_braid():
    sig, val = _small_sig(), _small_val()
    m = sg.Braid(A, sg.tensor_obj(B, C))
    v = sg.TupleV((sg.AtomV("a0"), sg.AtomV("b0"), sg.AtomV("c0")))
    out = sg.eval_mor(m, v, val, sig)
    assert out == sg.TupleV((sg.AtomV("b0"), sg.AtomV("c0"), sg.AtomV("a0")))


def test_eval_mor_braid_involution():
    sig, val = _small_sig(), _small_val()
    m = sg.Compose(sg.Braid(A, B), sg.Braid(B, A))
    for va in val.carrier_values("a"):
        for vb in val.carrier_values("b"):
            v = sg.tensor_value(va, vb)
            assert sg.eval_mor(m, v, val, sig) == v


def test_eval_mor_dist_round_trip():
    sig, val = _small_sig(), _small_val()
    dom = sg.tensor_obj(sg.Sum(A, B), C)
    there = sg.DistR(A, B, C)
    back = sg.UndistR(A, B, C)
    for v in sg.enumerate_values(dom, val):
        image = sg.eval_mor(there, v, val, sig)
        assert sg.check_value(image, sg.Sum(sg.tensor_obj(A, C), sg.tensor_obj(B, C)), val)
        assert sg.eval_mor(back, image, val, sig) == v


@pytest.mark.parametrize(
    "dist, undist", [(sg.DistR, sg.UndistR), (sg.DistL, sg.UndistL)], ids=["R", "L"]
)
def test_distributors_are_inverse_on_every_value(dist, undist):
    # units and tensors included, so a factor put on the wrong side shows
    sig, val = _small_sig(), _small_val()
    parts = [A, B, sg.UNIT, sg.tensor_obj(A, C)]
    for a, b, c in itertools.product(parts, repeat=3):
        there, back = dist(a, b, c), undist(a, b, c)
        dom, cod = sg.infer_mor_type(there, sig)
        assert sg.infer_mor_type(back, sig) == (cod, dom)
        for v in sg.enumerate_values(dom, val):
            image = sg.eval_mor(there, v, val, sig)
            assert sg.check_value(image, cod, val)
            assert sg.eval_mor(back, image, val, sig) == v
        for w in sg.enumerate_values(cod, val):
            image = sg.eval_mor(back, w, val, sig)
            assert sg.check_value(image, dom, val)
            assert sg.eval_mor(there, image, val, sig) == w


def test_eval_mor_stack_ops():
    sig, val = _small_sig(), _small_val()
    a0, a1 = sg.AtomV("a0"), sg.AtomV("a1")
    nil = sg.eval_mor(sg.Nil(A), sg.UNITV, val, sig)
    assert nil == sg.ListV(())
    one = sg.eval_mor(sg.Push(A), sg.tensor_value(a0, nil), val, sig)
    assert one == sg.ListV((a0,))
    two = sg.eval_mor(sg.Push(A), sg.tensor_value(a1, one), val, sig)
    assert sg.eval_mor(sg.Pop(A), two, val, sig) == sg.InrV(
        sg.tensor_value(a1, one)
    )
    assert sg.eval_mor(sg.Pop(A), nil, val, sig) == sg.InlV(sg.UNITV)


def test_infer_mor_type_mismatch():
    sig = _small_sig()
    sig.declare_morphism("f", A, B)
    with pytest.raises(CompositionMismatch):
        sg.infer_mor_type(sg.Compose(sg.GenMor("f"), sg.GenMor("f")), sig)


def test_morphism_keeps_its_first_type():
    sig = _small_sig()
    sig.declare_morphism("f", A, sg.Tensor((B, sg.UNIT)))
    sig.declare_morphism("f", sg.Tensor((sg.UNIT, A)), B)  # the same type
    with pytest.raises(FcnError, match="morphism f declared again"):
        sig.declare_morphism("f", A, C)
    assert sig.morphisms["f"] == (A, B)


def test_infer_mor_type_structural():
    sig = _small_sig()
    dom, cod = sg.infer_mor_type(sg.DistL(A, B, C), sig)
    assert dom == sg.tensor_obj(C, sg.Sum(A, B))
    assert cod == sg.Sum(sg.tensor_obj(C, A), sg.tensor_obj(C, B))
    dom, cod = sg.infer_mor_type(sg.Pop(A), sig)
    assert dom == sg.Stack(A)
    assert cod == sg.Sum(sg.UNIT, sg.tensor_obj(A, sg.Stack(A)))
