import re

import pytest
from hypothesis import given, strategies as st

from cateff.grading import build_category
from cateff.signature import (
    Arrow, GradedSignature, InlV, InrV, NonComparable, OpDecl, PairV, Prod,
    STAR, SignatureError, Star, Sum, UNIT, enumerate_type, is_primitive, FunV,
)

BOOL = Sum(UNIT, UNIT)


def trivial_cat(name="Triv"):
    return build_category(name, ["z"], [])


def test_session_signature_builds(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    assert set(sig.ops) == {"recvint_1", "recvint_int", "sendint",
                            "lookupint", "updateint_1", "updateint_int"}
    assert str(sig["lookupint"].grade) == "id(int)"
    assert sig["updateint_1"].grade.path == ("tau_1_int",)


def test_empty_signature_over_trivial_category():
    sig = GradedSignature("Empty", trivial_cat(), [])
    assert not sig.ops
    assert "anything" not in sig


def test_op_graded_in_another_category_is_rejected():
    cat, other = trivial_cat(), trivial_cat("Other")
    with pytest.raises(SignatureError,
                       match="operation op: grade is not a morphism of Triv"):
        GradedSignature("Bad", cat,
                        [OpDecl("op", UNIT, UNIT, other.identity("z"))])


def test_non_primitive_parameter_is_rejected():
    cat = trivial_cat()
    arrow = Arrow(UNIT, UNIT, cat.identity("z"))
    with pytest.raises(SignatureError,
                       match="operation op: parameter not primitive"):
        GradedSignature("Bad", cat, [OpDecl("op", arrow, UNIT, cat.identity("z"))])
    with pytest.raises(SignatureError,
                       match="operation op: arity not primitive"):
        GradedSignature("Bad", cat, [OpDecl("op", UNIT, arrow, cat.identity("z"))])


def test_duplicate_operation_is_rejected():
    cat = trivial_cat()
    op = OpDecl("op", UNIT, UNIT, cat.identity("z"))
    with pytest.raises(SignatureError, match="operation 'op' declared twice"):
        GradedSignature("Bad", cat, [op, op])


def test_enumerate_unit():
    assert enumerate_type(UNIT) == (STAR,)


def test_enumerate_two_element_sum():
    assert enumerate_type(BOOL) == (InlV(STAR), InrV(STAR))


def test_enumerate_product_is_lexicographic_left_major():
    vals = enumerate_type(Prod(BOOL, BOOL))
    assert vals == (PairV(InlV(STAR), InlV(STAR)),
                    PairV(InlV(STAR), InrV(STAR)),
                    PairV(InrV(STAR), InlV(STAR)),
                    PairV(InrV(STAR), InrV(STAR)))


def test_enumerate_sum_lists_left_before_right():
    vals = enumerate_type(Sum(BOOL, UNIT))
    assert vals == (InlV(InlV(STAR)), InlV(InrV(STAR)), InrV(STAR))


def test_enumerate_rejects_arrows():
    cat = trivial_cat()
    with pytest.raises(SignatureError,
                       match=re.escape("cannot enumerate non-primitive "
                                       "type 1 -> 1 @ id(z)")):
        enumerate_type(Arrow(UNIT, UNIT, cat.identity("z")))


prim_types = st.recursive(
    st.just(UNIT),
    lambda sub: st.builds(Prod, sub, sub) | st.builds(Sum, sub, sub),
    max_leaves=16)


@given(prim_types)
def test_enumeration_is_duplicate_free_and_obeys_cardinality_laws(t):
    vals = enumerate_type(t)
    assert len(set(vals)) == len(vals)
    if isinstance(t, Prod):
        assert len(vals) == len(enumerate_type(t.left)) * len(enumerate_type(t.right))
    if isinstance(t, Sum):
        assert len(vals) == len(enumerate_type(t.left)) + len(enumerate_type(t.right))


@given(prim_types)
def test_enumeration_is_deterministic(t):
    assert enumerate_type(t) == enumerate_type(t)
    assert is_primitive(t)


def test_function_values_refuse_equality():
    f = FunV(lambda v: v)
    with pytest.raises(NonComparable):
        f == f  # noqa: B015 - the comparison itself is the test
    assert isinstance(Star(), Star)
