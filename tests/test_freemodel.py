import pytest

from cateff.denote import denote_computation
from cateff.freemodel import (
    Coerce, GradeHeterogeneous, Leaf, Node, coerce, grade_of, graft,
    tree_to_json, unit_leaf,
)
from cateff.grading import build_category, compose
from cateff.signature import (
    InlV, InrV, NonComparable, STAR, Sum, UNIT, FunV,
)
from cateff.conformance import TermGenerator
from conftest import node

BOOL = Sum(UNIT, UNIT)
A, B = InlV(STAR), InrV(STAR)


def one_object_cat():
    return build_category("Z", ["z"], [("p", "z", "z"), ("q", "z", "z")])


def test_unit_leaf_has_identity_grade():
    cat = one_object_cat()
    leaf = unit_leaf("z", STAR, cat)
    assert grade_of(leaf, cat) == cat.identity("z")


def test_graft_left_unit_law():
    # grafting phi onto a bare leaf is just phi at the payload
    cat = one_object_cat()
    p = cat.morphism(("p",))
    phi = {STAR: node("sigma", p, STAR, (unit_leaf("z", STAR),))}
    assert graft(unit_leaf("z", STAR), phi.__getitem__, cat) == phi[STAR]


def test_graft_right_unit_law():
    cat = one_object_cat()
    p, q = cat.morphism(("p",)), cat.morphism(("q",))
    t = node("delta", q, STAR,
                  (node("sigma", p, A, (unit_leaf("z", A),)),
                   node("sigma", p, B, (unit_leaf("z", B),))))
    assert graft(t, lambda x: unit_leaf("z", x), cat) == t


def test_graft_two_leaf_node_against_hand_expanded_tree():
    cat = one_object_cat()
    p, q = cat.morphism(("p",)), cat.morphism(("q",))
    two_leaf = node("delta", q, STAR,
                         (unit_leaf("z", A), unit_leaf("z", B)))
    phi = lambda x: node("sigma", p, x, (unit_leaf("z", x),))
    expected = Node("delta", q, STAR, p,
                    (Node("sigma", p, A, cat.identity("z"), (Leaf("z", A),)),
                     Node("sigma", p, B, cat.identity("z"), (Leaf("z", B),))))
    grafted = graft(two_leaf, phi, cat)
    assert grafted == expected
    assert grade_of(grafted, cat) == compose(q, p)


def test_graft_rejects_mixed_grades():
    cat = one_object_cat()
    p, q = cat.morphism(("p",)), cat.morphism(("q",))
    two_leaf = node("delta", q, STAR,
                         (unit_leaf("z", A), unit_leaf("z", B)))
    images = {A: node("sigma", p, STAR, (unit_leaf("z", STAR),)),
              B: node("tau", q, STAR, (unit_leaf("z", STAR),))}
    with pytest.raises(GradeHeterogeneous):
        graft(two_leaf, images.__getitem__, cat)


def test_graft_associativity_on_generated_trees(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    cat = sig.category
    gen = TermGenerator(sig, seed=21)
    idm = cat.identity("int")
    phi = lambda x: unit_leaf("int", InlV(x) if not isinstance(x, InlV) else x)
    psi = lambda x: node("lookupint", idm, STAR,
                              tuple(unit_leaf("int", v)
                                    for v in _int_values()))
    count = 0
    for _ in range(40):
        term = gen.gen_comp((), 3, "int")
        tree = denote_computation((), term, (), sig)
        left = graft(graft(tree, phi, cat), psi, cat)
        right = graft(tree, lambda x: graft(phi(x), psi, cat), cat)
        assert left == right
        count += 1
    assert count == 40


def _int_values():
    from cateff.signature import enumerate_type, Sum, UNIT
    return enumerate_type(Sum(UNIT, Sum(UNIT, Sum(UNIT, UNIT))))


def test_coerce_collapses_nested_and_identity():
    cat = build_category("W", ["a", "b", "c"],
                         [("u", "a", "b"), ("v", "b", "c")], wide=["u", "v"])
    leaf = unit_leaf("c", STAR)
    u, v = cat.morphism(("u",)), cat.morphism(("v",))
    nested = coerce(u, coerce(v, leaf))
    assert nested == Coerce(compose(u, v), leaf)
    assert coerce(cat.identity("c"), leaf) == leaf
    # collapsing in either order gives the same tree
    assert coerce(u, coerce(v, leaf)) == coerce(compose(u, v), leaf)


def test_tree_serialization_shape():
    cat = one_object_cat()
    p = cat.morphism(("p",))
    tree = coerce(p, node("sigma", p, A, (unit_leaf("z", STAR),)))
    assert tree_to_json(tree) == {
        "coerce": {"r": "p", "child": {
            "node": {"op": "sigma", "param": ["inl", "*"], "k": "id(z)",
                     "children": [{"leaf": {"obj": "z", "val": "*"}}]}}}}


def test_function_payloads_make_trees_noncomparable():
    t1 = unit_leaf("z", FunV(lambda v: unit_leaf("z", v)))
    t2 = unit_leaf("z", FunV(lambda v: unit_leaf("z", v)))
    with pytest.raises(NonComparable):
        t1 == t2
    with pytest.raises(NonComparable):
        tree_to_json(t1)

