from itertools import product

import pytest

from cateff.denote import denote_computation
from cateff.freemodel import (
    Coerce, FiniteModel, GradeHeterogeneous, Leaf, MissingInterp, Node,
    check_equations, coerce, free_extension, grade_of, graft, interpret,
    make_node, tree_to_json, unit_leaf,
)
from cateff.grading import build_category, compose
from cateff.signature import (
    InlV, InrV, NonComparable, STAR, Sum, UNIT, FunV,
)
from cateff.conformance import TermGenerator

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
    phi = {STAR: make_node("sigma", p, STAR, (unit_leaf("z", STAR),))}
    assert graft(unit_leaf("z", STAR), phi.__getitem__, cat) == phi[STAR]


def test_graft_right_unit_law():
    cat = one_object_cat()
    p, q = cat.morphism(("p",)), cat.morphism(("q",))
    t = make_node("delta", q, STAR,
                  (make_node("sigma", p, A, (unit_leaf("z", A),)),
                   make_node("sigma", p, B, (unit_leaf("z", B),))))
    assert graft(t, lambda x: unit_leaf("z", x), cat) == t


def test_graft_two_leaf_node_against_hand_expanded_tree():
    cat = one_object_cat()
    p, q = cat.morphism(("p",)), cat.morphism(("q",))
    two_leaf = make_node("delta", q, STAR,
                         (unit_leaf("z", A), unit_leaf("z", B)))
    phi = lambda x: make_node("sigma", p, x, (unit_leaf("z", x),))
    expected = Node("delta", q, STAR, p,
                    (Node("sigma", p, A, cat.identity("z"), (Leaf("z", A),)),
                     Node("sigma", p, B, cat.identity("z"), (Leaf("z", B),))))
    grafted = graft(two_leaf, phi, cat)
    assert grafted == expected
    assert grade_of(grafted, cat) == compose(q, p)


def test_graft_rejects_mixed_grades():
    cat = one_object_cat()
    p, q = cat.morphism(("p",)), cat.morphism(("q",))
    two_leaf = make_node("delta", q, STAR,
                         (unit_leaf("z", A), unit_leaf("z", B)))
    images = {A: make_node("sigma", p, STAR, (unit_leaf("z", STAR),)),
              B: make_node("tau", q, STAR, (unit_leaf("z", STAR),))}
    with pytest.raises(GradeHeterogeneous):
        graft(two_leaf, images.__getitem__, cat)


def test_graft_associativity_on_generated_trees(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    cat = sig.category
    gen = TermGenerator(sig, seed=21)
    idm = cat.identity("int")
    phi = lambda x: unit_leaf("int", InlV(x) if not isinstance(x, InlV) else x)
    psi = lambda x: make_node("lookupint", idm, STAR,
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
    tree = coerce(p, make_node("sigma", p, A, (unit_leaf("z", STAR),)))
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


# -- finite models ------------------------------------------------------------

def unary_model(cat, sizes=(2, 2, 2), interp_id=None, interp_p=None):
    """Carriers for id, p, p;p and a unary op sigma graded p."""
    idz, p = cat.identity("z"), cat.morphism(("p",))
    pp = compose(p, p)
    carrier = {idz: tuple(range(sizes[0])), p: tuple(range(sizes[1])),
               pp: tuple(range(sizes[2]))}
    interp = {
        ("sigma", idz): interp_id or (lambda prm, ch: ch[0] % sizes[1]),
        ("sigma", p): interp_p or (lambda prm, ch: ch[0] % sizes[2]),
    }
    return FiniteModel("z", carrier, interp)


def test_interpret_leaf_is_environment_lookup():
    cat = one_object_cat()
    model = unary_model(cat)
    leaf = unit_leaf("z", STAR)
    assert interpret(leaf, model, cat.identity("z"), {STAR: 1}) == 1


def test_interpret_one_layer_node():
    cat = one_object_cat()
    p = cat.morphism(("p",))
    model = unary_model(cat, interp_id=lambda prm, ch: (ch[0] + 1) % 2)
    tree = make_node("sigma", p, STAR, (unit_leaf("z", STAR),))
    assert interpret(tree, model, cat.identity("z"), {STAR: 0}) == 1


def test_interpret_of_graft_is_interpret_through_composed_environment():
    # exhaustive over every environment on a two-operation model
    cat = one_object_cat()
    idz, p, q = cat.identity("z"), cat.morphism(("p",)), cat.morphism(("q",))
    carrier = {idz: (0, 1, 2), p: (0, 1), q: (0, 1, 2),
               compose(q, p): (0, 1, 2)}
    interp = {
        ("sigma", idz): lambda prm, ch: (ch[0] * 2) % 2,
        ("sigma", p): lambda prm, ch: (ch[0] + 1) % 3,  # unused spare
        ("delta", p): lambda prm, ch: (ch[0] + 2 * ch[1]) % 3,
        ("delta", idz): lambda prm, ch: (ch[0] + ch[1]) % 3,
    }
    model = FiniteModel("z", carrier, interp)
    two_leaf = make_node("delta", q, STAR, (unit_leaf("z", A), unit_leaf("z", B)))
    phi = lambda x: make_node("sigma", p, x, (unit_leaf("z", x),))
    grafted = graft(two_leaf, phi, cat)
    for e_a, e_b in product(carrier[idz], repeat=2):
        env = {A: e_a, B: e_b}
        via_graft = interpret(grafted, model, idz, env)
        composed_env = {x: interpret(phi(x), model, idz, env) for x in (A, B)}
        via_compose = interpret(two_leaf, model, p, composed_env)
        assert via_graft == via_compose


def test_interpret_at_each_k_uses_that_ks_environment():
    cat = one_object_cat()
    idz, p = cat.identity("z"), cat.morphism(("p",))
    model = unary_model(cat, interp_id=lambda prm, ch: ch[0],
                        interp_p=lambda prm, ch: (ch[0] + 1) % 2)
    tree = make_node("sigma", p, STAR, (unit_leaf("z", STAR),))
    envs = {idz: {STAR: 1}, p: {STAR: 0}}
    assert {k: interpret(tree, model, k, env) for k, env in envs.items()} \
        == {idz: 1, p: 1}


def test_free_extension_triangle_law():
    cat = one_object_cat()
    model = unary_model(cat)
    phi = {A: 0, B: 1}
    ext = free_extension(phi, model)
    for x in (A, B):
        assert ext(unit_leaf("z", x)) == phi[x]


def test_free_extension_is_a_homomorphism():
    cat = one_object_cat()
    idz, p = cat.identity("z"), cat.morphism(("p",))
    model = unary_model(cat, sizes=(3, 3, 3),
                        interp_id=lambda prm, ch: (ch[0] + 1) % 3,
                        interp_p=lambda prm, ch: (2 * ch[0]) % 3)
    phi = {STAR: 2}
    ext = free_extension(phi, model)
    for depth1 in [make_node("sigma", p, STAR, (unit_leaf("z", STAR),))]:
        assert ext(depth1) == model.interp[("sigma", idz)](STAR, (phi[STAR],))
        depth2 = make_node("sigma", p, STAR, (depth1,))
        assert ext(depth2) == model.interp[("sigma", p)](STAR, (ext(depth1),))


def test_free_extension_unique_among_leaf_agreeing_homomorphisms():
    # every candidate assignment on depth<=2 trees that agrees on leaves and
    # commutes with the interpretation equals the free extension
    cat = one_object_cat()
    idz, p = cat.identity("z"), cat.morphism(("p",))
    model = unary_model(cat, sizes=(2, 3, 2),
                        interp_id=lambda prm, ch: (ch[0] + 1) % 3,
                        interp_p=lambda prm, ch: ch[0] % 2)
    phi = {STAR: 1}
    ext = free_extension(phi, model)
    t0 = unit_leaf("z", STAR)
    t1 = make_node("sigma", p, STAR, (t0,))
    t2 = make_node("sigma", p, STAR, (t1,))
    pp = compose(p, p)
    survivors = []
    for c0, c1, c2 in product(model.carrier[idz], model.carrier[p],
                              model.carrier[pp]):
        cand = {id(t0): c0, id(t1): c1, id(t2): c2}
        if cand[id(t0)] != phi[STAR]:
            continue
        if cand[id(t1)] != model.interp[("sigma", idz)](STAR, (cand[id(t0)],)):
            continue
        if cand[id(t2)] != model.interp[("sigma", p)](STAR, (cand[id(t1)],)):
            continue
        survivors.append((c0, c1, c2))
    assert survivors == [(ext(t0), ext(t1), ext(t2))]


def test_missing_interp_is_reported():
    cat = one_object_cat()
    q = cat.morphism(("q",))
    model = unary_model(cat)
    tree = make_node("rho", q, STAR, (unit_leaf("z", STAR),))
    with pytest.raises(MissingInterp):
        free_extension({STAR: 0}, model)(tree)


def test_coercions_have_no_finite_model_interpretation():
    cat = build_category("W", ["a"], [("u", "a", "a")], wide=["u"])
    u = cat.morphism(("u",))
    model = FiniteModel("a", {cat.identity("a"): (0,)}, {})
    with pytest.raises(MissingInterp):
        interpret(coerce(u, unit_leaf("a", STAR)), model, cat.identity("a"),
                  {STAR: 0})


# -- equations ----------------------------------------------------------------

def update_lookup_equation(cat):
    """update(v0); lookup(k) = update(v0); k(v0) over variables x0, x1."""
    idz = cat.identity("z")
    x0, x1 = InlV(STAR), InrV(STAR)
    look = make_node("look", idz, STAR, (unit_leaf("z", x0), unit_leaf("z", x1)))
    lhs = make_node("upd", idz, InlV(STAR), (look,))
    rhs = make_node("upd", idz, InlV(STAR), (unit_leaf("z", x0),))
    return lhs, rhs


def state_model(cat, honest):
    idz = cat.identity("z")
    carrier = {idz: (0, 1)}
    interp = {
        ("upd", idz): lambda prm, ch: ch[0],
        # an honest lookup continues with the branch for the written value
        # (inl = index 0); the broken one always reads the other branch
        ("look", idz): (lambda prm, ch: ch[0]) if honest else
                       (lambda prm, ch: ch[1]),
    }
    return FiniteModel("z", carrier, interp)


def test_empty_equation_set_is_satisfied_by_everything():
    cat = build_category("T", ["z"], [])
    model = FiniteModel("z", {cat.identity("z"): (0,)}, {})
    assert check_equations([], model, cat) == []


def test_reflexive_equation_is_satisfied():
    cat = build_category("T", ["z"], [])
    lhs, _ = update_lookup_equation(cat)
    model = state_model(cat, honest=True)
    assert check_equations([(lhs, lhs)], model, cat) == []


def test_violating_model_is_reported_with_witness_environment():
    cat = build_category("T", ["z"], [])
    eq = update_lookup_equation(cat)
    assert check_equations([eq], state_model(cat, honest=True), cat) == []
    violations = check_equations([eq], state_model(cat, honest=False), cat)
    assert violations
    witness = violations[0]
    assert witness["equation"] == 0
    env = witness["env"]
    assert witness["lhs"] == env[InrV(STAR)]
    assert witness["rhs"] == env[InlV(STAR)]


def test_equation_sides_must_share_a_grade():
    cat = one_object_cat()
    p, q = cat.morphism(("p",)), cat.morphism(("q",))
    lhs = make_node("sigma", p, STAR, (unit_leaf("z", STAR),))
    rhs = make_node("sigma", q, STAR, (unit_leaf("z", STAR),))
    model = unary_model(cat)
    with pytest.raises(GradeHeterogeneous):
        check_equations([(lhs, rhs)], model, cat)
