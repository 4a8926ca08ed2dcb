from cateff.conformance import TermGenerator
from cateff.denote import (
    denote_computation, denote_handler, denote_program, denote_value,
)
from cateff.eval import run_program, Terminal
from cateff.freemodel import (
    Coerce, Leaf, Node, grade_of, graft,
)
from cateff.parser import parse_bundle
from cateff.signature import (
    FunV, InlV, InrV, PairV, STAR, Sum, UNIT, enumerate_type,
)
from cateff.terms import Lam, Let, OpCall, StarV, Val, Var, substitute
from cateff.typecheck import grade_of_computation
from conftest import node

BOOL = Sum(UNIT, UNIT)
INT4 = Sum(UNIT, Sum(UNIT, Sum(UNIT, UNIT)))


def test_variable_denotes_projection(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    v = denote_value(("x", "y"), Var("y"), (STAR, InlV(STAR)), sig)
    assert v == InlV(STAR)
    # rightmost binding wins under shadowing
    v = denote_value(("x", "x"), Var("x"), (InlV(STAR), InrV(STAR)), sig)
    assert v == InrV(STAR)


def test_pair_of_stars_denotes_pair_value(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    from cateff.terms import Pair
    assert denote_value((), Pair(StarV(), StarV()), (), sig) == PairV(STAR, STAR)


def test_identity_lambda_denotes_leaf_maker_on_all_inputs(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    cat = sig.category
    lam = Lam(cat.identity("int"), "x", INT4, Val("int", Var("x")))
    fv = denote_value((), lam, (), sig)
    assert isinstance(fv, FunV)
    for w in enumerate_type(INT4):
        assert fv(w) == Leaf("int", w)


def test_val_denotes_a_leaf(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    assert denote_computation((), Val("one", StarV()), (), sig) == Leaf("one", STAR)


def test_op_call_denotes_one_layer_tree(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    tree = denote_computation((), OpCall("recvint_int", StarV()), (), sig)
    assert isinstance(tree, Node)
    assert tree.op == "recvint_int"
    assert tree.param == STAR
    assert tree.children == (Leaf("int", STAR),)
    lookup = denote_computation((), OpCall("lookupint", StarV()), (), sig)
    assert [leaf.val for leaf in lookup.children] == list(enumerate_type(INT4))


def test_let_relabelling_by_identity_equals_the_bound_tree(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    bound = OpCall("lookupint", StarV())
    term = Let("x", bound, Val("int", Var("x")))
    assert denote_computation((), term, (), sig) == \
        denote_computation((), bound, (), sig)


def test_monad_laws_on_generated_terms(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    gen = TermGenerator(sig, seed=13)
    for _ in range(60):
        term = gen.gen_comp((), 3, None)
        ty, grade = grade_of_computation((), term, sig)
        # right unit: let x <- M in val x
        wrapped = Let("rx", term, Val(grade.cod, Var("rx")))
        assert denote_computation((), wrapped, (), sig) == \
            denote_computation((), term, (), sig)
        # left unit: let x <- val V in N  =  N[V/x]
        value = gen.gen_value((), BOOL)
        body = gen.gen_comp((("lx", BOOL),), 2, None)
        dom = grade_of_computation((("lx", BOOL),), body, sig)[1].dom
        left = Let("lx", Val(dom, value), body)
        assert denote_computation((), left, (), sig) == \
            denote_computation((), substitute(body, {"lx": value}), (), sig)


def test_denotation_grade_matches_checked_grade(session_bundle, pair_bundle,
                                                mutstore_bundle, widened_bundle):
    for bundle in (session_bundle, pair_bundle, mutstore_bundle, widened_bundle):
        for prog in bundle.programs.values():
            _, grade = grade_of_computation((), prog.body, prog.signature)
            tree = denote_program(prog)
            assert grade_of(tree, prog.signature.category) == grade
    sig = session_bundle.signatures["SessionSig"]
    gen = TermGenerator(sig, seed=17)
    for _ in range(100):
        term = gen.gen_program(4)
        _, grade = grade_of_computation((), term, sig)
        assert grade_of(denote_computation((), term, (), sig), sig.category) == grade


def test_handler_fold_sends_leaves_through_the_return_clause(pair_bundle):
    handler = pair_bundle.handlers["pairup"]
    fold = denote_handler(handler)
    payload = PairV(InlV(STAR), InrV(STAR))
    assert fold(Leaf("e", payload)) == Leaf("pt", payload)


def test_handler_fold_agrees_with_the_operational_result(pair_bundle):
    # fold of the handled tree equals the denotation of the run's value
    prog_n = pair_bundle.programs["pair_n"]
    handler = pair_bundle.handlers["pairup"]
    fold = denote_handler(handler)
    folded = fold(denote_program(prog_n))
    trace = run_program(pair_bundle.programs["pair_main"])
    final = trace.configs[-1]
    sig = pair_bundle.signatures["PointSig"]
    assert folded == denote_computation((), final, (), sig)
    assert folded == Leaf("pt", PairV(InlV(STAR), InrV(STAR)))


def test_identity_handler_fold_is_identity_on_leaves():
    src = """
    category C { objects a; }
    category D { objects b; }
    functor F : C -> D { obj a => b; }
    signature S over C { }
    signature T over D { }
    handler ident over S to T via F at a : 1+1 => 1+1 {
      return x => val b x;
    }
    """
    handler = parse_bundle(src).handlers["ident"]
    fold = denote_handler(handler)
    for v in enumerate_type(BOOL):
        assert fold(Leaf("a", v)) == Leaf("b", v)


def test_fold_commutes_with_graft_for_op_free_clause_bodies():
    src = """
    category Z2 { objects z; gen p : z -> z; gen q : z -> z; }
    category P2 { objects pt; }
    functor FZ : Z2 -> P2 { obj z => pt; gen p => id; gen q => id; }
    signature SZ over Z2 { op s1 : 1 ~> 1 @ p; op s2 : 1 ~> 1+1 @ q; }
    signature SP over P2 { }
    handler drop over SZ to SP via FZ at z : 1+1 => 1+1 {
      return x => val pt x;
      op s1(v), r => r ();
      op s2(v), r => r (inl () : 1+1);
    }
    """
    bundle = parse_bundle(src)
    handler = bundle.handlers["drop"]
    cat = bundle.categories["Z2"]
    p2 = bundle.categories["P2"]
    p, q = cat.morphism(("p",)), cat.morphism(("q",))
    fold = denote_handler(handler)
    t = node("s2", q, STAR, (Leaf("z", InlV(STAR)), Leaf("z", InrV(STAR))))
    phi = lambda v: node("s1", p, STAR, (Leaf("z", v),))
    lhs = fold(graft(t, phi, cat))
    rhs = graft(fold(t), lambda v: fold(phi(v)), p2)
    assert lhs == rhs


def test_weakening_denotes_coercion_nodes(widened_bundle):
    tree = denote_program(widened_bundle.programs["widened"])
    assert isinstance(tree, Coerce)
    assert str(tree.r) == "up"
    assert isinstance(tree.child, Node) and tree.child.op == "tick"
    pure = denote_program(widened_bundle.programs["widened_pure"])
    assert pure == Coerce(tree.r, Leaf("hi", STAR))


def test_post_weakening_coerces_at_the_leaves():
    src = """
    category C { objects a, b; gen w1 : a -> b; wide w1; }
    signature S over C { }
    program post over S : 1 @ w1 {
      weaken id(a) { val a () } w1
    }
    """
    bundle = parse_bundle(src)
    from cateff.typecheck import check_bundle
    check_bundle(bundle)
    tree = denote_program(bundle.programs["post"])
    cat = bundle.categories["C"]
    assert tree == Coerce(cat.morphism(("w1",)), Leaf("b", STAR))


def test_nested_weakenings_collapse_in_the_denotation():
    src = """
    category C { objects a; gen w : a -> a; wide w; }
    signature S over C { }
    program nested over S : 1 @ w.w {
      weaken w { weaken w { val a () } id(a) } id(a)
    }
    """
    bundle = parse_bundle(src)
    from cateff.typecheck import check_bundle
    check_bundle(bundle)
    tree = denote_program(bundle.programs["nested"])
    cat = bundle.categories["C"]
    assert tree == Coerce(cat.morphism(("w", "w")), Leaf("a", STAR))


def test_handler_fold_recoerces_along_the_functor():
    src = """
    category C { objects z; gen p : z -> z; gen w : z -> z; wide w; }
    category D { objects pt; }
    functor F : C -> D { obj z => pt; gen p => id; gen w => id; }
    signature S over C { op act : 1 ~> 1 @ p; }
    signature T over D { }
    handler h_all over S to T via F at z : 1 => 1 {
      return x => val pt x;
      op act(q), r => r ();
    }
    program weakened_handle over T : 1 @ id(pt) {
      handle (weaken w { do act(()) } id(z)) with h_all
    }
    """
    bundle = parse_bundle(src)
    from cateff.typecheck import check_bundle
    check_bundle(bundle)
    # evaluation of this program is blocked, but its denotation exists and
    # the functor collapses the coercion
    tree = denote_program(bundle.programs["weakened_handle"])
    assert tree == Leaf("pt", STAR)


def test_denotational_soundness_for_mutstore_main(mutstore_bundle):
    prog = mutstore_bundle.programs["main"]
    before = denote_program(prog)
    trace = run_program(prog)
    sig = prog.signature
    final = trace.configs[-1]
    assert isinstance(trace.final, Terminal)
    assert denote_computation((), final, (), sig) == before
