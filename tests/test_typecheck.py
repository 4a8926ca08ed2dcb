import importlib
import sys
import time
from pathlib import Path

import pytest

from cateff import typecheck
from cateff.conformance import TermGenerator
from cateff.eval import HandleFrame, RedexAt, decompose, rebuild, run_program
from cateff.grading import compose
from cateff.parser import parse_bundle
from cateff.signature import Arrow, Prod, Sum, UNIT
from cateff.terms import (
    App, Handle, Lam, Let, OpCall, StarV, Val, Var, substitute,
)
from cateff.typecheck import (
    GradeMismatch, MissingClause, NonPrimitiveCapturedVariable,
    ObjectMismatch, TypeMismatch, UnboundVariable, check_bundle,
    check_handler, check_program, grade_of_computation, type_of_value,
)

BOOL = Sum(UNIT, UNIT)


def test_star_has_unit_type(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    assert type_of_value((), StarV(), sig) == UNIT


def test_unbound_variable(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    with pytest.raises(UnboundVariable):
        type_of_value((), Var("ghost"), sig)


def test_identity_lambda_types_at_its_annotation(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    cat = sig.category
    lam = Lam(cat.identity("int"), "x", UNIT, Val("int", Var("x")))
    assert type_of_value((), lam, sig) == Arrow(UNIT, UNIT, cat.identity("int"))


def test_lambda_with_wrong_grade_annotation_rejected(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    cat = sig.category
    lam = Lam(cat.morphism(("send_int",)), "x", UNIT, Val("int", Var("x")))
    with pytest.raises(GradeMismatch):
        type_of_value((), lam, sig)


def test_session_programs_check_at_declared_grades(session_bundle):
    judgements = check_bundle(session_bundle)
    assert str(judgements["t"].grade) == "tau_1_int;send_int;recv_int_int"
    assert str(judgements["s"].grade) == "recv_1_int;send_int"


def test_noncomposable_let_is_a_grade_mismatch(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    term = Let("x", Val("one", StarV()), Val("int", Var("x")))
    with pytest.raises(GradeMismatch):
        grade_of_computation((), term, sig)


def test_case_branches_must_agree_on_grade():
    src = """
    category C { objects a; gen f : a -> a; }
    signature S over C { op tick : 1 ~> 1 @ f; }
    program p over S : 1 @ f {
      case (inl () : 1+1) of inl x => do tick(()) | inr y => val a ()
    }
    """
    with pytest.raises(GradeMismatch):
        check_bundle(parse_bundle(src))


def test_case_branches_must_agree_on_type():
    src = """
    category C { objects a; }
    signature S over C { }
    program p over S : 1 @ id(a) {
      case (inl () : 1+1) of inl x => val a () | inr y => val a (y, y)
    }
    """
    with pytest.raises(TypeMismatch):
        check_bundle(parse_bundle(src))


def test_handler_profile_of_pairup(pair_bundle):
    handler = pair_bundle.handlers["pairup"]
    profile = check_handler(handler)
    assert profile.at_obj == "e"
    assert str(profile.in_type) == "(1+1)*(1+1)"
    assert str(profile.out_type) == "(1+1)*(1+1)"
    assert profile.functor.name == "Collapse"


def test_handled_pair_program_checks_at_identity(pair_bundle):
    judgements = check_bundle(pair_bundle)
    assert str(judgements["pair_n"].grade) == "g;h"
    assert str(judgements["pair_main"].grade) == "id(pt)"


def test_mutable_store_profiles(mutstore_bundle):
    for name, at in (("store_one", "one"), ("store_A", "A"), ("store_B", "B")):
        profile = check_handler(mutstore_bundle.handlers[name])
        assert profile.at_obj == at
        assert str(profile.out_type) == "1+(1+1)+1+1+1"
    judgements = check_bundle(mutstore_bundle)
    assert str(judgements["plan"].grade) == "f_one_A;f_A_B"
    assert str(judgements["staged"].grade) == "id(m)"
    assert str(judgements["main"].grade) == "id(z)"


def test_empty_signature_identity_handler_has_identity_profile():
    src = """
    category C { objects a; }
    category D { objects b; }
    functor F : C -> D { obj a => b; }
    signature S over C { }
    signature T over D { }
    handler ident over S to T via F at a : 1+1 => 1+1 {
      return x => val b x;
    }
    program p over T : 1+1 @ id(b) {
      handle (val a (inl () : 1+1)) with ident
    }
    """
    bundle = parse_bundle(src)
    profile = check_handler(bundle.handlers["ident"])
    assert profile.in_type == profile.out_type == BOOL
    assert str(check_bundle(bundle)["p"].grade) == "id(b)"


def test_handled_term_capturing_function_variable_is_rejected(pair_bundle):
    sig = pair_bundle.signatures["PointSig"]
    handler = pair_bundle.handlers["pairup"]
    cat = sig.category
    fn_type = Arrow(UNIT, UNIT, cat.identity("pt"))
    term = Handle(Let("q", App(Var("fv"), StarV()), Val("e", StarV())), handler)
    with pytest.raises(NonPrimitiveCapturedVariable):
        grade_of_computation((("fv", fn_type),), term, sig)


def test_handle_object_mismatch(pair_bundle):
    sig = pair_bundle.signatures["PointSig"]
    handler = pair_bundle.handlers["pairup"]
    # op1 alone ends at d, not at the handler's object e
    term = Handle(Let("x", OpCall("op1", StarV()),
                      Val("d", Var("x"))), handler)
    with pytest.raises(ObjectMismatch):
        grade_of_computation((), term, sig)


def test_missing_clause_for_undemanded_continuation_grade():
    src = """
    category C { objects z; gen p : z -> z; }
    category D { objects w; }
    functor F : C -> D { obj z => w; gen p => id; }
    signature S over C { op act : 1 ~> 1 @ p; }
    signature T over D { }
    handler only_last over S to T via F at z : 1 => 1 {
      return x => val w x;
      op act(q), r @ id(z) => r ();
    }
    program good over T : 1 @ id(w) {
      handle (let x <- do act(()) in val z ()) with only_last
    }
    program bad over T : 1 @ id(w) {
      handle (let x <- do act(()) in let y <- do act(()) in val z ()) with only_last
    }
    """
    bundle = parse_bundle(src)
    check_program(bundle.programs["good"])
    with pytest.raises(MissingClause) as exc:
        check_program(bundle.programs["bad"])
    assert exc.value.op == "act"
    assert str(exc.value.k) == "p"


def test_dynamic_operation_positions_require_a_default_clause():
    src = """
    category C { objects z; gen p : z -> z; }
    category D { objects w; }
    functor F : C -> D { obj z => w; gen p => id; }
    signature S over C { op act : 1 ~> 1 @ p; }
    signature T over D { }
    handler explicit_only over S to T via F at z : 1 => 1 {
      return x => val w x;
      op act(q), r @ id(z) => r ();
    }
    program tricky over T : 1 @ id(w) {
      handle (
        case (inl (fun^p (u : 1) => do act(u)) : (1 -> 1 @ p)+1) of
          inl f => f ()
        | inr n => do act(n)
      ) with explicit_only
    }
    """
    bundle = parse_bundle(src)
    with pytest.raises(MissingClause):
        check_program(bundle.programs["tricky"])


def test_default_clause_with_an_unbound_variable_is_rejected_at_check_time():
    # the default clause is reached only through a lambda hidden in a pair,
    # so no continuation grade reaches it before the run
    src = """
    category C { objects z; gen p : z -> z; }
    category D { objects w; }
    functor F : C -> D { obj z => w; gen p => id; }
    signature S over C { op act : 1 ~> 1 @ p; }
    signature T over D { }
    handler h over S to T via F at z : 1 => 1 {
      return x => val w x;
      op act(u), r => let q <- val w nope in r ();
    }
    program hidden over T : 1 @ id(w) {
      handle (split ((fun^p (u : 1) => do act(u)), ()) as (f, v) in f ()) with h
    }
    """
    with pytest.raises(UnboundVariable, match="^handler h: unbound variable "
                       "'nope' in the default clause for act$"):
        check_bundle(parse_bundle(src))


def test_let_bound_lambda_continuations_are_collected():
    src = """
    category C { objects z; gen p : z -> z; }
    category D { objects w; }
    functor F : C -> D { obj z => w; gen p => id; }
    signature S over C { op act : 1 ~> 1 @ p; }
    signature T over D { }
    handler two_deep over S to T via F at z : 1 => 1 {
      return x => val w x;
      op act(q), r @ p => r ();
      op act(q), r @ id(z) => r ();
    }
    program lam_site over T : 1 @ id(w) {
      handle (
        let f <- val z (fun^p.p (u : 1) => let a <- do act(u) in do act(a)) in
        f ()
      ) with two_deep
    }
    """
    bundle = parse_bundle(src)
    assert str(check_program(bundle.programs["lam_site"]).grade) == "id(w)"


def test_let_bound_lambda_escaping_through_a_variable_is_dynamic():
    # f is passed to g as data, so act inside f runs at a k only the run
    # knows (here p); only a default clause could cover it
    src = """
    category C { objects z; gen p : z -> z; }
    category D { objects w; }
    functor F : C -> D { obj z => w; gen p => id; }
    signature S over C { op act : 1 ~> 1 @ p; }
    signature T over D { }
    handler last_only over S to T via F at z : 1 => 1 {
      return x => val w x;
      op act(q), r @ id(z) => r ();
    }
    program escape over T : 1 @ id(w) {
      handle (
        let f <- val z (fun^p (u : 1) => do act(())) in
        let g <- val z (fun^p (h : 1 -> 1 @ p) => h ()) in
        let a <- g f in
        let b <- do act(()) in
        val z ()
      ) with last_only
    }
    """
    with pytest.raises(MissingClause) as exc:
        check_bundle(parse_bundle(src))
    assert (exc.value.op, exc.value.k) == ("act", None)


SELF_NESTING = """
category C { objects z; gen p : z -> z; }
functor Id : C -> C { obj z => z; gen p => p; }
signature S over C { op act : 1 ~> 1 @ p; }
handler h over S to S via Id at z : 1 => 1 {
  return x => val z x;
  %s
}
"""


def test_handler_nested_inside_itself_demands_each_depth():
    # each handle node performs act from its clauses, so the outermost
    # site sees act at p;p;p
    clauses = "\n".join(
        f"op act(q), r @ {k} => let u <- do act(()) in r ();"
        for k in ("id(z)", "p", "p.p"))
    src = SELF_NESTING % clauses + """
    program nested over S : 1 @ p.p.p.p {
      handle (let b <- handle (let c <- handle (let a <- do act(()) in
        do act(())) with h in do act(())) with h in do act(())) with h
    }
    """
    with pytest.raises(MissingClause) as exc:
        check_bundle(parse_bundle(src))
    assert exc.value.op == "act"
    assert str(exc.value.k) == "p;p;p"


@pytest.mark.parametrize("outer_clause,checks", [
    ("op act(q), r @ id(z) => r ();", False),
    ("op act(q), r => r ();", True),
], ids=["explicit", "default"])
def test_operations_after_a_resumption_are_dynamic(outer_clause, checks):
    # each clause of h performs act after its resumption returns, so the
    # act of the second clause runs at p from the end of the h node, not at
    # the id(z) its clause body shows
    src = """
    category C { objects z; gen p : z -> z; }
    category D { objects w; }
    functor Id : C -> C { obj z => z; gen p => p; }
    functor F : C -> D { obj z => w; gen p => id; }
    signature S over C { op act : 1 ~> 1 @ p; }
    signature T over D { }
    handler h over S to S via Id at z : 1 => 1 {
      return x => val z x;
      op act(q), r => let x <- r () in do act(());
    }
    handler o over S to T via F at z : 1 => 1 {
      return x => val w x;
      %s
    }
    program after over T : 1 @ id(w) {
      handle (handle (let a <- do act(()) in do act(())) with h) with o
    }
    """ % outer_clause
    bundle = parse_bundle(src)
    if checks:
        check_bundle(bundle)
        assert run_program(bundle.programs["after"]).final.value == StarV()
    else:
        with pytest.raises(MissingClause) as exc:
            check_bundle(bundle)
        assert (exc.value.op, exc.value.k) == ("act", None)


def test_judgement_calls_grow_linearly_on_a_handled_chain(monkeypatch):
    monkeypatch.syspath_prepend(Path(__file__).resolve().parent.parent / "perfbench")
    gen = importlib.import_module("gen")
    calls = [0]
    judge = typecheck.judge

    def counting(*args):
        calls[0] += 1
        return judge(*args)

    monkeypatch.setattr(typecheck, "judge", counting)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))  # the 384-long chain is deep
    try:
        counts = {}
        for n in (192, 384):
            bundle = parse_bundle(gen.chain_case(1, 0, n).text)
            calls[0] = 0
            check_bundle(bundle)
            counts[n] = calls[0]
    finally:
        sys.setrecursionlimit(limit)
    assert counts[384] <= 2.5 * counts[192], counts


def test_deeply_nested_handles_check_quickly():
    body = "do act(())"
    for _ in range(16):
        body = (f"let a <- do act(()) in "
                f"let b <- handle ({body}) with h in do act(())")
    src = SELF_NESTING % "op act(q), r => let u <- do act(()) in r ();" \
        + f"program deep over S : 1 @ {'.'.join(['p'] * 33)} {{ {body} }}"
    bundle = parse_bundle(src)
    start = time.perf_counter()
    judgements = check_bundle(bundle)
    assert time.perf_counter() - start < 2.0
    assert str(judgements["deep"].grade) == ";".join(["p"] * 33)


def test_weakening_outside_wide_subcategory_rejected(widened_bundle):
    src = """
    category Sub { objects lo, hi; gen up : lo -> hi; gen eff : hi -> hi; wide up; }
    signature S over Sub { op tick : 1 ~> 1+1 @ eff; }
    program p over S : 1+1 @ eff.eff { weaken eff { do tick(()) } id(hi) }
    """
    from cateff.typecheck import NotInWideSubcategory
    with pytest.raises(NotInWideSubcategory):
        check_bundle(parse_bundle(src))
    # and the shipped widened theory is fine
    assert str(check_bundle(widened_bundle)["widened"].grade) == "up;eff"


def test_weakening_endpoint_mismatch_is_a_grade_error():
    src = """
    category Sub { objects lo, hi; gen up : lo -> hi; wide up; }
    signature S over Sub { }
    program p over S : 1 @ up { weaken up { val lo () } id(lo) }
    """
    with pytest.raises(GradeMismatch):
        check_bundle(parse_bundle(src))


def test_checking_is_deterministic(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    gen = TermGenerator(sig, seed=5)
    for _ in range(100):
        term = gen.gen_program(4)
        first = grade_of_computation((), term, sig)
        second = grade_of_computation((), term, sig)
        assert first == second


def test_substitution_lemma_on_generated_terms(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    gen = TermGenerator(sig, seed=9)
    checked = 0
    for _ in range(500):
        var_type = gen.rng.choice((UNIT, BOOL, Prod(UNIT, BOOL)))
        ctx = (("u0", var_type),)
        term = gen.gen_comp(ctx, 3, None)
        value = gen.gen_value((), var_type)
        expected = grade_of_computation(ctx, term, sig)
        got = grade_of_computation((), substitute(term, {"u0": value}), sig)
        assert got == expected
        checked += 1
    assert checked == 500


def _composite_functor_grade(frames, grade):
    for frame in reversed(frames):
        if isinstance(frame, HandleFrame):
            grade = frame.handler.functor.apply(grade)
    return grade


@pytest.mark.parametrize("theory,program", [
    ("pair_handler", "pair_main"),
    ("mutstore", "main"),
    ("mutstore", "staged"),
])
def test_context_type_factorization_along_traces(theory, program, request):
    # for every decomposition F[M] met along a trace, the overall grade
    # factors as G(g') ; f where g' grades M and f grades F[val y]
    bundle = request.getfixturevalue(f"{theory.replace('pair_handler', 'pair')}_bundle")
    prog = bundle.programs[program]
    sig = prog.signature
    from cateff.eval import run_program, Terminal
    trace = run_program(prog)
    for config in trace.configs:
        overall_type, overall = grade_of_computation((), config, sig)
        d = decompose(config, sig)
        if isinstance(d, Terminal):
            continue
        if isinstance(d, RedexAt):
            handlers = [f.handler for f in d.frames if isinstance(f, HandleFrame)]
            frames, core = d.frames, d.redex
            inner_sig = handlers[-1].source if handlers else sig
        else:
            frames, core, inner_sig = d.frames, OpCall(d.op, d.arg), d.sig
        core_type, g_prime = grade_of_computation((), core, inner_sig)
        y = Var("hole_y")
        cont = rebuild(frames, Val(g_prime.cod, y))
        _, f = grade_of_computation((("hole_y", core_type),), cont, sig)
        assert overall == compose(_composite_functor_grade(frames, g_prime), f)
        assert overall_type is not None
