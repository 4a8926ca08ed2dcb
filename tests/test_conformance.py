import json
from pathlib import Path

import pytest

import cateff.denote
import cateff.eval
from cateff.conformance import (
    TermGenerator, generate_unit_programs, generate_wellgraded_terms,
    run_conformance, verify_adequacy, verify_lemma_shapes,
    verify_soundness_along_trace,
)
from cateff.parser import parse_bundle
from cateff.signature import UNIT, is_primitive
from cateff.terms import App, Handle, Let, OpCall, StarV, Val, pp_comp
from cateff.typecheck import (
    CateffTypeError, check_bundle, clause_for, grade_of_computation,
)
from conftest import theory_text


def test_generation_is_deterministic_in_the_seed(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    a = generate_wellgraded_terms(sig, seed=2, count=50, depth=4)
    b = generate_wellgraded_terms(sig, seed=2, count=50, depth=4)
    c = generate_wellgraded_terms(sig, seed=3, count=50, depth=4)
    assert [pp_comp(t) for t in a] == [pp_comp(t) for t in b]
    assert [pp_comp(t) for t in a] != [pp_comp(t) for t in c]


def test_depth_zero_terms_are_value_returns(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    for term in generate_wellgraded_terms(sig, seed=1, count=20, depth=0):
        assert isinstance(term, Val)


def test_every_generated_term_rechecks_and_mixes_constructs(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    terms = generate_wellgraded_terms(sig, seed=4, count=200, depth=5)
    kinds = set()
    for term in terms:
        grade_of_computation((), term, sig)  # does not raise
        kinds.add(type(term).__name__)
    assert {"Let", "Val"} <= kinds


def test_generated_corpus_with_handlers_contains_handle_nodes(mutstore_bundle):
    sig = mutstore_bundle.signatures["FixedSig"]
    pool = tuple(mutstore_bundle.handlers.values())
    terms = generate_wellgraded_terms(sig, seed=6, count=150, depth=4, handler_pool=pool)

    def has_handle(m):
        match m:
            case Handle(_, _):
                return True
            case Let(_, bound, body):
                return has_handle(bound) or has_handle(body)
            case _:
                return False

    assert any(has_handle(t) for t in terms)
    for term in terms:
        res = verify_lemma_shapes(term, sig)
        assert res.passed, res.detail
        if is_primitive(grade_of_computation((), term, sig)[0]):
            res = verify_soundness_along_trace(term, sig)
            assert res.passed, res.detail


def test_adequacy_on_trivial_programs(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    one = Val("one", StarV())
    assert verify_adequacy(one, sig).passed
    chained = Let("x", Val("one", StarV()), Val("one", StarV()))
    assert verify_adequacy(chained, sig).passed


def test_adequacy_on_projected_handler_example(pair_bundle):
    # post-compose the golden handled program with a projection to unit
    prog = pair_bundle.programs["pair_main"]
    sig = pair_bundle.signatures["PointSig"]
    wrapped = Let("w", prog.body, Val("pt", StarV()))
    res = verify_adequacy(wrapped, sig)
    assert res.passed
    assert res.detail == "reached val star"


def test_adequacy_is_vacuous_for_operation_denotations(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    term = Let("n", OpCall("lookupint", StarV()), Val("int", StarV()))
    res = verify_adequacy(term, sig)
    assert res.passed
    assert "vacuous" in res.detail


def test_adequacy_rejects_wrong_shape(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    term = OpCall("sendint", StarV())  # grade send_int, not an identity
    assert not verify_adequacy(term, sig).passed


def test_check_rejects_a_clause_failing_at_a_dynamic_site():
    # act hides in a pair, so its default clause is checked for a dynamically
    # graded call site, at a generic k, where it is ill graded; the fold
    # would meet act at k = q
    bundle = parse_bundle("""
    category C { objects z; gen p : z -> z; gen q : z -> z;
                 rule p.q = id(z); rule q.p = id(z); }
    functor Id : C -> C { obj z => z; gen p => p; gen q => q; }
    signature S over C { op act : 1 ~> 1 @ p; op back : 1 ~> 1 @ q; }
    handler h over S to S via Id at z : 1 => 1 {
      return x => val z x;
      op back(v), r @ id(z) => let y <- do back(()) in r ();
      op act(v), r => r ();
    }
    program balanced over S : 1 @ id(z) {
      handle (let x <- split ((fun^p (u : 1) => do act(u)), ()) as (f, w) in
        f () in do back(())) with h
    }
    """)
    message = ("handler h: default clause for act at a dynamically graded "
               "call site has grade <k>, expected p;<k>")
    with pytest.raises(CateffTypeError, match=message) as exc:
        check_bundle(bundle)
    assert str(exc.value) == message


def test_unit_program_generator_meets_the_adequacy_preconditions(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    programs = generate_unit_programs(sig, seed=8, count=80, depth=4)
    vacuous = 0
    for comp in programs:
        ty, grade = grade_of_computation((), comp, sig)
        assert ty == UNIT and grade.is_identity
        res = verify_adequacy(comp, sig)
        assert res.passed, res.detail
        if "vacuous" in res.detail:
            vacuous += 1
    assert vacuous < len(programs)  # most unit programs are pure


def test_soundness_verifier_reports_steps(pair_bundle):
    prog = pair_bundle.programs["pair_main"]
    res = verify_soundness_along_trace(prog.body, prog.signature)
    assert res.passed
    assert "7 steps" in res.detail


def test_soundness_rejects_function_result_types(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    cat = sig.category
    from cateff.terms import Lam, Var
    lam = Lam(cat.identity("one"), "x", UNIT, Val("one", Var("x")))
    res = verify_soundness_along_trace(Val("one", lam), sig)
    assert not res.passed
    assert "primitive" in res.detail


def test_lemma_shapes_on_goldens(session_bundle, pair_bundle, mutstore_bundle):
    for bundle in (session_bundle, pair_bundle, mutstore_bundle):
        for prog in bundle.programs.values():
            res = verify_lemma_shapes(prog.body, prog.signature)
            assert res.passed, (prog.name, res.detail)


def test_lemma_shapes_modulo_weakening(widened_bundle):
    prog = widened_bundle.programs["widened_pure"]
    res = verify_lemma_shapes(prog.body, prog.signature)
    assert res.passed
    assert "weakening" in res.detail


# the same residual weakening, reached through a lambda body and through a
# handler's return clause
HIDDEN_WEAKENINGS = """
functor I : Sub -> Sub { obj lo => lo; obj hi => hi; gen up => up; gen eff => eff; }
handler w over SubSig to SubSig via I at hi : 1 => 1+1 {
  return x => weaken id(hi) { val hi (inl x : 1+1) } id(hi);
  op tick(p), r => r (inl () : 1+1);
}
program viafun over SubSig : 1 @ up {
  (fun^up (x : 1) => weaken up { val hi x } id(hi)) ()
}
program viahandler over SubSig : 1+1 @ id(hi) { handle (val hi ()) with w }
"""


@pytest.mark.parametrize("name", ["viafun", "viahandler"])
def test_lemma_shapes_finds_weakenings_inside_values_and_clauses(name):
    bundle = parse_bundle(theory_text("widened") + HIDDEN_WEAKENINGS)
    prog = bundle.programs[name]
    res = verify_lemma_shapes(prog.body, prog.signature)
    assert res.passed, res.detail
    assert "weakening" in res.detail


def test_generator_draws_no_handler_whose_clauses_weaken():
    # a handled term may be let-bound, and a weakened value feeding a let
    # has no rule: drawing w once made term 75 of this corpus block
    bundle = parse_bundle(theory_text("widened") + HIDDEN_WEAKENINGS)
    gen = TermGenerator(bundle.signatures["SubSig"], 0,
                        tuple(bundle.handlers.values()))
    assert gen.handlers == []
    report = run_conformance(bundle, seed=0, count=150, depth=4)
    assert report.ok, [r.line() for r in report.results if not r.passed]


IDENTITY_WEAKENING = """
functor I : Sub -> Sub { obj lo => lo; obj hi => hi; gen up => up; gen eff => eff; }
handler w over SubSig to SubSig via I at hi : 1 => 1 {
  return x => weaken id(hi) { val hi x } id(hi);
  op tick(p), r => r ();
}
program idw over SubSig : 1 @ id(hi) { handle (val hi ()) with w }
"""


def test_adequacy_accepts_a_star_under_identity_weakenings():
    bundle = parse_bundle(theory_text("widened") + IDENTITY_WEAKENING)
    prog = bundle.programs["idw"]
    res = verify_adequacy(prog.body, prog.signature)
    assert res.passed, res.detail
    assert res.detail == "reached val star"
    report = run_conformance(bundle, seed=0, count=40, depth=4)
    assert report.ok, [r.line() for r in report.results if not r.passed]


@pytest.mark.parametrize("theory",["session", "pair_handler", "mutstore", "widened"])
def test_run_conformance_is_green_on_shipped_theories(theory, request,
                                                      monkeypatch):
    fixture = {"pair_handler": "pair_bundle"}.get(theory, f"{theory}_bundle")
    bundle = request.getfixturevalue(fixture)
    check_bundle(bundle)

    def checked_clause_for(h, op, k):
        # run time only looks clauses up: the checker checked each selected
        assert (op, k) in h.checked or (op, None) in h.checked, (h.name, op, k)
        return clause_for(h, op, k)

    monkeypatch.setattr(cateff.eval, "clause_for", checked_clause_for)
    monkeypatch.setattr(cateff.denote, "clause_for", checked_clause_for)
    report = run_conformance(bundle, seed=0, count=120, depth=4)
    assert report.ok, [r.line() for r in report.results if not r.passed]
    payload = report.to_json()
    assert payload["ok"] is True
    assert json.dumps(payload)  # serializable


def test_report_records_failures(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    term = OpCall("sendint", StarV())
    res = verify_adequacy(term, sig)
    assert not res.passed
    assert res.line().startswith("FAIL adequacy")


def test_soundness_oracle_catches_a_wrong_clause_selection(pair_bundle,
                                                           monkeypatch):
    # sabotage the machine's clause selection: op1 answered by op2's clause;
    # type and grade still line up, so only the denotational comparison can
    # see the bug -- and it must
    import cateff.eval as ev
    from cateff.typecheck import clause_for as real_clause_for

    def swapped(handler, op, k):
        if handler.name == "pairup":
            other = {"op1": "op2", "op2": "op1"}[op]
            swap_k = {"op1": handler.source["op2"].grade.cat.identity("e"),
                      "op2": handler.source["op1"].grade.cat.morphism(("h",))}
            return real_clause_for(handler, other, swap_k[op])
        return real_clause_for(handler, op, k)

    monkeypatch.setattr(ev, "clause_for", swapped)
    prog = pair_bundle.programs["pair_main"]
    res = verify_soundness_along_trace(prog.body, prog.signature)
    assert not res.passed
    assert "denotation changed" in res.detail
    # the sabotaged run still preserves type and grade: the lemma-shape
    # oracle alone would not have noticed
    res = verify_lemma_shapes(prog.body, prog.signature)
    assert res.passed


def test_adequacy_oracle_catches_a_non_terminating_machine(session_bundle,
                                                           monkeypatch):
    # sabotage S-Let into a no-op rewrite: adequacy-eligible programs then
    # spin in place and the step budget must flag them
    import cateff.eval as ev
    real_apply = ev._apply_rule

    def spinning(d):
        if d.rule == "S-Let":
            return d.redex
        return real_apply(d)

    monkeypatch.setattr(ev, "_apply_rule", spinning)
    sig = session_bundle.signatures["SessionSig"]
    prog = Let("x", Val("one", StarV()), Val("one", StarV()))
    res = verify_adequacy(prog, sig, max_steps=50)
    assert not res.passed
    assert res.detail == "no value within 50 steps"


def test_an_ill_typed_contractum_is_reported_not_raised(pair_bundle,
                                                      monkeypatch):
    # sabotage S-Let into an ill-typed contractum: the next step finds an
    # application of a non-lambda value, which no rule of a checked program
    # reaches, and the checks must report it as failures, not tracebacks
    import cateff.eval as ev
    real_apply = ev._apply_rule

    def ill_typed(d):
        if d.rule == "S-Let":
            return App(StarV(), StarV())
        return real_apply(d)

    monkeypatch.setattr(ev, "_apply_rule", ill_typed)
    report = run_conformance(pair_bundle, count=40)
    failed = [r for r in report.results if not r.passed]
    assert failed and not report.ok
    assert any("cannot apply S-App" in r.detail for r in failed)


def test_an_ill_graded_configuration_is_reported_not_raised(monkeypatch):
    # sabotage the steps the checks consume: the third configuration of
    # each WideSig run binds a value at lo in front of a computation at pt.
    # Lemma-shapes judges it and reports the let; denoting it raises nothing
    import cateff.conformance as conf
    real_steps = conf.steps

    def ill_graded(m, sig, max_steps):
        for i, (config, d) in enumerate(real_steps(m, sig, max_steps)):
            if sig.name == "WideSig" and i == 2:
                config = Let("x", Val("lo", StarV()), config)
            yield config, d

    monkeypatch.setattr(conf, "steps", ill_graded)
    runtime = Path(__file__).parent / "golden" / "runtime.ceff"
    report = run_conformance(parse_bundle(runtime.read_text(encoding="utf-8")),
                             count=40)
    assert ("FAIL lemma-shapes[let_lambda]: preservation broken: let: grade "
            "id(lo) ends at lo but continuation starts at pt"
            in [r.line() for r in report.results])


def test_checks_pass_on_a_budget_of_exactly_the_steps_needed(pair_bundle):
    # pair_main takes exactly 7 steps; the budget counts rule applications
    prog = pair_bundle.programs["pair_main"]
    for check in (verify_lemma_shapes, verify_soundness_along_trace):
        assert check(prog.body, prog.signature, max_steps=7).passed
        res = check(prog.body, prog.signature, max_steps=6)
        assert not res.passed
