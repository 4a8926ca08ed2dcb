from pathlib import Path

import pytest

from cateff.conformance import generate_wellgraded_terms
from cateff.eval import (
    HandleFrame, LetFrame, MaxStepsExceeded, OpAtTop, RedexAt, Stuck,
    Terminal, WeakenFrame, continuation_grade, decompose, rebuild, run,
    run_program, step, steps,
)
from cateff.parser import parse_bundle
from cateff.terms import (
    App, Handle, Inl, Inr, Lam, Let, OpCall, Pair, StarV, Val, Var,
    free_vars, fresh_name, pp_comp,
)
from cateff.typecheck import (
    CateffTypeError, check_bundle, grade_of_computation,
)
from conftest import theory_text

THEORIES = ("session", "pair_handler", "mutstore", "widened")
RUNTIME = Path(__file__).parent / "golden" / "runtime.ceff"


def test_decompose_value_is_terminal(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    d = decompose(Val("one", StarV()), sig)
    assert isinstance(d, Terminal)
    assert d.value == StarV() and d.obj == "one" and not d.weakens


def test_decompose_let_over_op_is_op_at_top(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    term = Let("x", OpCall("sendint", StarV()), Val("int", StarV()))
    d = decompose(term, sig)
    assert isinstance(d, OpAtTop)
    assert d.op == "sendint"
    assert d.frames == (LetFrame("x", Val("int", StarV())),)
    assert rebuild(d.frames, OpCall(d.op, d.arg)) == term


def test_decompose_handle_over_let_val_is_a_let_redex(pair_bundle):
    sig = pair_bundle.signatures["PointSig"]
    handler = pair_bundle.handlers["pairup"]
    inner = Let("x", Val("d", StarV()), Val("e", Pair(StarV(), StarV())))
    d = decompose(Handle(inner, handler), sig)
    assert isinstance(d, RedexAt)
    assert d.rule == "S-Let"
    assert d.frames == (HandleFrame(handler),)


def test_continuation_grades_match_the_handler_example(pair_bundle):
    sig = pair_bundle.signatures["ProtoSig"]
    rest = Let("y", OpCall("op2", StarV()),
               Val("e", Pair(Var("x"), Var("y"))))
    # op1 surrounded by let x <- [] in (let y <- op2 in val e <x,y>)
    k1 = continuation_grade((LetFrame("x", rest),), "op1", sig)
    assert str(k1) == "h"
    # op2 surrounded by let y <- [] in val e <V', y>
    tail = Val("e", Pair(Inl(StarV(), None), Var("y")))
    from cateff.signature import Sum, UNIT
    tail = Val("e", Pair(Inl(StarV(), Sum(UNIT, UNIT)), Var("y")))
    k2 = continuation_grade((LetFrame("y", tail),), "op2", sig)
    assert str(k2) == "id(e)"
    # the empty context gives the identity at the grade's codomain
    k3 = continuation_grade((), "op2", sig)
    assert str(k3) == "id(e)"


def test_step_application(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    cat = sig.category
    from cateff.signature import UNIT
    lam = Lam(cat.identity("int"), "x", UNIT, Val("int", Var("x")))
    assert step(App(lam, StarV()), sig) == Val("int", StarV())


def test_step_handle_return(pair_bundle):
    sig = pair_bundle.signatures["PointSig"]
    handler = pair_bundle.handlers["pairup"]
    pair = Pair(Inl(StarV(), None), Inr(StarV(), None))
    out = step(Handle(Val("e", pair), handler), sig)
    assert out == Val("pt", pair)


def test_terminal_term_does_not_step(session_bundle):
    sig = session_bundle.signatures["SessionSig"]
    assert step(Val("one", StarV()), sig) is None
    assert step(OpCall("sendint", StarV()), sig) is None


def test_run_is_deterministic(pair_bundle):
    prog = pair_bundle.programs["pair_main"]
    t1 = run_program(prog)
    t2 = run_program(prog)
    assert [pp_comp(c) for c in t1.configs] == [pp_comp(c) for c in t2.configs]


def test_resumption_binder_avoids_the_let_binders_of_its_context(pair_bundle):
    configs = run_program(pair_bundle.programs["pair_main"]).configs
    assert pp_comp(configs[4]).startswith(
        "(fun^id(pt) (y1 : 1+1) => handle (let y <- val e y1 in ")


@pytest.mark.parametrize("theory", THEORIES)
def test_every_configuration_is_closed(theory):
    bundle = parse_bundle(theory_text(theory))
    check_bundle(bundle)
    programs = [(p.body, p.signature) for p in bundle.programs.values()]
    pool = tuple(bundle.handlers.values())
    for sig in bundle.signatures.values():
        programs += [(m, sig) for m in generate_wellgraded_terms(
            sig, seed=0, count=100, depth=4, handler_pool=pool)]
    for m, sig in programs:
        for config, _ in steps(m, sig):
            assert free_vars(config) == set()


def test_golden_pair_trace_step_count_and_result(pair_bundle):
    prog = pair_bundle.programs["pair_main"]
    trace = run_program(prog)
    assert len(trace.configs) - 1 == 7
    final = trace.configs[-1]
    assert isinstance(final, Val) and final.obj == "pt"
    assert isinstance(final.val, Pair)
    assert isinstance(final.val.left, Inl) and isinstance(final.val.right, Inr)


def test_a_rule_reuses_the_decomposition_of_its_step(pair_bundle,
                                                     monkeypatch):
    # S-HandleOp and S-HandleRet read the handled computation off the
    # decomposition `steps` made; they do not walk it again
    import cateff.eval as ev
    prog = pair_bundle.programs["pair_main"]
    redexes = [d for _, d in steps(prog.body, prog.signature)
               if isinstance(d, RedexAt)]
    assert {"S-HandleOp", "S-HandleRet"} <= {d.rule for d in redexes}
    calls = []
    real_decompose = ev.decompose

    def counting(m, sig):
        calls.append(m)
        return real_decompose(m, sig)

    monkeypatch.setattr(ev, "decompose", counting)
    for d in redexes:
        ev._reduce(d)
    assert calls == []


def test_handle_op_rebuilds_its_context_once(pair_bundle, monkeypatch):
    # k comes from the let frames, so only the resumption rebuilds the
    # context (and takes a fresh name); the other rebuild plugs the
    # contractum back into the redex's own context
    import cateff.eval as ev
    prog = pair_bundle.programs["pair_main"]
    redexes = [d for _, d in steps(prog.body, prog.signature)
               if isinstance(d, RedexAt) and d.rule == "S-HandleOp"]
    assert len(redexes) == 2
    counts = {"rebuild": 0, "fresh_name": 0}

    def counting(name):
        real = getattr(ev, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(ev, name, counting(name))
    for d in redexes:
        counts.update(rebuild=0, fresh_name=0)
        ev._reduce(d)
        assert counts == {"rebuild": 2, "fresh_name": 1}


def plugged_continuation_grade(frames, op, sig):
    """k as the grade of E[val_c y] for a fresh y: the definition that
    `continuation_grade` replaces, kept as its reference."""
    decl = sig[op]
    y = fresh_name("y", {f.var for f in frames if isinstance(f, LetFrame)})
    cont = rebuild(frames, Val(decl.grade.cod, Var(y)))
    return grade_of_computation(((y, decl.arity),), cont, sig)[1]


def test_continuation_grade_is_the_grade_of_the_plugged_context():
    bundles = [parse_bundle(theory_text(t)) for t in THEORIES]
    bundles.append(parse_bundle(RUNTIME.read_text(encoding="utf-8")))
    handled = 0
    for bundle in bundles:
        check_bundle(bundle)
        programs = [(p.body, p.signature) for p in bundle.programs.values()]
        pool = tuple(bundle.handlers.values())
        for sig in bundle.signatures.values():
            programs += [(m, sig) for m in generate_wellgraded_terms(
                sig, seed=0, count=100, depth=4, handler_pool=pool)]
        for m, sig in programs:
            try:
                decompositions = [d for _, d in steps(m, sig)]
            except Stuck:  # the runtime fixture's blocked program
                continue
            for d in decompositions:
                if isinstance(d, RedexAt) and d.rule == "S-HandleOp":
                    op, hsig = d.handled, d.redex.handler.source
                    assert (continuation_grade(op.frames, op.op, hsig)
                            == plugged_continuation_grade(op.frames, op.op,
                                                          hsig))
                    handled += 1
    assert handled > 0


def test_max_steps_exceeded(pair_bundle):
    prog = pair_bundle.programs["pair_main"]
    with pytest.raises(MaxStepsExceeded):
        run_program(prog, max_steps=2)


def test_step_budget_counts_rule_applications(pair_bundle):
    prog = pair_bundle.programs["pair_main"]
    assert len(run_program(prog, max_steps=7).configs) - 1 == 7
    with pytest.raises(MaxStepsExceeded):
        run_program(prog, max_steps=6)


def test_steps_yields_each_configuration_with_its_decomposition(pair_bundle):
    prog = pair_bundle.programs["pair_main"]
    pairs = list(steps(prog.body, prog.signature))
    assert [m for m, _ in pairs] == run_program(prog).configs
    assert all(d == decompose(m, prog.signature) for m, d in pairs)
    assert all(isinstance(d, RedexAt) for _, d in pairs[:-1])
    assert isinstance(pairs[-1][1], Terminal)


def test_runtime_missing_clause_without_static_check():
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
    """
    bundle = parse_bundle(src)
    sig = bundle.signatures["T"]
    handler = bundle.handlers["only_last"]
    # demand act at k = p without the static site check
    bad = Handle(Let("x", OpCall("act", StarV()),
                     Let("y", OpCall("act", StarV()), Val("z", StarV()))),
                 handler)
    with pytest.raises(CateffTypeError,
                       match="no clause for operation 'act' at continuation "
                             "grade p$"):
        run(bad, sig)


def test_weakened_value_blocks_a_let():
    src = """
    category C { objects z; gen p : z -> z; gen w : z -> z; wide w; }
    signature S over C { op act : 1 ~> 1 @ p; }
    program blocked over S : 1 @ w.p {
      let x <- (weaken w { val z () } id(z)) in do act(())
    }
    """
    bundle = parse_bundle(src)
    check_bundle(bundle)
    with pytest.raises(Stuck):
        run_program(bundle.programs["blocked"])


def test_weakening_between_handler_and_operation_blocks():
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
    program blocked over T : 1 @ id(pt) {
      handle (weaken w { do act(()) } id(z)) with h_all
    }
    """
    bundle = parse_bundle(src)
    check_bundle(bundle)
    with pytest.raises(Stuck):
        run_program(bundle.programs["blocked"])


def test_weakening_is_transparent_to_inner_steps(widened_bundle):
    prog = widened_bundle.programs["widened_pure"]
    trace = run_program(prog)
    assert len(trace.configs) - 1 == 0
    assert isinstance(trace.final, Terminal)
    assert trace.final.weakens
    assert trace.final.value == StarV()
    # steps happen inside a weakening when there is a redex inside
    src = """
    category C { objects z; gen w : z -> z; wide w; }
    signature S over C { }
    program inner_step over S : 1 @ w {
      weaken w { let x <- val z () in val z x } id(z)
    }
    """
    bundle = parse_bundle(src)
    check_bundle(bundle)
    trace = run_program(bundle.programs["inner_step"])
    assert len(trace.configs) - 1 == 1
    assert isinstance(trace.final, Terminal) and trace.final.weakens


def test_unhandled_op_under_weakening_is_op_at_top(widened_bundle):
    prog = widened_bundle.programs["widened"]
    trace = run_program(prog)
    assert isinstance(trace.final, OpAtTop)
    assert trace.final.op == "tick"
    assert any(isinstance(f, WeakenFrame) for f in trace.final.frames)


def test_mutstore_main_runs_to_the_injected_default(mutstore_bundle):
    trace = run_program(mutstore_bundle.programs["main"])
    final = trace.configs[-1]
    assert isinstance(final, Val) and final.obj == "z"
    # inj_B applied to the B default value inr (inl ())
    assert isinstance(final.val, Inr) and isinstance(final.val.val, Inr)
    inner = final.val.val.val
    assert isinstance(inner, Inr) and isinstance(inner.val, Inl)


def test_staged_mutstore_suspends_on_a_free_store_op(mutstore_bundle):
    trace = run_program(mutstore_bundle.programs["staged"])
    assert isinstance(trace.final, OpAtTop)
    assert trace.final.op == "put_any"
