"""Acceptance suite: one test per criterion, exact comparisons throughout.

Every check is discrete (string or structural equality); the only numeric
bounds are step counts and wall-clock budgets.  Run with ``pytest -s`` to see
one PASS line per criterion.
"""
import time

import pytest

from cateff.conformance import (
    generate_unit_programs, generate_wellgraded_terms,
    verify_adequacy, verify_lemma_shapes, verify_soundness_along_trace,
)
from cateff.eval import Terminal, run_program
from cateff.grading import GradingFunctor, build_category, compose
from cateff.parser import parse_bundle
from cateff.signature import is_primitive
from cateff.terms import App, Handle, Inl, Inr, Lam, Let, Pair, Val, Var
from cateff.typecheck import check_bundle, check_handler, grade_of_computation
from conftest import (
    composable_paths, morphisms_from, pair_completion, pair_name, theory_text,
)


def _report(name, started):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.2f}s)")
    return elapsed


def test_golden_grading_session_terms():
    started = time.perf_counter()
    bundle = parse_bundle(theory_text("session"), "session.ceff")
    judgements = check_bundle(bundle)
    assert str(judgements["t"].grade) == "tau_1_int;send_int;recv_int_int"
    assert str(judgements["s"].grade) == "recv_1_int;send_int"
    assert _report("golden-grading", started) < 1.0


def test_golden_trace_handler_example(pair_bundle):
    started = time.perf_counter()
    judgements = check_bundle(pair_bundle)
    assert str(judgements["pair_main"].grade) == "id(pt)"
    trace = run_program(pair_bundle.programs["pair_main"])
    assert len(trace.configs) - 1 < 20
    # first step: (fun^{Gh} v => handle (let x <- val d v in ...) with H) V'
    first = trace.configs[1]
    assert isinstance(first, App)
    assert isinstance(first.fn, Lam)
    assert str(first.fn.grade) == "id(pt)"  # G h
    assert isinstance(first.arg, Inl)  # V'
    assert isinstance(first.fn.body, Handle)
    inner = first.fn.body.body
    assert isinstance(inner, Let)
    assert isinstance(inner.bound, Val) and inner.bound.obj == "d"
    assert inner.bound.val == Var(first.fn.var)
    # final configuration: val_pt <V', W'>
    final = trace.configs[-1]
    assert isinstance(final, Val) and final.obj == "pt"
    assert isinstance(final.val, Pair)
    assert final.val.left == first.arg  # V' flows to the first component
    assert isinstance(final.val.right, Inr)  # W'
    assert isinstance(trace.final, Terminal)
    assert _report("golden-trace", started) < 1.0


def test_golden_mutable_store_judgements(mutstore_bundle):
    started = time.perf_counter()
    judgements = check_bundle(mutstore_bundle)
    assert str(judgements["plan"].grade) == "f_one_A;f_A_B"
    expected = {"store_one": ("one", "1"), "store_A": ("A", "1+1"),
                "store_B": ("B", "1+1+1")}
    for name, (at, in_str) in expected.items():
        profile = check_handler(mutstore_bundle.handlers[name])
        assert profile.at_obj == at
        assert str(profile.in_type) == in_str
        assert str(profile.out_type) == "1+(1+1)+1+1+1"
    assert str(judgements["staged"].grade) == "id(m)"
    assert judgements["staged"].grade.is_identity
    # the fully handled program runs to a val form
    trace = run_program(mutstore_bundle.programs["main"])
    assert isinstance(trace.final, Terminal) and not trace.final.weakens
    assert isinstance(trace.configs[-1], Val)
    assert _report("golden-mutable-store", started) < 1.0


def _thousand_term_corpus(session_bundle, mutstore_bundle):
    session_sig = session_bundle.signatures["SessionSig"]
    fixed_sig = mutstore_bundle.signatures["FixedSig"]
    pool = tuple(mutstore_bundle.handlers.values())
    corpus = [(t, session_sig) for t in
              generate_wellgraded_terms(session_sig, seed=100, count=700, depth=5)]
    corpus += [(t, fixed_sig) for t in
               generate_wellgraded_terms(fixed_sig, seed=101, count=300, depth=5,
                                         handler_pool=pool)]
    return corpus


@pytest.fixture(scope="module")
def generated_corpus(session_bundle, mutstore_bundle):
    return _thousand_term_corpus(session_bundle, mutstore_bundle)


def _all_golden_programs(session_bundle, pair_bundle, mutstore_bundle,
                         widened_bundle):
    for bundle in (session_bundle, pair_bundle, mutstore_bundle, widened_bundle):
        for prog in bundle.programs.values():
            yield prog


def test_soundness_suite(generated_corpus, session_bundle, pair_bundle,
                         mutstore_bundle, widened_bundle):
    started = time.perf_counter()
    for prog in _all_golden_programs(session_bundle, pair_bundle,
                                     mutstore_bundle, widened_bundle):
        res = verify_soundness_along_trace(prog.body, prog.signature)
        assert res.passed, (prog.name, res.detail)
    assert len(generated_corpus) >= 1000
    violations = []
    for idx, (term, sig) in enumerate(generated_corpus):
        ty, _ = grade_of_computation((), term, sig)
        assert is_primitive(ty)
        res = verify_soundness_along_trace(term, sig)
        if not res.passed:
            violations.append((idx, res.detail))
    assert violations == []
    _report("soundness-suite", started)


def test_adequacy_suite(session_bundle, mutstore_bundle):
    started = time.perf_counter()
    session_sig = session_bundle.signatures["SessionSig"]
    fixed_sig = mutstore_bundle.signatures["FixedSig"]
    programs = [(p, session_sig) for p in
                generate_unit_programs(session_sig, seed=200, count=400, depth=4)]
    programs += [(p, fixed_sig) for p in
                 generate_unit_programs(fixed_sig, seed=201, count=200, depth=4)]
    violations = []
    nonvacuous = 0
    for idx, (comp, sig) in enumerate(programs):
        res = verify_adequacy(comp, sig, max_steps=100_000)
        if not res.passed:
            violations.append((idx, res.detail))
        elif res.detail == "reached val star":
            nonvacuous += 1
    assert violations == []
    assert nonvacuous > len(programs) // 2
    _report("adequacy-suite", started)


def test_progress_preservation_safety_suite(generated_corpus):
    started = time.perf_counter()
    violations = []
    for idx, (term, sig) in enumerate(generated_corpus):
        res = verify_lemma_shapes(term, sig)
        if not res.passed:
            violations.append((idx, res.detail))
    assert violations == []
    elapsed = _report("progress-preservation-safety", started)
    assert elapsed < 60.0


def _test_categories():
    session = build_category(
        "Session", ["one", "int"],
        [("recv_1_int", "one", "int"), ("recv_int_int", "int", "int"),
         ("send_int", "int", "int"), ("tau_1_int", "one", "int"),
         ("tau_int_1", "int", "one")],
        rules=[(("tau_1_int", "tau_int_1"), ()),
               (("tau_int_1", "tau_1_int"), ())])
    proto = build_category("Proto", ["c", "d", "e"],
                           [("g", "c", "d"), ("h", "d", "e")])
    plan = build_category(
        "Plan", ["one", "A", "B"],
        [(f"f_{a}_{b}", a, b) for a in ("one", "A", "B")
         for b in ("one", "A", "B")])
    sub = build_category("Sub", ["lo", "hi"],
                         [("up", "lo", "hi"), ("eff", "hi", "hi")],
                         wide=["up"])
    return [session, proto, plan, sub,
            pair_completion(build_category("Disc", ["a", "b", "c"], [])),
            pair_completion(proto, "Proto^pair")]


def test_category_law_suite():
    started = time.perf_counter()
    cats = _test_categories()
    total_triples = 0
    for cat in cats:
        gens = [cat.morphism((g,)) for g in cat.generators]
        # unit laws on all morphisms up to length 2
        for obj in cat.objects:
            for m in morphisms_from(cat, obj, 2):
                assert compose(cat.identity(m.dom), m) == m
                assert compose(m, cat.identity(m.cod)) == m
        # associativity over all composable generator triples
        for f in gens:
            for g in gens:
                if f.cod != g.dom:
                    continue
                for h in gens:
                    if g.cod != h.dom:
                        continue
                    assert compose(compose(f, g), h) == compose(f, compose(g, h))
                    total_triples += 1
        # normalization idempotence up to length 6
        for path in composable_paths(cat, 6):
            once = cat.normalize(path)
            assert cat.normalize(once) == once
    assert total_triples > 300  # exhaustive and far from vacuous
    # functor laws for the shipped collapse functor, exhaustively
    proto = cats[1]
    point = build_category("Point", ["pt"], [])
    collapse = GradingFunctor("Collapse", proto, point,
                              {"c": "pt", "d": "pt", "e": "pt"},
                              {"g": point.identity("pt"),
                               "h": point.identity("pt")})
    for obj in proto.objects:
        assert collapse.apply(proto.identity(obj)) == point.identity("pt")
    all_proto = [m for obj in proto.objects
                 for m in morphisms_from(proto, obj, 3)]
    for f in all_proto:
        for g in all_proto:
            if f.cod != g.dom:
                continue
            assert collapse.apply(compose(f, g)) == \
                compose(collapse.apply(f), collapse.apply(g))
    # pair completion: composites with a pair generator collapse to one
    for comp in (cats[4], cats[5]):
        pair_gens = {name for name in comp.generators if name.startswith("<")}
        for path in composable_paths(comp, 3):
            if any(name in pair_gens for name in path):
                norm = comp.normalize(path)
                assert len(norm) == 1 and norm[0] in pair_gens
    disc = cats[4]
    assert [str(m) for m in morphisms_from(disc, "a", 3)
            if m.cod == "b"] == [pair_name("a", "b")]
    elapsed = _report("category-laws", started)
    assert elapsed < 30.0
