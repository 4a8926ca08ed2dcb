"""Executable metatheory: soundness, adequacy, progress, preservation and
safety checked mechanically on golden programs and generated corpora.

The generator runs the typing rules backwards with a seeded RNG, so a corpus
is reproducible from its seed.  Every emitted term re-checks; handled
subterms are drawn as operation spines against a pool of handlers whose
operations all carry default clauses, which makes clause coverage a
construction invariant rather than a generation failure mode.  The pool
leaves out handlers whose clauses weaken: a handled term may be let-bound,
and a weakened value feeding a let has no rule.

Soundness compares the term trees of all configurations for equality, and
adequacy accepts a star value under weakenings that are all identities.
Whether a program can reach a weakening is a walk over ``terms.children``
and ``terms.clause_bodies``.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .denote import denote_computation
from .eval import (
    DEFAULT_MAX_STEPS, EvalError, MaxStepsExceeded, OpAtTop, run, steps,
)
from .freemodel import Leaf, tree_to_json
from .signature import (
    GradedSignature, Prod, STAR, Sum, Type, UNIT, is_primitive,
)
from .terms import (
    App, CompAst, Gunit, Handle, HandlerAst, Inl, Inr, Lam, Let, Match,
    OpCall, Pair, Proj, StarV, Val, ValueAst, Var, children, clause_bodies,
)
from .typecheck import CateffTypeError, check_bundle, grade_of_computation


class GenerationExhausted(Exception):
    pass


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}" \
            + (f": {self.detail}" if self.detail else "")


@dataclass
class ConformanceReport:
    results: list = field(default_factory=list)

    def add(self, name, passed, detail=""):
        self.results.append(CheckResult(name, passed, detail))

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self):
        return {"ok": self.ok,
                "checks": [{"name": r.name, "passed": r.passed,
                            "detail": r.detail} for r in self.results]}


# ---------------------------------------------------------------------------
# per-program metatheory checks

def verify_soundness_along_trace(comp: CompAst, sig: GradedSignature,
                                 max_steps: int = DEFAULT_MAX_STEPS
                                 ) -> CheckResult:
    """Denotation must be invariant across every small step."""
    ty, _ = grade_of_computation((), comp, sig)
    if not is_primitive(ty):
        return CheckResult("soundness", False,
                           "program rejected: result type is not primitive")
    trees, denote_error = [], None
    try:
        for m, _ in steps(comp, sig, max_steps):
            try:
                trees.append(denote_computation((), m, (), sig))
            except Exception as exc:
                # only a well-typed configuration denotes: the checker says
                # why this one does not, or else the error is denote's own
                grade_of_computation((), m, sig)
                denote_error = exc
                raise
    except (EvalError, CateffTypeError) as exc:
        if exc is denote_error:  # a bug of denote is no verdict
            raise
        return CheckResult("soundness", False, str(exc))
    for i, tree in enumerate(trees):
        if tree != trees[0]:
            return CheckResult(
                "soundness", False,
                f"denotation changed at step {i}: "
                f"{json.dumps(tree_to_json(trees[0]))} vs "
                f"{json.dumps(tree_to_json(tree))}")
    return CheckResult("soundness", True, f"{len(trees) - 1} steps invariant")


def verify_adequacy(comp: CompAst, sig: GradedSignature,
                    max_steps: int = DEFAULT_MAX_STEPS) -> CheckResult:
    """A unit-typed, identity-graded program denoting the pure star leaf
    must evaluate to ``val a ()``."""
    ty, grade = grade_of_computation((), comp, sig)
    if ty != UNIT or not grade.is_identity:
        return CheckResult("adequacy", False,
                           "program rejected: needs type 1 at an identity grade")
    if denote_computation((), comp, (), sig) != Leaf(grade.dom, STAR):
        return CheckResult("adequacy", True,
                           "vacuous: denotation is not the star leaf")
    try:
        final = run(comp, sig, max_steps).final
    except MaxStepsExceeded:
        return CheckResult("adequacy", False, f"no value within {max_steps} steps")
    except (EvalError, CateffTypeError) as exc:
        return CheckResult("adequacy", False, str(exc))
    if isinstance(final, OpAtTop):
        return CheckResult("adequacy", False, f"suspended on operation {final.op}")
    # an identity weakening changes no grade, so it hides no value
    unweakened = all(pre.is_identity and post.is_identity
                     for pre, post in final.weakens)
    if unweakened and final.value == StarV() and final.obj == grade.dom:
        return CheckResult("adequacy", True, "reached val star")
    return CheckResult("adequacy", False, f"terminal is not val {grade.dom} ()")


def _uses_weakening(node) -> bool:
    """Whether a weakening occurs in ``node``, in a lambda body inside it or
    in a clause of a handler it installs: each can reach a configuration."""
    if isinstance(node, Gunit):
        return True
    subterms = [child for child, _ in children(node)]
    if isinstance(node, Handle):
        subterms += clause_bodies(node.handler)
    return any(map(_uses_weakening, subterms))


def verify_lemma_shapes(comp: CompAst, sig: GradedSignature,
                        max_steps: int = DEFAULT_MAX_STEPS) -> CheckResult:
    """Progress, preservation and safety along one run.

    Every configuration is closed and well-typed, decomposes into exactly
    one of the three progress shapes, keeps its type and normal-form grade
    across steps, and the final configuration is a value form or an
    unhandled operation call.  Programs using grade weakening are checked
    modulo the residual weakening around the final value, since weakening
    carries no reduction rule of its own.
    """
    ty0, g0 = grade_of_computation((), comp, sig)
    try:
        # progress: decomposition is total on checked terms
        for i, (m, d) in enumerate(steps(comp, sig, max_steps)):
            if i:
                try:
                    ty, g = grade_of_computation((), m, sig)
                except CateffTypeError as exc:
                    return CheckResult("lemma-shapes", False,
                                       f"preservation broken: {exc}")
                if ty != ty0 or g != g0:
                    return CheckResult(
                        "lemma-shapes", False,
                        f"preservation broken: ({ty0}, {g0}) became ({ty}, {g})")
    except MaxStepsExceeded:
        return CheckResult("lemma-shapes", False,
                           f"no final shape in {max_steps} steps")
    except EvalError as exc:
        return CheckResult("lemma-shapes", False, f"progress broken: {exc}")
    if isinstance(d, OpAtTop):
        return CheckResult("lemma-shapes", True, f"ended about to perform {d.op}")
    if d.weakens:
        if _uses_weakening(comp):
            return CheckResult("lemma-shapes", True,
                               "value form under the program's residual weakening")
        return CheckResult("lemma-shapes", False, "unexpected residual weakening")
    if not g0.is_identity:
        return CheckResult("lemma-shapes", False,
                           f"value form at non-identity grade {g0}")
    return CheckResult("lemma-shapes", True, "ended in a value form")


# ---------------------------------------------------------------------------
# term generation

_SMALL_TYPES = (UNIT, Sum(UNIT, UNIT), Prod(UNIT, Sum(UNIT, UNIT)),
                Sum(UNIT, Sum(UNIT, UNIT)))


class TermGenerator:
    """Backward-rule generation of closed well-typed computations."""

    def __init__(self, sig: GradedSignature, seed: int, handler_pool=(),
                 pure_only=False):
        self.sig = sig
        self.cat = sig.category
        self.rng = random.Random(seed)
        self.pure_only = pure_only
        self.handlers = [
            h for h in handler_pool
            if h.target is sig and all((op, None) in h.clauses for op in h.source.ops)
            and not any(map(_uses_weakening, clause_bodies(h)))]
        self._counter = 0

    def _fresh(self):
        self._counter += 1
        return f"v{self._counter}"

    def gen_value(self, ctx, ty: Type) -> ValueAst:
        in_scope = [name for name, t in ctx if t == ty]
        if in_scope and self.rng.random() < 0.5:
            return Var(self.rng.choice(in_scope))
        match ty:
            case Sum(left, right):
                if self.rng.random() < 0.5:
                    return Inl(self.gen_value(ctx, left), ty)
                return Inr(self.gen_value(ctx, right), ty)
            case Prod(left, right):
                return Pair(self.gen_value(ctx, left), self.gen_value(ctx, right))
            case _:
                return StarV()

    def _ops_from(self, obj):
        return [op for op in self.sig.ops.values()
                if obj is None or op.grade.dom == obj]

    def gen_comp(self, ctx, depth: int, dom) -> CompAst:
        options = ["val", "val"]
        if depth > 0:
            options += ["let", "let", "let", "app", "proj", "match"]
            if not self.pure_only and self._ops_from(dom):
                options += ["op", "op", "op", "let"]
        if depth > 1 and self.handlers and not self.pure_only:
            options += ["handle"]
        self.rng.shuffle(options)
        for choice in options:
            try:
                return self._gen_one(choice, ctx, depth, dom)
            except GenerationExhausted:
                continue
        return self._gen_one("val", ctx, depth, dom)

    def _gen_one(self, choice, ctx, depth, dom):
        if choice == "val":
            obj = dom if dom is not None else self.rng.choice(self.cat.objects)
            ty = self.rng.choice(_SMALL_TYPES)
            return Val(obj, self.gen_value(ctx, ty))
        if choice == "op":
            op = self.rng.choice(self._ops_from(dom))
            return OpCall(op.name, self.gen_value(ctx, op.param))
        if choice == "let":
            bound = self.gen_comp(ctx, depth - 1, dom)
            bty, bg = grade_of_computation(ctx, bound, self.sig)
            var = self._fresh()
            body = self.gen_comp(ctx + ((var, bty),), depth - 1, bg.cod)
            return Let(var, bound, body)
        if choice == "app":
            arg_ty = self.rng.choice(_SMALL_TYPES)
            var = self._fresh()
            body = self.gen_comp(ctx + ((var, arg_ty),), depth - 1, dom)
            _, bg = grade_of_computation(ctx + ((var, arg_ty),), body, self.sig)
            return App(Lam(bg, var, arg_ty, body), self.gen_value(ctx, arg_ty))
        if choice == "proj":
            ty = Prod(self.rng.choice(_SMALL_TYPES), self.rng.choice(_SMALL_TYPES))
            x, y = self._fresh(), self._fresh()
            body = self.gen_comp(ctx + ((x, ty.left), (y, ty.right)), depth - 1, dom)
            return Proj(self.gen_value(ctx, ty), x, y, body)
        if choice == "match":
            side = self.rng.choice(_SMALL_TYPES)
            ty = Sum(side, side)
            var = self._fresh()
            body = self.gen_comp(ctx + ((var, side),), depth - 1, dom)
            return Match(self.gen_value(ctx, ty), var, body, var, body)
        if choice == "handle":
            return self._gen_handle(ctx, depth, dom)
        raise GenerationExhausted(choice)

    def _gen_handle(self, ctx, depth, dom):
        pool = [h for h in self.handlers
                if dom is None
                or any(h.functor.object_map[o] == dom
                       for o in h.source.category.objects)]
        if not pool:
            raise GenerationExhausted("no handler reaches the required object")
        handler = self.rng.choice(pool)
        prim_ctx = tuple((n, t) for n, t in ctx if is_primitive(t))
        starts = [o for o in handler.source.category.objects
                  if dom is None or handler.functor.object_map[o] == dom]
        inner = self._gen_op_spine(prim_ctx, depth - 1, handler, starts)
        handle = Handle(inner, handler)
        try:
            grade_of_computation(ctx, handle, self.sig)
        except CateffTypeError as exc:
            # a default clause need not check at every k a spine demands
            raise GenerationExhausted(str(exc)) from exc
        return handle

    def _gen_op_spine(self, ctx, depth, handler: HandlerAst, starts):
        """A let-spine of operations from a start object to the handler object."""
        src = handler.source
        for _ in range(24):
            cur = self.rng.choice(starts)
            picked = []
            for _ in range(self.rng.randint(0, max(depth, 1))):
                ops = [op for op in src.ops.values() if op.grade.dom == cur]
                if not ops:
                    break
                op = self.rng.choice(ops)
                picked.append(op)
                cur = op.grade.cod
            if cur != handler.at_obj:
                continue
            binders, args = [], []
            running = ctx
            for op in picked:
                args.append(self.gen_value(running, op.param))
                var = self._fresh()
                binders.append((var, op))
                running = running + ((var, op.arity),)
            body = Val(handler.at_obj, self.gen_value(running, handler.in_type))
            for (var, op), arg in zip(reversed(binders), reversed(args)):
                body = Let(var, OpCall(op.name, arg), body)
            return body
        raise GenerationExhausted("no operation spine reaches the handler object")

    def gen_program(self, depth: int) -> CompAst:
        comp = self.gen_comp((), depth, None)
        grade_of_computation((), comp, self.sig)  # every emitted term re-checks
        return comp


def generate_wellgraded_terms(sig: GradedSignature, seed: int, count: int,
                              depth: int, handler_pool=()) -> list:
    gen = TermGenerator(sig, seed, handler_pool)
    return [gen.gen_program(depth) for _ in range(count)]


def generate_unit_programs(sig: GradedSignature, seed: int, count: int,
                           depth: int) -> list:
    """Closed programs of type 1 at an identity grade, for the adequacy suite."""
    gen = TermGenerator(sig, seed, (), pure_only=True)
    id_ops = [op for op in sig.ops.values() if op.grade.is_identity]
    out = []
    for i in range(count):
        obj = gen.rng.choice(sig.category.objects)
        comp = gen.gen_comp((), depth - 1, obj)
        var = gen._fresh()
        comp = Let(var, comp, Val(obj, StarV()))
        if id_ops and i % 3 == 0:
            op = gen.rng.choice([op for op in id_ops])
            if op.grade.dom == obj:
                var2 = gen._fresh()
                comp = Let(var2, OpCall(op.name, gen.gen_value((), op.param)), comp)
        _, g = grade_of_computation((), comp, sig)
        assert g.is_identity
        out.append(comp)
    return out


# ---------------------------------------------------------------------------
# whole-file conformance

def run_conformance(bundle, seed=0, count=200, depth=4,
                    max_steps=DEFAULT_MAX_STEPS) -> ConformanceReport:
    report = ConformanceReport()
    try:
        judgements = check_bundle(bundle)
    except CateffTypeError as exc:
        report.add("typecheck", False, str(exc))
        return report
    report.add("typecheck", True, f"{len(judgements)} program(s)")

    for name, prog in bundle.programs.items():
        ty, grade = judgements[name].result_type, judgements[name].grade
        if is_primitive(ty):
            res = verify_soundness_along_trace(prog.body, prog.signature, max_steps)
            report.add(f"soundness[{name}]", res.passed, res.detail)
            res = verify_lemma_shapes(prog.body, prog.signature, max_steps)
            report.add(f"lemma-shapes[{name}]", res.passed, res.detail)
        if ty == UNIT and grade.is_identity:
            res = verify_adequacy(prog.body, prog.signature, max_steps)
            report.add(f"adequacy[{name}]", res.passed, res.detail)

    handler_pool = tuple(bundle.handlers.values())
    for sig_name, sig in bundle.signatures.items():
        terms = generate_wellgraded_terms(sig, seed, count, depth, handler_pool)
        sound = shapes = 0
        failure = None
        for idx, comp in enumerate(terms):
            res = verify_lemma_shapes(comp, sig, max_steps)
            if res.passed:
                shapes += 1
            elif failure is None:
                failure = f"term {idx}: {res.detail}"
            res = verify_soundness_along_trace(comp, sig, max_steps)
            if res.passed:
                sound += 1
            elif failure is None:
                failure = f"term {idx}: {res.detail}"
        report.add(f"generated[{sig_name}]",
                   failure is None,
                   failure or f"{len(terms)} terms: {shapes} lemma-shape, "
                              f"{sound} soundness checks passed")
        unit_terms = generate_unit_programs(sig, seed + 1, max(count // 4, 1), depth)
        bad = None
        for idx, comp in enumerate(unit_terms):
            res = verify_adequacy(comp, sig, max_steps)
            if not res.passed:
                bad = f"unit term {idx}: {res.detail}"
                break
        report.add(f"adequacy[{sig_name}]", bad is None,
                   bad or f"{len(unit_terms)} unit programs")
    return report
