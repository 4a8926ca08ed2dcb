"""Syntax-directed type and grade checking.

Every computation judgement carries a morphism of the grading category in
normal form; annotations on lambdas, injections and weakenings make checking
fully deterministic.  Handler checking validates the return clause and every
explicit clause eagerly; per-operation default clauses are checked lazily at
each handle site, once per continuation grade actually demanded there.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .grading import GradingFunctor, Morphism, compose
from .signature import (
    Arrow, GradedSignature, Prod, Sum, Type, Unit, is_primitive,
)
from .terms import (
    App, Clause, CompAst, Gunit, Handle, HandlerAst, Inl, Inr, Lam, Let,
    Match, OpCall, Pair, Program, Proj, StarV, Val, ValueAst, Var,
    free_comp_vars,
)


class CateffTypeError(Exception):
    pass


class UnboundVariable(CateffTypeError):
    pass


class TypeMismatch(CateffTypeError):
    pass


class GradeMismatch(CateffTypeError):
    pass


class NotInWideSubcategory(CateffTypeError):
    pass


class ClauseGradeMismatch(CateffTypeError):
    pass


class ReturnClauseGradeNotIdentity(CateffTypeError):
    pass


class NonPrimitiveHandledType(CateffTypeError):
    pass


class NonPrimitiveCapturedVariable(CateffTypeError):
    pass


class ObjectMismatch(CateffTypeError):
    pass


class MissingClause(CateffTypeError):
    def __init__(self, op, k):
        self.op, self.k = op, k
        at = f"at continuation grade {k}" if k is not None \
            else "for a dynamically graded call site"
        super().__init__(f"no clause for operation {op!r} {at}")


Ctx = tuple  # of (name, Type), rightmost binding wins


@dataclass(frozen=True)
class HandlerProfile:
    functor: GradingFunctor
    at_obj: str
    in_type: Type
    out_type: Type


@dataclass
class Judgement:
    context: Ctx
    subject: object
    result_type: Type
    grade: Optional[Morphism] = None


def lookup(ctx: Ctx, name: str) -> Type:
    for var, ty in reversed(ctx):
        if var == name:
            return ty
    raise UnboundVariable(f"unbound variable {name!r}")


# ---------------------------------------------------------------------------
# values

def type_of_value(ctx: Ctx, v: ValueAst, sig: GradedSignature) -> Type:
    match v:
        case StarV():
            return Unit()
        case Var(name):
            return lookup(ctx, name)
        case Pair(left, right):
            return Prod(type_of_value(ctx, left, sig),
                        type_of_value(ctx, right, sig))
        case Inl(val, ann):
            if not isinstance(ann, Sum):
                raise TypeMismatch(f"inl annotated with non-sum type {ann}")
            got = type_of_value(ctx, val, sig)
            if got != ann.left:
                raise TypeMismatch(f"inl payload has type {got}, expected {ann.left}")
            return ann
        case Inr(val, ann):
            if not isinstance(ann, Sum):
                raise TypeMismatch(f"inr annotated with non-sum type {ann}")
            got = type_of_value(ctx, val, sig)
            if got != ann.right:
                raise TypeMismatch(f"inr payload has type {got}, expected {ann.right}")
            return ann
        case Lam(grade, var, var_type, body):
            body_type, body_grade = grade_of_computation(
                ctx + ((var, var_type),), body, sig)
            if body_grade != grade:
                raise GradeMismatch(
                    f"lambda annotated {grade} but body has grade {body_grade}")
            return Arrow(var_type, body_type, grade)
    raise CateffTypeError(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# computations

def grade_of_computation(ctx: Ctx, m: CompAst,
                         sig: GradedSignature) -> tuple[Type, Morphism]:
    cat = sig.category
    match m:
        case Val(obj, v):
            return type_of_value(ctx, v, sig), cat.identity(obj)
        case OpCall(op, arg):
            decl = sig[op]
            got = type_of_value(ctx, arg, sig)
            if got != decl.param:
                raise TypeMismatch(
                    f"operation {op} takes {decl.param}, given {got}")
            return decl.arity, decl.grade
        case Let(var, bound, body):
            bound_type, f = grade_of_computation(ctx, bound, sig)
            body_type, g = grade_of_computation(
                ctx + ((var, bound_type),), body, sig)
            if f.cod != g.dom:
                raise GradeMismatch(
                    f"let: grade {f} ends at {f.cod} but continuation "
                    f"starts at {g.dom}")
            return body_type, compose(f, g)
        case App(fn, arg):
            fn_type = type_of_value(ctx, fn, sig)
            if not isinstance(fn_type, Arrow):
                raise TypeMismatch(f"application of non-function of type {fn_type}")
            arg_type = type_of_value(ctx, arg, sig)
            if arg_type != fn_type.arg:
                raise TypeMismatch(
                    f"argument has type {arg_type}, expected {fn_type.arg}")
            return fn_type.res, fn_type.grade
        case Proj(pair, x, y, body):
            pair_type = type_of_value(ctx, pair, sig)
            if not isinstance(pair_type, Prod):
                raise TypeMismatch(f"split of non-product of type {pair_type}")
            return grade_of_computation(
                ctx + ((x, pair_type.left), (y, pair_type.right)), body, sig)
        case Match(scrut, x, left, y, right):
            scrut_type = type_of_value(ctx, scrut, sig)
            if not isinstance(scrut_type, Sum):
                raise TypeMismatch(f"case on non-sum of type {scrut_type}")
            lt, lf = grade_of_computation(ctx + ((x, scrut_type.left),), left, sig)
            rt, rf = grade_of_computation(ctx + ((y, scrut_type.right),), right, sig)
            if lt != rt:
                raise TypeMismatch(f"case branches have types {lt} and {rt}")
            if lf != rf:
                raise GradeMismatch(f"case branches have grades {lf} and {rf}")
            return lt, lf
        case Gunit(pre, body, post):
            if not cat.is_wide(pre):
                raise NotInWideSubcategory(f"weakening {pre} is not in R")
            if not cat.is_wide(post):
                raise NotInWideSubcategory(f"weakening {post} is not in R")
            body_type, f = grade_of_computation(ctx, body, sig)
            if pre.cod != f.dom or f.cod != post.dom:
                raise GradeMismatch(
                    f"weaken {pre} {{ grade {f} }} {post}: endpoints do not meet")
            return body_type, compose(compose(pre, f), post)
        case Handle(body, handler):
            return check_handle_site(ctx, body, handler, sig)
    raise CateffTypeError(f"not a computation: {m!r}")


# ---------------------------------------------------------------------------
# handlers

def check_handler(h: HandlerAst) -> HandlerProfile:
    cached = getattr(h, "_profile", None)
    if cached is not None:
        return cached
    if getattr(h, "_profile_in_progress", False):
        # recursive handler reference; clauses are being checked one level up
        return HandlerProfile(h.functor, h.at_obj, h.in_type, h.out_type)
    h._profile_in_progress = True
    try:
        if not (is_primitive(h.in_type) and is_primitive(h.out_type)):
            raise NonPrimitiveHandledType(
                f"handler {h.name}: handled and produced types must be primitive")
        if h.functor.source is not h.source.category \
                or h.functor.target is not h.target.category:
            raise CateffTypeError(
                f"handler {h.name}: functor does not match the signatures")
        at_img = h.functor.object_map[h.at_obj]
        ret_type, ret_grade = grade_of_computation(
            ((h.ret_var, h.in_type),), h.ret_body, h.target)
        if ret_type != h.out_type:
            raise TypeMismatch(
                f"handler {h.name}: return clause has type {ret_type}, "
                f"declared {h.out_type}")
        if not (ret_grade.is_identity and ret_grade.dom == at_img):
            raise ReturnClauseGradeNotIdentity(
                f"handler {h.name}: return clause has grade {ret_grade}, "
                f"expected id({at_img})")
        for (op, k), clause in h.clauses.items():
            decl = h.source[op]
            if k.cod != h.at_obj:
                raise ClauseGradeMismatch(
                    f"handler {h.name}: clause for {op} at {k} does not end "
                    f"at {h.at_obj}")
            if k.dom != decl.grade.cod:
                raise ClauseGradeMismatch(
                    f"handler {h.name}: clause for {op} at {k} does not start "
                    f"at the codomain {decl.grade.cod} of the operation grade")
            _check_clause(h, decl, k, clause)
        profile = HandlerProfile(h.functor, h.at_obj, h.in_type, h.out_type)
        h._profile = profile
        return profile
    finally:
        h._profile_in_progress = False


def _check_clause(h: HandlerAst, decl, k: Morphism, clause: Clause):
    gk = h.functor.apply(k)
    resume_type = Arrow(decl.arity, h.out_type, gk)
    ctx = ((clause.param_var, decl.param), (clause.resume_var, resume_type))
    body_type, body_grade = grade_of_computation(ctx, clause.body, h.target)
    if body_type != h.out_type:
        raise TypeMismatch(
            f"handler {h.name}: clause for {decl.name} has type {body_type}, "
            f"declared {h.out_type}")
    expected = h.functor.apply(compose(decl.grade, k))
    if body_grade != expected:
        raise ClauseGradeMismatch(
            f"handler {h.name}: clause for {decl.name} at k={k} has grade "
            f"{body_grade}, expected {expected}")


def clause_for(h: HandlerAst, op: str, k: Morphism) -> Clause:
    """Clause selection: explicit clause at this k first, then the default."""
    clause = h.clauses.get((op, k))
    if clause is not None:
        return clause
    clause = h.defaults.get(op)
    if clause is None:
        raise MissingClause(op, k)
    checked = getattr(h, "_default_ok", None)
    if checked is None:
        checked = h._default_ok = set()
    key = (op, k.dom, k.path)
    if key not in checked:
        _check_clause(h, h.source[op], k, clause)
        checked.add(key)
    return clause


def check_handle_site(ctx: Ctx, body: CompAst, h: HandlerAst,
                      outer_sig: GradedSignature) -> tuple[Type, Morphism]:
    profile = check_handler(h)
    if h.target is not outer_sig:
        raise CateffTypeError(
            f"handler {h.name} produces {h.target.name} computations, "
            f"used inside {outer_sig.name}")
    for name in sorted(free_comp_vars(body)):
        ty = lookup(ctx, name)
        if not is_primitive(ty):
            raise NonPrimitiveCapturedVariable(
                f"handled computation captures {name} of non-primitive type {ty}")
    body_type, f = grade_of_computation(ctx, body, h.source)
    if f.cod != h.at_obj:
        raise ObjectMismatch(
            f"handled computation has grade {f} ending at {f.cod}, "
            f"but handler {h.name} is at {h.at_obj}")
    if body_type != h.in_type:
        raise TypeMismatch(
            f"handled computation has type {body_type}, "
            f"handler {h.name} expects {h.in_type}")
    tail0 = h.source.category.identity(h.at_obj)
    demanded, dynamic = collect_continuations(ctx, body, tail0, h.source, {}, set())
    for op, k in sorted(demanded, key=lambda it: (it[0], it[1].dom, it[1].path)):
        clause_for(h, op, k)
    for op in sorted(dynamic):
        if op not in h.defaults:
            raise MissingClause(op, None)
    return h.out_type, h.functor.apply(f)


# ---------------------------------------------------------------------------
# static continuation grades
#
# For each occurrence of an operation inside a handled computation, the
# continuation grade is the grade of the evaluation context that will
# surround it at handling time.  Spine positions (lets, branches, directly
# applied lambdas, lambdas let-bound to a variable) yield exact grades;
# operations hiding inside values that flow in less obvious ways are
# reported as "dynamic" and require a default clause.

def collect_continuations(ctx, m, tail, sig, lam_env, seen_handlers):
    demanded: set = set()
    dynamic: set = set()

    def scan_value(v):
        match v:
            case Lam(_, _, _, body):
                dynamic.update(_ops_syntactically_in(body))
            case Pair(left, right):
                scan_value(left)
                scan_value(right)
            case Inl(val, _) | Inr(val, _):
                scan_value(val)
            case _:
                pass

    def go(ctx, m, tail, lam_env):
        match m:
            case Val(_, v):
                scan_value(v)
            case OpCall(op, _):
                demanded.add((op, tail))
            case Let(var, bound, body):
                bound_type, _ = grade_of_computation(ctx, bound, sig)
                inner_ctx = ctx + ((var, bound_type),)
                _, g = grade_of_computation(inner_ctx, body, sig)
                lam_env2 = {k: v for k, v in lam_env.items() if k != var}
                if isinstance(bound, Val) and isinstance(bound.val, Lam):
                    # remember the definition-site scope for the body's sites
                    lam_env2[var] = (bound.val, ctx, dict(lam_env2))
                    go(inner_ctx, body, tail, lam_env2)
                else:
                    go(ctx, bound, compose(g, tail), lam_env)
                    go(inner_ctx, body, tail, lam_env2)
            case App(fn, arg):
                scan_value(arg)
                if isinstance(fn, Lam):
                    go(ctx + ((fn.var, fn.var_type),), fn.body, tail, lam_env)
                elif isinstance(fn, Var) and fn.name in lam_env:
                    lam, def_ctx, def_env = lam_env[fn.name]
                    go(def_ctx + ((lam.var, lam.var_type),), lam.body, tail,
                       def_env)
                else:
                    scan_value(fn)
            case Proj(pair, x, y, body):
                scan_value(pair)
                pair_type = type_of_value(ctx, pair, sig)
                lam_env2 = {k: v for k, v in lam_env.items() if k not in (x, y)}
                go(ctx + ((x, pair_type.left), (y, pair_type.right)), body,
                   tail, lam_env2)
            case Match(scrut, x, left, y, right):
                scan_value(scrut)
                scrut_type = type_of_value(ctx, scrut, sig)
                go(ctx + ((x, scrut_type.left),), left, tail,
                   {k: v for k, v in lam_env.items() if k != x})
                go(ctx + ((y, scrut_type.right),), right, tail,
                   {k: v for k, v in lam_env.items() if k != y})
            case Gunit(_, body, post):
                go(ctx, body, compose(post, tail), lam_env)
            case Handle(inner, h2):
                if id(h2) in seen_handlers:
                    return
                # operations performed by the handle node itself come from
                # the clause bodies of h2, which live in our signature
                inner_tail = h2.source.category.identity(h2.at_obj)
                inner_demanded, inner_dynamic = collect_continuations(
                    ctx, inner, inner_tail, h2.source, {},
                    seen_handlers | {id(h2)})
                go(((h2.ret_var, h2.in_type),), h2.ret_body, tail, {})
                for op2, k2 in inner_demanded:
                    clause = h2.clauses.get((op2, k2)) or h2.defaults.get(op2)
                    if clause is None:
                        continue  # the handle site's own check reports this
                    _collect_clause(clause, h2, op2, k2, tail)
                for op2 in inner_dynamic:
                    clause = h2.defaults.get(op2)
                    if clause is not None:
                        dynamic.update(_ops_syntactically_in(clause.body))
            case _:
                raise CateffTypeError(f"not a computation: {m!r}")

    def _collect_clause(clause, h2, op2, k2, tail):
        decl = h2.source[op2]
        gk = h2.functor.apply(k2)
        clause_ctx = ((clause.param_var, decl.param),
                      (clause.resume_var, Arrow(decl.arity, h2.out_type, gk)))
        go(clause_ctx, clause.body, tail, {})

    go(ctx, m, tail, dict(lam_env))
    return demanded, dynamic


def _ops_syntactically_in(m: CompAst) -> set:
    """Names of the ambient signature's operations occurring anywhere in m.

    Descends into values and handler clause bodies; the computation handled
    by a nested handler is over that handler's source signature and is
    skipped (its operations are not the ambient handler's business)."""
    out = set()
    def go_v(v):
        match v:
            case Lam(_, _, _, body):
                go(body)
            case Pair(left, right):
                go_v(left)
                go_v(right)
            case Inl(val, _) | Inr(val, _):
                go_v(val)
            case _:
                pass
    def go(m):
        match m:
            case Val(_, v):
                go_v(v)
            case OpCall(op, arg):
                out.add(op)
                go_v(arg)
            case Let(_, bound, body):
                go(bound)
                go(body)
            case App(fn, arg):
                go_v(fn)
                go_v(arg)
            case Proj(pair, _, _, body):
                go_v(pair)
                go(body)
            case Match(scrut, _, left, _, right):
                go_v(scrut)
                go(left)
                go(right)
            case Gunit(_, body, _):
                go(body)
            case Handle(_, h2):
                # inner computation is over another signature; its clause
                # bodies are over ours
                go(h2.ret_body)
                for cl in h2.clauses.values():
                    go(cl.body)
                for cl in h2.defaults.values():
                    go(cl.body)
    go(m)
    return out


# ---------------------------------------------------------------------------
# entry points

def check_program(prog: Program) -> Judgement:
    ty, grade = grade_of_computation((), prog.body, prog.signature)
    if ty != prog.ann_type:
        raise TypeMismatch(
            f"program {prog.name}: body has type {ty}, declared {prog.ann_type}")
    if grade != prog.ann_grade:
        raise GradeMismatch(
            f"program {prog.name}: body has grade {grade}, "
            f"declared {prog.ann_grade}")
    return Judgement((), prog, ty, grade)


def check_bundle(bundle) -> dict[str, Judgement]:
    for handler in bundle.handlers.values():
        check_handler(handler)
    return {name: check_program(prog)
            for name, prog in bundle.programs.items()}
