"""Syntax-directed type and grade checking in one pass.

Every computation judgement carries a morphism of the grading category in
normal form; annotations on lambdas, injections and weakenings make checking
fully deterministic.

Inside a handled computation the same judgement also yields the subterm's
*demand*: each operation it performs, paired with its continuation grade k,
the grade from just after the operation to the end of the subterm.  A `let`
composes the bound's k with the body's grade and a weakening composes it with
its post-weakening.  A lambda bound by a `let` carries its body's demand to
every application it heads.  Anywhere else, like any lambda literal that is
not applied on the spot, it is *dynamic*: every operation written in its body
may run at a k known only at run time.  A handle site covers its body's demand
with clause instances and each dynamic operation with all its clauses, a
default one included; the handle node performs what its covering instances and
its return clause perform.  A clause that goes on after its resumption
returns, or passes the resumption on, runs the later clauses inside its own
remainder, so every operation written in the handler's clauses is then
dynamic.  Outside a handled computation no demand is built.

Handler checking validates the return clause, every explicit clause and the
scope of every default clause eagerly.  A handle site checks a default clause
at each continuation grade its body demands and, for each dynamic operation,
once at the generic grade ``<k>``: no rule mentions it, so the clause then
checks at every G(k), and a demand graded through ``<k>`` is dynamic.  Each
checked clause instance is kept on the handler with its demand, so the step
engine and the denotation only look clauses up.

A handled computation may capture only primitive variables.  When every
variable of the context is primitive, judging the computation already
finds any variable the context lacks, so its free variables are walked
only under a context that binds a non-primitive one.  The operations
written in a handler's clauses are read off by a walk over
``terms.children`` that, at a nested handle, goes into the nested
handler's clause bodies in place of the computation it handles.
"""
from __future__ import annotations

from dataclasses import dataclass

from .grading import Morphism, compose
from .signature import (
    Arrow, GradedSignature, Prod, Sum, Type, Unit, is_primitive,
)
from .terms import (
    App, Clause, CompAst, Gunit, Handle, HandlerAst, Inl, Inr, Lam, Let,
    Match, OpCall, Pair, Program, Proj, StarV, Val, ValueAst, Var, children,
    clause_bodies, free_vars,
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

_NONE = frozenset()  # demand and dynamic operations outside handled code
_RESUME = "<resume>"  # not an operation name; see _check_clause
_K = "<k>"  # not a generator name; see _check_clause


@dataclass
class Judgement:
    result_type: Type
    grade: Morphism


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
        case Lam():
            return _judge_lambda(ctx, v, sig, None)[0]
    raise CateffTypeError(f"not a value: {v!r}")


def _judge_lambda(ctx: Ctx, lam: Lam, sig: GradedSignature, lams):
    """Arrow type of a lambda, with the demand and dynamic operations of
    its body (built when ``lams`` is not None)."""
    body_type, body_grade, demand, dynamic = judge(
        ctx + ((lam.var, lam.var_type),), lam.body, sig,
        lams and _shadow(lams, lam.var))
    if body_grade != lam.grade:
        raise GradeMismatch(
            f"lambda annotated {lam.grade} but body has grade {body_grade}")
    return Arrow(lam.var_type, body_type, body_grade), demand, dynamic


def _escaping(v: ValueAst, lams: dict) -> set:
    """Operations written in the lambdas that ``v`` passes on as data."""
    match v:
        case Var(name):
            return set(lams[name][2]) if name in lams else set()
        case Lam(_, _, _, body):
            ops = _ops_syntactically_in(body)
            for name in free_vars(v) & lams.keys():
                ops |= lams[name][2]
            return ops
        case Pair(left, right):
            return _escaping(left, lams) | _escaping(right, lams)
        case Inl(val, _) | Inr(val, _):
            return _escaping(val, lams)
    return set()


def _shadow(lams: dict, *names) -> dict:
    if any(name in lams for name in names):
        return {k: v for k, v in lams.items() if k not in names}
    return lams


# ---------------------------------------------------------------------------
# computations

def grade_of_computation(ctx: Ctx, m: CompAst,
                         sig: GradedSignature) -> tuple[Type, Morphism]:
    ty, grade, _, _ = judge(ctx, m, sig, None)
    return ty, grade


def judge(ctx: Ctx, m: CompAst, sig: GradedSignature, lams):
    """Type, grade, demand and dynamic operations of ``m``.

    ``lams`` is None outside a handled computation, and then the demand and
    dynamic operations come back empty.  Inside one it maps each let-bound
    lambda in scope, and a clause's resumption, to the demand, dynamic
    operations and written operations of its body, and every set returned
    is the caller's to extend.
    """
    cat = sig.category
    match m:
        case Val(obj, v):
            ty = type_of_value(ctx, v, sig)
            if lams is None:
                return ty, cat.identity(obj), _NONE, _NONE
            return ty, cat.identity(obj), set(), _escaping(v, lams)
        case OpCall(op, arg):
            decl = sig[op]
            got = type_of_value(ctx, arg, sig)
            if got != decl.param:
                raise TypeMismatch(
                    f"operation {op} takes {decl.param}, given {got}")
            if lams is None:
                return decl.arity, decl.grade, _NONE, _NONE
            return (decl.arity, decl.grade,
                    {(op, cat.identity(decl.grade.cod))}, set())
        case Let(var, bound, body):
            if lams is not None and isinstance(bound, Val) \
                    and isinstance(bound.val, Lam):
                # binding a lambda performs nothing; its body's demand goes
                # to the applications it heads
                lam = bound.val
                bound_type, lam_demand, lam_dynamic = _judge_lambda(
                    ctx, lam, sig, lams)
                f = cat.identity(bound.obj)
                bound_demand = bound_dynamic = _NONE
                body_lams = {**lams, var: (lam_demand, lam_dynamic,
                                           _escaping(lam, lams))}
            else:
                bound_type, f, bound_demand, bound_dynamic = judge(
                    ctx, bound, sig, lams)
                body_lams = lams and _shadow(lams, var)
            body_type, g, demand, dynamic = judge(
                ctx + ((var, bound_type),), body, sig, body_lams)
            if f.cod != g.dom:
                raise GradeMismatch(
                    f"let: grade {f} ends at {f.cod} but continuation "
                    f"starts at {g.dom}")
            if lams is not None:
                demand.update((op, compose(k, g)) for op, k in bound_demand)
                dynamic |= bound_dynamic
            return body_type, compose(f, g), demand, dynamic
        case App(fn, arg):
            if lams is not None and isinstance(fn, Lam):
                fn_type, demand, dynamic = _judge_lambda(ctx, fn, sig, lams)
            else:
                fn_type = type_of_value(ctx, fn, sig)
                demand = dynamic = _NONE
                if lams is not None:
                    # past the literal case, a function is a variable
                    if isinstance(fn, Var) and fn.name in lams:
                        demand, dynamic, _ = lams[fn.name]
                        demand, dynamic = set(demand), set(dynamic)
                    else:
                        demand, dynamic = set(), set()
            if not isinstance(fn_type, Arrow):
                raise TypeMismatch(f"application of non-function of type {fn_type}")
            arg_type = type_of_value(ctx, arg, sig)
            if arg_type != fn_type.arg:
                raise TypeMismatch(
                    f"argument has type {arg_type}, expected {fn_type.arg}")
            if lams is not None:
                dynamic |= _escaping(arg, lams)
            return fn_type.res, fn_type.grade, demand, dynamic
        case Proj(pair, x, y, body):
            pair_type = type_of_value(ctx, pair, sig)
            if not isinstance(pair_type, Prod):
                raise TypeMismatch(f"split of non-product of type {pair_type}")
            ty, g, demand, dynamic = judge(
                ctx + ((x, pair_type.left), (y, pair_type.right)), body, sig,
                lams and _shadow(lams, x, y))
            if lams is not None:
                dynamic |= _escaping(pair, lams)
            return ty, g, demand, dynamic
        case Match(scrut, x, left, y, right):
            scrut_type = type_of_value(ctx, scrut, sig)
            if not isinstance(scrut_type, Sum):
                raise TypeMismatch(f"case on non-sum of type {scrut_type}")
            lt, lf, demand, dynamic = judge(
                ctx + ((x, scrut_type.left),), left, sig,
                lams and _shadow(lams, x))
            rt, rf, right_demand, right_dynamic = judge(
                ctx + ((y, scrut_type.right),), right, sig,
                lams and _shadow(lams, y))
            if lt != rt:
                raise TypeMismatch(f"case branches have types {lt} and {rt}")
            if lf != rf:
                raise GradeMismatch(f"case branches have grades {lf} and {rf}")
            if lams is not None:
                demand |= right_demand
                dynamic |= right_dynamic | _escaping(scrut, lams)
            return lt, lf, demand, dynamic
        case Gunit(pre, body, post):
            if not cat.is_wide(pre):
                raise NotInWideSubcategory(f"weakening {pre} is not in R")
            if not cat.is_wide(post):
                raise NotInWideSubcategory(f"weakening {post} is not in R")
            body_type, f, demand, dynamic = judge(ctx, body, sig, lams)
            if pre.cod != f.dom or f.cod != post.dom:
                raise GradeMismatch(
                    f"weaken {pre} {{ grade {f} }} {post}: endpoints do not meet")
            if lams is not None:
                demand = {(op, compose(k, post)) for op, k in demand}
            return body_type, compose(compose(pre, f), post), demand, dynamic
        case Handle(body, handler):
            return _judge_handle(ctx, body, handler, sig, lams)
    raise CateffTypeError(f"not a computation: {m!r}")


def _judge_handle(ctx: Ctx, body: CompAst, h: HandlerAst,
                  outer_sig: GradedSignature, lams):
    check_handler(h)
    if h.target is not outer_sig:
        raise CateffTypeError(
            f"handler {h.name} produces {h.target.name} computations, "
            f"used inside {outer_sig.name}")
    if not all(is_primitive(ty) for _, ty in ctx):
        # otherwise judging the body finds any variable the context lacks
        for name in sorted(free_vars(body)):
            ty = lookup(ctx, name)
            if not is_primitive(ty):
                raise NonPrimitiveCapturedVariable(
                    f"handled computation captures {name} of non-primitive "
                    f"type {ty}")
    # captured variables are primitive, so no let-bound lambda is in scope
    body_type, f, demanded, dynamic_ops = judge(ctx, body, h.source, {})
    if f.cod != h.at_obj:
        raise ObjectMismatch(
            f"handled computation has grade {f} ending at {f.cod}, "
            f"but handler {h.name} is at {h.at_obj}")
    if body_type != h.in_type:
        raise TypeMismatch(
            f"handled computation has type {body_type}, "
            f"handler {h.name} expects {h.in_type}")
    sites = sorted(demanded, key=lambda it: (it[0], it[1].dom, it[1].path))
    for op in sorted(dynamic_ops):  # a run may pick any clause for op
        sites += [key for key in h.clauses if key[0] == op] + [(op, None)]
    covering = [_check_clause(h, op, k) for op, k in sites]
    grade = h.functor.apply(f)
    if lams is None:
        return h.out_type, grade, _NONE, _NONE
    # the handle node performs what its return clause and its covering
    # clause instances perform, at grades running to the node's end
    demand, dynamic = set(), set()
    for clause_demand, clause_dynamic in (h.checked[None], *covering):
        demand |= clause_demand
        dynamic |= clause_dynamic
    return h.out_type, grade, demand, dynamic


# ---------------------------------------------------------------------------
# handlers

def check_handler(h: HandlerAst) -> HandlerAst:
    if None in h.checked:
        return h
    if not (is_primitive(h.in_type) and is_primitive(h.out_type)):
        raise NonPrimitiveHandledType(
            f"handler {h.name}: handled and produced types must be primitive")
    if h.functor.source is not h.source.category \
            or h.functor.target is not h.target.category:
        raise CateffTypeError(
            f"handler {h.name}: functor does not match the signatures")
    at_img = h.functor.object_map[h.at_obj]
    ret_type, ret_grade, ret_demand, ret_dynamic = judge(
        ((h.ret_var, h.in_type),), h.ret_body, h.target, {})
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
        _check_clause(h, op, k)
    for op, clause in h.defaults.items():
        unbound = free_vars(clause.body) \
            - {clause.param_var, clause.resume_var}
        if unbound:
            raise UnboundVariable(
                f"handler {h.name}: unbound variable {min(unbound)!r} "
                f"in the default clause for {op}")
    h.checked[None] = (ret_demand, ret_dynamic)
    return h


def _check_clause(h: HandlerAst, op: str, k: Morphism | None) -> tuple:
    """Demand and dynamic operations of the clause for ``op`` at continuation
    grade ``k``, checked once.  With ``k`` None the default clause is checked
    for a dynamically graded call site, at the generic grade ``<k>``."""
    if (op, k) in h.checked:
        return h.checked[(op, k)]
    clause = clause_for(h, op, k)
    decl = h.source[op]
    if k is None:
        ends = (h.functor.object_map[o] for o in (decl.grade.cod, h.at_obj))
        gk = Morphism(h.target.category, *ends, (_K,))
        site = f"default clause for {op} at a dynamically graded call site"
    else:
        gk = h.functor.apply(k)
        site = f"clause for {op} at k={k}"
    expected = compose(h.functor.apply(decl.grade), gk)
    resume_type = Arrow(decl.arity, h.out_type, gk)
    ctx = ((clause.param_var, decl.param), (clause.resume_var, resume_type))
    # the resumption is tracked like a let-bound lambda performing _RESUME
    # where it returns, so the demand records the grade left after each call
    resume = ({(_RESUME, h.target.category.identity(gk.cod))}, _NONE,
              {_RESUME})
    body_type, body_grade, demand, dynamic = judge(
        ctx, clause.body, h.target, {clause.resume_var: resume})
    if body_type != h.out_type:
        raise TypeMismatch(
            f"handler {h.name}: clause for {decl.name} has type {body_type}, "
            f"declared {h.out_type}")
    if body_grade != expected:
        raise ClauseGradeMismatch(
            f"handler {h.name}: {site} has grade {body_grade}, "
            f"expected {expected}")
    after = {g for name, g in demand if name == _RESUME}
    demand -= {(_RESUME, g) for g in after}
    escaped = _RESUME in dynamic
    dynamic.discard(_RESUME)
    if escaped or not all(g.is_identity for g in after):
        # the rest of the handled computation runs inside this clause, so
        # the operations of later clauses run at grades that this clause's
        # remainder extends by an amount known only at run time
        for body in clause_bodies(h):
            dynamic |= _ops_syntactically_in(body)
    # a grade through <k> runs through a G(k) known only at run time
    dynamic.update(name for name, g in demand if _K in g.path)
    demand = {(name, g) for name, g in demand if _K not in g.path}
    h.checked[(op, k)] = (demand, dynamic)
    return demand, dynamic


def clause_for(h: HandlerAst, op: str, k: Morphism | None) -> Clause:
    """Clause selection: explicit clause at this k first, then the default."""
    clause = h.clauses.get((op, k)) or h.defaults.get(op)
    if clause is None:
        raise MissingClause(op, k)
    return clause


def _ops_syntactically_in(node) -> set:
    """Names of the ambient signature's operations written anywhere in
    ``node``, lambda bodies included.  A nested handler's handled
    computation is over that handler's source signature, so at a handle the
    walk takes the handler's clause bodies, which are over ours, in its
    place."""
    ops = {node.op} if isinstance(node, OpCall) else set()
    subterms = clause_bodies(node.handler) if isinstance(node, Handle) \
        else (child for child, _ in children(node))
    for sub in subterms:
        ops |= _ops_syntactically_in(sub)
    return ops


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
    return Judgement(ty, grade)


def check_bundle(bundle) -> dict[str, Judgement]:
    for handler in bundle.handlers.values():
        check_handler(handler)
    return {name: check_program(prog)
            for name, prog in bundle.programs.items()}
