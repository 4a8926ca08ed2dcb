"""Denotational semantics: values to semantic values, computations to
graded term trees, handlers to tree folds.

A computation judged at grade f denotes a term tree of grade f over the
denotation of its result type.  Let is grafting, operation calls become
one-layer nodes over canonical leaves, handlers fold trees leaf- and
node-wise along their grading functor, and grade weakenings wrap the tree in
coercion nodes (pre-coercion at the root, post-coercion at every leaf).

As in the paper, only well-typed terms have a denotation: nothing here
re-checks what the checker guarantees (an unbound name is a ``KeyError``).
"""
from __future__ import annotations

from .freemodel import Coerce, Leaf, Node, TermTree, coerce, graft
from .signature import (
    FunV, GradedSignature, InlV, InrV, PairV, SemValue, STAR, enumerate_type,
)
from .terms import (
    App, CompAst, Gunit, Handle, HandlerAst, Inl, Inr, Lam, Let, Match,
    OpCall, Pair, Program, Proj, StarV, Val, ValueAst, Var,
)
from .typecheck import clause_for


def _lookup(names: tuple, env: tuple, name: str) -> SemValue:
    for i in range(len(names) - 1, -1, -1):
        if names[i] == name:
            return env[i]
    raise KeyError(name)


def denote_value(names: tuple, v: ValueAst, env: tuple,
                 sig: GradedSignature) -> SemValue:
    match v:
        case StarV():
            return STAR
        case Var(name):
            return _lookup(names, env, name)
        case Pair(left, right):
            return PairV(denote_value(names, left, env, sig),
                         denote_value(names, right, env, sig))
        case Inl(val, _):
            return InlV(denote_value(names, val, env, sig))
        case Inr(val, _):
            return InrV(denote_value(names, val, env, sig))
        case Lam(_, var, _, body):
            return FunV(lambda w: denote_computation(
                names + (var,), body, env + (w,), sig))


def denote_computation(names: tuple, m: CompAst, env: tuple,
                       sig: GradedSignature) -> TermTree:
    cat = sig.category
    match m:
        case Val(obj, v):
            return Leaf(obj, denote_value(names, v, env, sig))
        case OpCall(op, arg):
            decl = sig[op]
            param = denote_value(names, arg, env, sig)
            c = decl.grade.cod
            children = tuple(Leaf(c, x) for x in enumerate_type(decl.arity))
            return Node(op, decl.grade, param, cat.identity(c), children)
        case Let(var, bound, body):
            bound_tree = denote_computation(names, bound, env, sig)
            return graft(bound_tree,
                         lambda v: denote_computation(
                             names + (var,), body, env + (v,), sig),
                         cat)
        case App(fn, arg):
            fv = denote_value(names, fn, env, sig)
            return fv(denote_value(names, arg, env, sig))
        case Proj(pair, x, y, body):
            pv = denote_value(names, pair, env, sig)
            return denote_computation(names + (x, y), body,
                                      env + (pv.left, pv.right), sig)
        case Match(scrut, x, left, y, right):
            sv = denote_value(names, scrut, env, sig)
            if isinstance(sv, InlV):
                return denote_computation(names + (x,), left,
                                          env + (sv.val,), sig)
            return denote_computation(names + (y,), right,
                                      env + (sv.val,), sig)
        case Handle(body, handler):
            fold = denote_handler(handler)
            return fold(denote_computation(names, body, env, handler.source))
        case Gunit(pre, body, post):
            tree = denote_computation(names, body, env, sig)
            lifted = graft(tree,
                           lambda x: coerce(post, Leaf(post.cod, x)),
                           cat)
            return coerce(pre, lifted)


def denote_handler(h: HandlerAst):
    """The fold over handled-theory trees determined by a handler's clauses.

    Leaves go through the return clause; an operation node at continuation
    grade k goes through the clause selected for (op, k), with the folded
    children packaged as the resumption function.  Coercion nodes are
    re-coerced along the grading functor, which keeps them wide.  Handlers
    are declared at top level and checked as closed, so a clause body is
    denoted in the environment of its own binders only.
    """
    target = h.target

    def fold(t: TermTree) -> TermTree:
        match t:
            case Leaf(_, v):
                return denote_computation((h.ret_var,), h.ret_body, (v,),
                                          target)
            case Node(op, _, param, k, children):
                clause = clause_for(h, op, k)
                arity = h.source[op].arity
                rfun = FunV(lambda v, _ch=children:
                            fold(_ch[enumerate_type(arity).index(v)]))
                return denote_computation((clause.param_var, clause.resume_var),
                                          clause.body, (param, rfun), target)
            case Coerce(r, child):
                return coerce(h.functor.apply(r), fold(child))

    return fold


def denote_program(prog: Program) -> TermTree:
    return denote_computation((), prog.body, (), prog.signature)
