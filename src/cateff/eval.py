"""Deterministic small-step evaluation by evaluation-context decomposition.

A closed well-typed computation decomposes uniquely into either a value
form, an unhandled operation under a handler-free context, or a redex under
a stack of lift frames (lets, handles, weakenings).  `steps` is the only
step loop: it decomposes once per step, applies the redex's rule to that
decomposition (an S-HandleOp redex carries the operation it handles) and
rebuilds, yielding every configuration with its decomposition; `run`,
`step` and the conformance checks all consume it or its rule-and-rebuild
helper, so the step budget is counted in one place.  Handler dispatch picks
the clause for the continuation grade k of the operation.  The frames
between a handled operation and its handler are all lets, so k is the
composite of their body grades, innermost first: the let typing rule, read
off the frames by the typechecker, which is the single source of truth for
grading.

Every configuration is closed, so every value a rule substitutes is closed
and substitution never renames a binder.  In a closed configuration a let
frame's body mentions only its own binder, so a name that avoids the let
binders of the frames is fresh for the whole context, and each body is
judged in the context of its binder alone.

Grade weakenings are transparent lift frames: evaluation proceeds inside
them and they are preserved in the configuration.  They carry no reduction
rule of their own, so a weakened value cannot feed a let or a handler; such
programs are reported as blocked rather than stepped unsoundly.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterator, Optional

from .grading import Morphism, compose
from .signature import GradedSignature
from .terms import (
    App, CompAst, Gunit, Handle, HandlerAst, Inl, Inr, Lam, Let, Match,
    OpCall, Pair, Program, Proj, Val, ValueAst, Var, fresh_name, substitute,
)
from .typecheck import clause_for, grade_of_computation


DEFAULT_MAX_STEPS = 100_000  # rule applications before a run gives up


class EvalError(Exception):
    pass


class Stuck(EvalError):
    """A closed checked term no rule applies to: a weakening blocks it."""


class MaxStepsExceeded(EvalError):
    pass


# frames, outermost first when stored in a list
@dataclass(frozen=True)
class LetFrame:
    var: str
    body: CompAst


@dataclass(frozen=True)
class HandleFrame:
    handler: HandlerAst


@dataclass(frozen=True)
class WeakenFrame:
    pre: Morphism
    post: Morphism


@dataclass(frozen=True)
class Terminal:
    value: ValueAst
    obj: str
    weakens: tuple = ()  # residual weaken frames around the value, outermost first


@dataclass(frozen=True)
class OpAtTop:
    frames: tuple  # handler-free context around the call, outermost first
    op: str
    arg: ValueAst
    sig: GradedSignature


@dataclass(frozen=True)
class RedexAt:
    frames: tuple  # lift frames, outermost first
    redex: CompAst
    rule: str
    handled: Optional[OpAtTop] = None  # the operation an S-HandleOp redex handles


Decomposition = Terminal | OpAtTop | RedexAt


def rebuild(frames, core: CompAst) -> CompAst:
    for frame in reversed(frames):
        match frame:
            case LetFrame(var, body):
                core = Let(var, core, body)
            case HandleFrame(handler):
                core = Handle(core, handler)
            case WeakenFrame(pre, post):
                core = Gunit(pre, core, post)
    return core


def _under(frame, d: OpAtTop | RedexAt) -> OpAtTop | RedexAt:
    """``d`` with ``frame`` pushed outside its context."""
    if isinstance(d, OpAtTop):
        return OpAtTop((frame,) + d.frames, d.op, d.arg, d.sig)
    return RedexAt((frame,) + d.frames, d.redex, d.rule, d.handled)


def decompose(m: CompAst, sig: GradedSignature) -> Decomposition:
    """Unique leftmost decomposition of a closed well-typed computation."""
    match m:
        case Val(obj, v):
            return Terminal(v, obj)
        case OpCall(op, arg):
            return OpAtTop((), op, arg, sig)
        case App():
            return RedexAt((), m, "S-App")
        case Proj():
            return RedexAt((), m, "S-Proj")
        case Match(scrut):
            return RedexAt((), m, "S-MatchLeft" if isinstance(scrut, Inl)
                           else "S-MatchRight")
        case Let(var, bound, body):
            inner = decompose(bound, sig)
            if not isinstance(inner, Terminal):
                return _under(LetFrame(var, body), inner)
            if inner.weakens:
                raise Stuck("weakened value feeding a let has no rule")
            return RedexAt((), m, "S-Let")
        case Gunit(pre, body, post):
            inner = decompose(body, sig)
            if isinstance(inner, Terminal):
                return Terminal(inner.value, inner.obj,
                                ((pre, post),) + inner.weakens)
            return _under(WeakenFrame(pre, post), inner)
        case Handle(body, handler):
            inner = decompose(body, handler.source)
            if isinstance(inner, Terminal):
                if inner.weakens:
                    raise Stuck("weakened value under a handler has no rule")
                return RedexAt((), m, "S-HandleRet")
            if isinstance(inner, OpAtTop):
                if any(isinstance(f, WeakenFrame) for f in inner.frames):
                    raise Stuck("weakening between a handler and the "
                                "operation it handles has no rule")
                return RedexAt((), m, "S-HandleOp", inner)
            return _under(HandleFrame(handler), inner)
    raise EvalError(f"not a computation: {m!r}")


def continuation_grade(frames, op: str, sig: GradedSignature) -> Morphism:
    """Grade k of the let frames ``frames`` (outermost first) around op.

    k composes the grades of the let bodies, innermost first.  Each body is
    judged with only its binder in scope, bound at the type the frame
    inside returns (op's arity for the innermost).
    """
    decl = sig[op]
    ty, k = decl.arity, sig.category.identity(decl.grade.cod)
    for frame in reversed(frames):
        ty, g = grade_of_computation(((frame.var, ty),), frame.body, sig)
        k = compose(k, g)
    return k


def _apply_rule(d: RedexAt) -> CompAst:
    match d.redex:
        case App(Lam(_, var, _, body), arg):
            return substitute(body, {var: arg})
        case Let(var, Val(_, v), body):
            return substitute(body, {var: v})
        case Proj(Pair(v1, v2), x, y, body):
            return substitute(body, {x: v1, y: v2})
        case Match(Inl(v, _), x, left, _, _):
            return substitute(left, {x: v})
        case Match(Inr(v, _), _, _, y, right):
            return substitute(right, {y: v})
        case Handle(Val(_, v), handler):
            return substitute(handler.ret_body, {handler.ret_var: v})
        case Handle(_, handler):
            return _handle_op(d.handled, handler)
    raise EvalError(f"cannot apply {d.rule} to {d.redex!r}")


def _handle_op(inner: OpAtTop, handler: HandlerAst) -> CompAst:
    sig = handler.source
    decl = sig[inner.op]
    k = continuation_grade(inner.frames, inner.op, sig)
    clause = clause_for(handler, inner.op, k)
    gk = handler.functor.apply(k)
    c = decl.grade.cod
    # a checked clause body mentions only its parameter and resumption
    avoid = {clause.param_var, clause.resume_var,
             *(f.var for f in inner.frames)}
    y = fresh_name("y", avoid)
    resumed = rebuild(inner.frames, Val(c, Var(y)))
    resume = Lam(gk, y, decl.arity, Handle(resumed, handler))
    return substitute(clause.body,
                      {clause.param_var: inner.arg,
                       clause.resume_var: resume})


def _reduce(d: RedexAt) -> CompAst:
    """Apply the redex's rule and plug the result back into its context."""
    return rebuild(d.frames, _apply_rule(d))


def step(m: CompAst, sig: GradedSignature) -> Optional[CompAst]:
    """One small step, or None if the term is terminal or an unhandled op."""
    d = decompose(m, sig)
    return _reduce(d) if isinstance(d, RedexAt) else None


def steps(m: CompAst, sig: GradedSignature, max_steps: int = DEFAULT_MAX_STEPS
          ) -> Iterator[tuple[CompAst, Decomposition]]:
    """Yield every configuration with its decomposition, from ``m`` to a
    value form or an unhandled operation call.

    Raises MaxStepsExceeded only if a redex is left after ``max_steps``
    rule applications.
    """
    for n in count():
        d = decompose(m, sig)
        yield m, d
        if not isinstance(d, RedexAt):
            return
        if n >= max_steps:
            raise MaxStepsExceeded(
                f"no terminal configuration within {max_steps} steps")
        m = _reduce(d)


@dataclass
class Trace:
    configs: list
    final: Decomposition


def run(m: CompAst, sig: GradedSignature,
        max_steps: int = DEFAULT_MAX_STEPS) -> Trace:
    """Step until a value form or an unhandled operation call."""
    configs = []
    for config, d in steps(m, sig, max_steps):
        configs.append(config)
    return Trace(configs, d)


def run_program(prog: Program, max_steps: int = DEFAULT_MAX_STEPS) -> Trace:
    return run(prog.body, prog.signature, max_steps)
