"""Deterministic small-step evaluation by evaluation-context decomposition.

A closed well-typed computation decomposes uniquely into either a value
form, an unhandled operation under a handler-free context, or a redex under
a stack of lift frames (lets, handles, weakenings).  `steps` is the only
step loop: it decomposes once per step, applies the redex's rule to that
decomposition (an S-HandleOp redex carries the operation it handles) and
rebuilds, yielding every configuration with its decomposition; `run`,
`step` and the conformance checks all consume it or its rule-and-rebuild
helper, so the step budget is counted in one place.  Handler dispatch picks
the clause for the continuation grade of the operation, obtained by
re-checking the continuation with a fresh variable plugged into the hole;
the typechecker is the single source of truth for grading.

Every configuration is closed, so every value a rule substitutes is closed
and substitution never renames a binder.  In a closed configuration a let
frame's body mentions only its own binder, so a name that avoids the let
binders of the frames is fresh for the whole context.

Grade weakenings are transparent lift frames: evaluation proceeds inside
them and they are preserved in the configuration.  They carry no reduction
rule of their own, so a weakened value cannot feed a let or a handler; such
programs are reported as blocked rather than stepped unsoundly.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterator, Optional

from .grading import Morphism
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
    """A closed term no rule applies to (blocked weakening or ill-typed input)."""


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


def decompose(m: CompAst, sig: GradedSignature) -> Decomposition:
    """Unique leftmost decomposition of a closed well-typed computation."""
    match m:
        case Val(obj, v):
            return Terminal(v, obj)
        case OpCall(op, arg):
            return OpAtTop((), op, arg, sig)
        case App(_, _) | Proj(_, _, _, _) | Match(_, _, _, _, _):
            return RedexAt((), m, _rule_name(m))
        case Let(var, bound, body):
            frame = LetFrame(var, body)
            inner = decompose(bound, sig)
            match inner:
                case Terminal(_, _, weakens) if not weakens:
                    return RedexAt((), m, "S-Let")
                case Terminal(_, _, _):
                    raise Stuck("weakened value feeding a let has no rule")
                case OpAtTop(frames, op, arg, isig):
                    return OpAtTop((frame,) + frames, op, arg, isig)
                case RedexAt(frames, redex, rule, handled):
                    return RedexAt((frame,) + frames, redex, rule, handled)
        case Gunit(pre, body, post):
            frame = WeakenFrame(pre, post)
            inner = decompose(body, sig)
            match inner:
                case Terminal(value, obj, weakens):
                    return Terminal(value, obj, ((pre, post),) + weakens)
                case OpAtTop(frames, op, arg, isig):
                    return OpAtTop((frame,) + frames, op, arg, isig)
                case RedexAt(frames, redex, rule, handled):
                    return RedexAt((frame,) + frames, redex, rule, handled)
        case Handle(body, handler):
            inner = decompose(body, handler.source)
            match inner:
                case Terminal(_, _, weakens) if not weakens:
                    return RedexAt((), m, "S-HandleRet")
                case Terminal(_, _, _):
                    raise Stuck("weakened value under a handler has no rule")
                case OpAtTop(frames, _, _, _):
                    if any(isinstance(f, WeakenFrame) for f in frames):
                        raise Stuck(
                            "weakening between a handler and the operation "
                            "it handles has no rule")
                    return RedexAt((), m, "S-HandleOp", inner)
                case RedexAt(frames, redex, rule, handled):
                    return RedexAt((HandleFrame(handler),) + frames,
                                   redex, rule, handled)
    raise EvalError(f"not a computation: {m!r}")


def _rule_name(m: CompAst) -> str:
    match m:
        case App(_, _):
            return "S-App"
        case Proj(_, _, _, _):
            return "S-Proj"
        case Match(scrut, _, _, _, _):
            return "S-MatchLeft" if isinstance(scrut, Inl) else "S-MatchRight"
    raise EvalError(f"no rule for {m!r}")


def _frame_names(frames) -> set:
    return {frame.var for frame in frames if isinstance(frame, LetFrame)}


def continuation_grade(frames, op: str, sig: GradedSignature) -> Morphism:
    """Grade k of E[val_c y] for a handler-free context E around op, fresh y."""
    decl = sig[op]
    c = decl.grade.cod
    y = fresh_name("y", _frame_names(frames))
    cont = rebuild(frames, Val(c, Var(y)))
    _, k = grade_of_computation(((y, decl.arity),), cont, sig)
    return k


def _apply_rule(d: RedexAt) -> CompAst:
    match d.redex:
        case App(Lam(_, var, _, body), arg):
            return substitute(body, {var: arg})
        case App(_, _):
            raise Stuck("application of a non-lambda value")
        case Let(var, Val(_, v), body):
            return substitute(body, {var: v})
        case Proj(Pair(v1, v2), x, y, body):
            return substitute(body, {x: v1, y: v2})
        case Proj(_, _, _, _):
            raise Stuck("split of a non-pair value")
        case Match(Inl(v, _), x, left, _, _):
            return substitute(left, {x: v})
        case Match(Inr(v, _), _, _, y, right):
            return substitute(right, {y: v})
        case Match(_, _, _, _, _):
            raise Stuck("case on a non-injection value")
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
    avoid = {clause.param_var, clause.resume_var} | _frame_names(inner.frames)
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
