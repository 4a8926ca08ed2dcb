"""Abstract syntax for values, computations and handlers.

Grade and type annotations are stored fully resolved (morphisms in normal
form), so syntactic equality of terms agrees with equality of judgements.
Handlers are declared at top level and are closed; substitution therefore
descends into handled computations but never into handler clauses.
Substitution is of closed values only, as the step engine runs closed
configurations, so it never renames a binder.

``children`` owns the binding structure: it is the one place that lists the
subterms of each node and the names the node binds over each.  Walks that
only look at terms (free variables here, the operations a handler's clauses
perform in ``typecheck``, weakenings in ``conformance``) are written over it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .grading import GradingCategory, GradingFunctor, Morphism, pp_path
from .signature import GradedSignature, Type


# ---------------------------------------------------------------------------
# values

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class StarV:
    pass


@dataclass(frozen=True)
class Inl:
    val: "ValueAst"
    ann: Type  # the full sum type


@dataclass(frozen=True)
class Inr:
    val: "ValueAst"
    ann: Type


@dataclass(frozen=True)
class Pair:
    left: "ValueAst"
    right: "ValueAst"


@dataclass(frozen=True)
class Lam:
    grade: Morphism
    var: str
    var_type: Type
    body: "CompAst"


ValueAst = Var | StarV | Inl | Inr | Pair | Lam


# ---------------------------------------------------------------------------
# computations

@dataclass(frozen=True)
class Val:
    obj: str
    val: ValueAst


@dataclass(frozen=True)
class Let:
    var: str
    bound: "CompAst"
    body: "CompAst"


@dataclass(frozen=True)
class App:
    fn: ValueAst
    arg: ValueAst


@dataclass(frozen=True)
class OpCall:
    op: str
    arg: ValueAst


@dataclass(frozen=True)
class Proj:
    pair: ValueAst
    left_var: str
    right_var: str
    body: "CompAst"


@dataclass(frozen=True)
class Match:
    scrut: ValueAst
    left_var: str
    left: "CompAst"
    right_var: str
    right: "CompAst"


@dataclass(frozen=True)
class Handle:
    body: "CompAst"
    handler: "HandlerAst"


@dataclass(frozen=True)
class Gunit:
    pre: Morphism
    body: "CompAst"
    post: Morphism


CompAst = Val | Let | App | OpCall | Proj | Match | Handle | Gunit


@dataclass(frozen=True)
class Clause:
    param_var: str
    resume_var: str
    body: CompAst


@dataclass(eq=True)
class HandlerAst:
    name: str
    source: GradedSignature = field(compare=False)
    target: GradedSignature = field(compare=False)
    functor: GradingFunctor = field(compare=False)
    at_obj: str
    in_type: Type
    out_type: Type
    ret_var: str
    ret_body: CompAst
    clauses: dict  # (op name, Morphism k) -> Clause
    defaults: dict  # op name -> Clause
    # memo written only by the checker: (op, k) -> (demand, dynamic
    # operations) of each clause instance it has accepted, (op, None) -> the
    # default clause's at a dynamically graded call site, None -> the return
    # clause's, once the handler's eager checks have passed
    checked: dict = field(default_factory=dict, compare=False, repr=False)

    def __hash__(self):
        return hash(self.name)


@dataclass
class Program:
    name: str
    signature: GradedSignature
    ann_type: Type
    ann_grade: Morphism
    body: CompAst


class TheoryBundle:
    """Everything declared by one ``.ceff`` source file, in declaration order."""

    def __init__(self):
        self.categories: dict[str, GradingCategory] = {}
        self.functors: dict[str, GradingFunctor] = {}
        self.signatures: dict[str, GradedSignature] = {}
        self.handlers: dict[str, HandlerAst] = {}
        self.programs: dict[str, Program] = {}


# ---------------------------------------------------------------------------
# binding structure, free variables and substitution

def children(node) -> tuple:
    """The immediate subterms of a value or computation, each paired with
    the names ``node`` binds over it.

    A handle's only subterm is its handled computation: its handler is
    declared at top level, and ``clause_bodies`` lists the clauses.
    """
    match node:
        case Var() | StarV():
            return ()
        case Inl(v, _) | Inr(v, _) | Val(_, v) | OpCall(_, v):
            return ((v, ()),)
        case Pair(a, b) | App(a, b):
            return ((a, ()), (b, ()))
        case Lam(_, var, _, body):
            return ((body, (var,)),)
        case Let(var, bound, body):
            return ((bound, ()), (body, (var,)))
        case Proj(pair, x, y, body):
            return ((pair, ()), (body, (x, y)))
        case Match(scrut, x, left, y, right):
            return ((scrut, ()), (left, (x,)), (right, (y,)))
        case Handle(body, _) | Gunit(_, body, _):
            return ((body, ()),)
    raise TypeError(f"not a term: {node!r}")


def clause_bodies(h: HandlerAst) -> tuple:
    """The bodies of a handler's return, explicit and default clauses."""
    return (h.ret_body, *(cl.body for cl in h.clauses.values()),
            *(cl.body for cl in h.defaults.values()))


def free_vars(node) -> set:
    """The variables occurring free in a value or computation."""
    if isinstance(node, Var):
        return {node.name}
    out = set()
    for child, bound in children(node):
        out |= free_vars(child).difference(bound)
    return out


def fresh_name(base: str, avoid) -> str:
    """``base`` if it is not in ``avoid``, else the smallest free ``base<n>``.

    Deterministic, so that traces are reproducible.
    """
    if base not in avoid:
        return base
    n = 1
    while f"{base}{n}" in avoid:
        n += 1
    return f"{base}{n}"


def _unshadowed(subs: dict, *binders) -> dict:
    """``subs`` without the names that ``binders`` rebind."""
    if any(name in subs for name in binders):
        return {x: v for x, v in subs.items() if x not in binders}
    return subs


def substitute_value(v: ValueAst, subs: dict) -> ValueAst:
    if not subs:
        return v
    match v:
        case Var(name):
            return subs.get(name, v)
        case StarV():
            return v
        case Inl(val, ann):
            return Inl(substitute_value(val, subs), ann)
        case Inr(val, ann):
            return Inr(substitute_value(val, subs), ann)
        case Pair(left, right):
            return Pair(substitute_value(left, subs), substitute_value(right, subs))
        case Lam(grade, var, var_type, body):
            return Lam(grade, var, var_type,
                       substitute(body, _unshadowed(subs, var)))
    raise TypeError(f"not a value: {v!r}")


def substitute(m: CompAst, subs: dict) -> CompAst:
    """Simultaneous substitution of closed values for variables.

    The values must be closed: no binder is renamed, so a free variable of
    a substituted value would be captured.  The step engine only substitutes
    closed values, because it runs closed configurations and reaches its
    redexes through let-bound positions, the bodies of weakenings and
    handled computations, never under a binder; a resumption
    ``fun y => handle E[val y] with H`` is closed as the configuration is.
    """
    if not subs:
        return m
    match m:
        case Val(obj, v):
            return Val(obj, substitute_value(v, subs))
        case Let(var, bound, body):
            return Let(var, substitute(bound, subs),
                       substitute(body, _unshadowed(subs, var)))
        case App(fn, arg):
            return App(substitute_value(fn, subs), substitute_value(arg, subs))
        case OpCall(op, arg):
            return OpCall(op, substitute_value(arg, subs))
        case Proj(pair, x, y, body):
            return Proj(substitute_value(pair, subs), x, y,
                        substitute(body, _unshadowed(subs, x, y)))
        case Match(scrut, x, left, y, right):
            return Match(substitute_value(scrut, subs),
                         x, substitute(left, _unshadowed(subs, x)),
                         y, substitute(right, _unshadowed(subs, y)))
        case Handle(body, handler):
            return Handle(substitute(body, subs), handler)
        case Gunit(pre, body, post):
            return Gunit(pre, substitute(body, subs), post)
    raise TypeError(f"not a computation: {m!r}")


# ---------------------------------------------------------------------------
# pretty-printing of values and computations, with types in their ``str``
# form (the parser inverts this exactly); handlers are closed top-level
# declarations, so a ``handle`` prints its handler by name and reparses
# within the file that declares it

def _pp_value_atom(v: ValueAst) -> str:
    s = pp_value(v)
    if isinstance(v, (Var, StarV, Pair)):
        return s
    return f"({s})"


def pp_value(v: ValueAst) -> str:
    match v:
        case Var(name):
            return name
        case StarV():
            return "()"
        case Inl(val, ann):
            return f"inl {_pp_value_atom(val)} : {ann}"
        case Inr(val, ann):
            return f"inr {_pp_value_atom(val)} : {ann}"
        case Pair(left, right):
            return f"({pp_value(left)}, {pp_value(right)})"
        case Lam(grade, var, var_type, body):
            return f"fun^{pp_path(grade)} ({var} : {var_type}) => {pp_comp(body)}"
    raise TypeError(f"not a value: {v!r}")


def pp_comp(m: CompAst) -> str:
    match m:
        case Val(obj, v):
            return f"val {obj} {_pp_value_atom(v)}"
        case Let(var, bound, body):
            return f"let {var} <- {pp_comp(bound)} in {pp_comp(body)}"
        case App(fn, arg):
            return f"{_pp_value_atom(fn)} {_pp_value_atom(arg)}"
        case OpCall(op, arg):
            return f"do {op}({pp_value(arg)})"
        case Proj(pair, x, y, body):
            return f"split {_pp_value_atom(pair)} as ({x}, {y}) in {pp_comp(body)}"
        case Match(scrut, x, left, y, right):
            return (f"case {_pp_value_atom(scrut)} of inl {x} => {pp_comp(left)}"
                    f" | inr {y} => {pp_comp(right)}")
        case Handle(body, handler):
            return f"handle ({pp_comp(body)}) with {handler.name}"
        case Gunit(pre, body, post):
            return f"weaken {pp_path(pre)} {{ {pp_comp(body)} }} {pp_path(post)}"
    raise TypeError(f"not a computation: {m!r}")
