"""Graded term trees: the free model over a graded signature.

A tree is either a payload-carrying leaf (grade ``id``), an operation node
whose children are indexed by the canonical enumeration of the operation's
arity and share one grade ``k`` (node grade = operation grade ; k), or a
coercion node realizing a generalised unit along the wide subcategory.
Grafting trees onto leaves is the free-model multiplication; interpreting
trees in finite models and the induced free extension give the universal
property at testable scale.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from .grading import Morphism, compose
from .signature import NonComparable, SemValue, value_to_json


class FreeModelError(Exception):
    pass


class GradeHeterogeneous(FreeModelError):
    pass


class MissingInterp(FreeModelError):
    pass


@dataclass(frozen=True)
class Leaf:
    obj: str
    val: SemValue


@dataclass(frozen=True)
class Node:
    op: str
    op_grade: Morphism
    param: SemValue
    k: Morphism  # shared grade of all children
    children: tuple


@dataclass(frozen=True)
class Coerce:
    r: Morphism  # non-identity morphism of the wide subcategory
    child: "TermTree"


TermTree = Leaf | Node | Coerce


def grade_of(t: TermTree, cat=None) -> Morphism:
    """The grade of a tree; ``cat`` supplies identities for bare leaves."""
    match t:
        case Leaf(obj, _):
            if cat is None:
                raise FreeModelError("grade of a bare leaf needs the category")
            return cat.identity(obj)
        case Node(_, op_grade, _, k, _):
            return compose(op_grade, k)
        case Coerce(r, child):
            return compose(r, grade_of(child, r.cat))
    raise FreeModelError(f"not a term tree: {t!r}")


def unit_leaf(obj: str, val: SemValue, cat=None) -> Leaf:
    if cat is not None and obj not in cat.objects:
        raise FreeModelError(f"no object {obj!r} in category {cat.name}")
    return Leaf(obj, val)


def make_node(op: str, op_grade: Morphism, param: SemValue,
              children: tuple) -> Node:
    if not children:
        raise FreeModelError(f"operation node {op} needs at least one child")
    cat = op_grade.cat
    k = grade_of(children[0], cat)
    for child in children[1:]:
        if grade_of(child, cat) != k:
            raise GradeHeterogeneous(
                f"children of {op} node have unequal grades")
    if op_grade.cod != k.dom:
        raise FreeModelError(
            f"node {op}: operation grade ends at {op_grade.cod} but children "
            f"start at {k.dom}")
    return Node(op, op_grade, param, k, children)


def coerce(r: Morphism, child: TermTree) -> TermTree:
    """Wrap in a coercion node, collapsing nested and identity coercions."""
    if isinstance(child, Coerce):
        r, child = compose(r, child.r), child.child
    if r.is_identity:
        return child
    if r.cod != grade_of(child, r.cat).dom:
        raise FreeModelError(
            f"coercion {r} does not meet tree of grade {grade_of(child, r.cat)}")
    return Coerce(r, child)


def graft(t: TermTree, phi: Callable, cat) -> TermTree:
    """Replace every leaf payload x by the tree phi(x); grades must agree.

    This is the multiplication of the free model: the grade of the result is
    grade(t) ; g where g is the common grade of the phi images.
    """
    expected = None

    def go(t):
        nonlocal expected
        match t:
            case Leaf(obj, val):
                img = phi(val)
                g = grade_of(img, cat)
                if g.dom != obj:
                    raise GradeHeterogeneous(
                        f"graft image starts at {g.dom}, leaf sits at {obj}")
                if expected is None:
                    expected = g
                elif g != expected:
                    raise GradeHeterogeneous(
                        f"graft images have grades {expected} and {g}")
                return img
            case Node(op, op_grade, param, _, children):
                new_children = tuple(go(c) for c in children)
                new_k = grade_of(new_children[0], cat)
                return Node(op, op_grade, param, new_k, new_children)
            case Coerce(r, child):
                return coerce(r, go(child))
        raise FreeModelError(f"not a term tree: {t!r}")

    return go(t)


def tree_leaves(t: TermTree):
    match t:
        case Leaf(_, _):
            yield t
        case Node(_, _, _, _, children):
            for c in children:
                yield from tree_leaves(c)
        case Coerce(_, child):
            yield from tree_leaves(child)


def tree_to_json(t: TermTree):
    match t:
        case Leaf(obj, val):
            return {"leaf": {"obj": obj, "val": value_to_json(val)}}
        case Node(op, _, param, k, children):
            return {"node": {"op": op, "param": value_to_json(param),
                             "k": str(k),
                             "children": [tree_to_json(c) for c in children]}}
        case Coerce(r, child):
            return {"coerce": {"r": str(r), "child": tree_to_json(child)}}
    raise FreeModelError(f"not a term tree: {t!r}")


# ---------------------------------------------------------------------------
# finite models

@dataclass
class FiniteModel:
    """A model at ``at_obj``: finite carriers indexed by morphisms into it.

    ``interp`` maps (operation name, k) to a function taking a parameter
    value and a tuple of carrier elements (one per arity value, in canonical
    order) into the carrier at ``op grade ; k``.
    """
    at_obj: str
    carrier: dict  # Morphism -> tuple of elements
    interp: dict  # (op name, Morphism) -> callable(param, children) -> element


def interpret(t: TermTree, model: FiniteModel, k: Morphism, env: dict):
    """Interpretation of a tree at k: env assigns carrier(k) elements to payloads."""
    match t:
        case Leaf(_, val):
            return env[val]
        case Node(op, _, param, child_k, children):
            at = compose(child_k, k)
            fn = model.interp.get((op, at))
            if fn is None:
                raise MissingInterp(f"model has no interpretation of {op} at {at}")
            vals = tuple(interpret(c, model, k, env) for c in children)
            return fn(param, vals)
        case Coerce(r, _):
            raise MissingInterp(
                f"finite model lacks generalised-unit structure for {r}")
    raise FreeModelError(f"not a term tree: {t!r}")


def free_extension(phi, model: FiniteModel) -> Callable:
    """The homomorphism out of the free model fixed by a leaf assignment.

    phi maps payloads to carrier(id) elements; the returned evaluator sends a
    tree of grade f to a carrier(f) element and commutes with every
    operation's interpretation.
    """
    lookup = phi.__getitem__ if isinstance(phi, dict) else phi

    def ext(t: TermTree):
        match t:
            case Leaf(_, val):
                return lookup(val)
            case Node(op, _, param, k, children):
                fn = model.interp.get((op, k))
                if fn is None:
                    raise MissingInterp(
                        f"model has no interpretation of {op} at {k}")
                return fn(param, tuple(ext(c) for c in children))
            case Coerce(r, _):
                raise MissingInterp(
                    f"finite model lacks generalised-unit structure for {r}")
        raise FreeModelError(f"not a term tree: {t!r}")

    return ext


def check_equations(equations, model: FiniteModel, cat) -> list:
    """Check term-pair equations against a finite model, all environments.

    Returns a list of violation records (equation index, k, environment,
    differing values); empty means the model satisfies the equations.
    """
    violations = []
    for idx, (lhs, rhs) in enumerate(equations):
        gl, gr = grade_of(lhs, cat), grade_of(rhs, cat)
        if gl != gr:
            raise GradeHeterogeneous(
                f"equation {idx}: sides have grades {gl} and {gr}")
        payloads = sorted({leaf.val for leaf in tree_leaves(lhs)}
                          | {leaf.val for leaf in tree_leaves(rhs)},
                          key=str)
        for k, elems in model.carrier.items():
            if k.dom != gl.cod:
                continue
            for choice in product(elems, repeat=len(payloads)):
                env = dict(zip(payloads, choice))
                try:
                    lv = interpret(lhs, model, k, env)
                    rv = interpret(rhs, model, k, env)
                except MissingInterp:
                    break
                if lv != rv:
                    violations.append(
                        {"equation": idx, "k": k, "env": env,
                         "lhs": lv, "rhs": rv})
    return violations
