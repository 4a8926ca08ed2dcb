"""Graded term trees: the free model over a graded signature.

A tree is either a payload-carrying leaf (grade ``id``), an operation node
whose children are indexed by the canonical enumeration of the operation's
arity and share one grade ``k`` (node grade = operation grade ; k), or a
coercion node realizing a generalised unit along the wide subcategory.
`denote` builds each node over unit leaves, so k starts as an identity;
grafting trees onto leaves is the free-model multiplication.

A ``.ceff`` signature declares operations and no equations, so every theory
a program names is free and this is its only model.  The extension of a
leaf assignment out of the free model is a handler's fold
(``denote.denote_handler``); no other model is represented.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .grading import Morphism, compose
from .signature import SemValue, value_to_json


class FreeModelError(Exception):
    pass


class GradeHeterogeneous(FreeModelError):
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


def grade_of(t: TermTree, cat) -> Morphism:
    """The grade of a tree in ``cat``, whose identities grade bare leaves."""
    match t:
        case Leaf(obj, _):
            return cat.identity(obj)
        case Node(_, op_grade, _, k, _):
            return compose(op_grade, k)
        case Coerce(r, child):
            return compose(r, grade_of(child, cat))
    raise FreeModelError(f"not a term tree: {t!r}")


def unit_leaf(obj: str, val: SemValue, cat=None) -> Leaf:
    if cat is not None and obj not in cat.objects:
        raise FreeModelError(f"no object {obj!r} in category {cat.name}")
    return Leaf(obj, val)


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

