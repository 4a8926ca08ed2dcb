"""Types, canonical value enumeration, and category-graded signatures.

The type grammar has unit, products, sums and graded arrows.  The arrow-free
fragment ("primitive types") denotes finite, canonically ordered sets; those
canonical values double as the semantic values of the denotational semantics.
Operations of a signature take a primitive parameter to a primitive arity and
carry a grade morphism of the signature's grading category.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .grading import GradingCategory, Morphism


class SignatureError(Exception):
    pass


class UnknownMorphism(SignatureError):
    pass


class NonPrimitiveType(SignatureError):
    pass


class DuplicateOp(SignatureError):
    pass


class NonComparable(Exception):
    """Raised when equality is asked of function-space values."""


# ---------------------------------------------------------------------------
# types

@dataclass(frozen=True)
class Unit:
    def __str__(self):
        return "1"


@dataclass(frozen=True)
class Prod:
    left: "Type"
    right: "Type"

    def __str__(self):
        return f"{_atom(self.left)}*{_atom(self.right)}"


@dataclass(frozen=True)
class Sum:
    left: "Type"
    right: "Type"

    def __str__(self):
        # right-nested sums print without parentheses: 1+1+1
        left = _atom(self.left)
        right = str(self.right) if isinstance(self.right, Sum) else _atom(self.right)
        return f"{left}+{right}"


@dataclass(frozen=True)
class Arrow:
    arg: "Type"
    res: "Type"
    grade: Morphism

    def __str__(self):
        return f"{_atom(self.arg)} -> {_atom(self.res)} @ {self.grade}"


Type = Unit | Prod | Sum | Arrow

UNIT = Unit()


def _atom(t: Type) -> str:
    s = str(t)
    if isinstance(t, (Unit,)):
        return s
    return f"({s})"


def is_primitive(t: Type) -> bool:
    if isinstance(t, Unit):
        return True
    if isinstance(t, (Prod, Sum)):
        return is_primitive(t.left) and is_primitive(t.right)
    return False


# ---------------------------------------------------------------------------
# semantic values

@dataclass(frozen=True)
class Star:
    def __str__(self):
        return "*"


@dataclass(frozen=True)
class PairV:
    left: "SemValue"
    right: "SemValue"

    def __str__(self):
        return f"({self.left},{self.right})"


@dataclass(frozen=True)
class InlV:
    val: "SemValue"

    def __str__(self):
        return f"inl {self.val}"


@dataclass(frozen=True)
class InrV:
    val: "SemValue"

    def __str__(self):
        return f"inr {self.val}"


class FunV:
    """A function-space denotation.  Never comparable; equality raises."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, v):
        return self.fn(v)

    def __eq__(self, other):
        raise NonComparable("function-space values have no decidable equality")

    def __hash__(self):
        return id(self)

    def __str__(self):
        return "<fun>"


SemValue = Star | PairV | InlV | InrV | FunV

STAR = Star()


def enumerate_type(t: Type) -> tuple:
    """Canonical, duplicate-free enumeration of a primitive type.

    Unit is [*]; products are lexicographic with the left component major;
    sums list all left injections before all right injections.
    """
    if isinstance(t, Unit):
        return (STAR,)
    if isinstance(t, Prod):
        return tuple(PairV(a, b)
                     for a in enumerate_type(t.left)
                     for b in enumerate_type(t.right))
    if isinstance(t, Sum):
        return tuple(InlV(a) for a in enumerate_type(t.left)) + \
            tuple(InrV(b) for b in enumerate_type(t.right))
    raise NonPrimitiveType(f"cannot enumerate non-primitive type {t}")


def value_to_json(v: SemValue):
    if isinstance(v, Star):
        return "*"
    if isinstance(v, PairV):
        return ["pair", value_to_json(v.left), value_to_json(v.right)]
    if isinstance(v, InlV):
        return ["inl", value_to_json(v.val)]
    if isinstance(v, InrV):
        return ["inr", value_to_json(v.val)]
    raise NonComparable("function-space values are not serializable")


# ---------------------------------------------------------------------------
# signatures

@dataclass(frozen=True)
class OpDecl:
    name: str
    param: Type
    arity: Type
    grade: Morphism


class GradedSignature:
    def __init__(self, name, category: GradingCategory, ops):
        self.name = name
        self.category = category
        self.ops: dict[str, OpDecl] = {}
        for op in ops:
            if op.name in self.ops:
                raise DuplicateOp(f"operation {op.name!r} declared twice")
            if not isinstance(op.grade, Morphism) or op.grade.cat is not category:
                raise UnknownMorphism(
                    f"operation {op.name}: grade is not a morphism of {category.name}")
            if not is_primitive(op.param):
                raise NonPrimitiveType(f"operation {op.name}: parameter not primitive")
            if not is_primitive(op.arity):
                raise NonPrimitiveType(f"operation {op.name}: arity not primitive")
            self.ops[op.name] = op

    def __contains__(self, name):
        return name in self.ops

    def __getitem__(self, name) -> OpDecl:
        return self.ops[name]

    def __repr__(self):
        return f"GradedSignature({self.name!r}, ops={sorted(self.ops)})"
