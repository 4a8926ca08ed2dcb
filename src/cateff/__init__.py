"""Category-graded algebraic effects: a checker, interpreter and semantics
for programs whose effects are graded by morphisms of a finitely presented
category, together with an executable metatheory harness."""

from .grading import (
    GradingCategory, GradingFunctor, Morphism, build_category, compose,
)
from .parser import load_bundle, parse_bundle
from .signature import GradedSignature, OpDecl, enumerate_type
from .typecheck import check_bundle, check_program, grade_of_computation

__all__ = [
    "GradingCategory", "GradingFunctor", "Morphism", "build_category",
    "compose", "load_bundle", "parse_bundle", "GradedSignature", "OpDecl",
    "enumerate_type", "check_bundle", "check_program", "grade_of_computation",
]

__version__ = "0.1.0"
