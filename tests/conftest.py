import importlib.resources
from itertools import product

import pytest

from cateff.freemodel import Node, grade_of
from cateff.grading import Generator, GradingCategory, RewriteRule
from cateff.parser import parse_bundle


def theory_text(name: str) -> str:
    res = importlib.resources.files("cateff") / "theories" / f"{name}.ceff"
    return res.read_text(encoding="utf-8")


def theory_path(name: str) -> str:
    return str(importlib.resources.files("cateff") / "theories" / f"{name}.ceff")


@pytest.fixture(scope="session")
def session_bundle():
    return parse_bundle(theory_text("session"), "session.ceff")


@pytest.fixture(scope="session")
def pair_bundle():
    return parse_bundle(theory_text("pair_handler"), "pair_handler.ceff")


@pytest.fixture(scope="session")
def mutstore_bundle():
    return parse_bundle(theory_text("mutstore"), "mutstore.ceff")


@pytest.fixture(scope="session")
def widened_bundle():
    return parse_bundle(theory_text("widened"), "widened.ceff")


def node(op, op_grade, param, children):
    """An operation node whose children share the grade of the first one."""
    return Node(op, op_grade, param, grade_of(children[0], op_grade.cat),
                children)


def morphisms_from(cat, obj, max_len):
    """All normal-form morphisms out of ``obj`` with path length <= max_len."""
    found = {(): cat.identity(obj)}
    frontier = [()]
    by_dom = {}
    for gen in cat.generators.values():
        by_dom.setdefault(gen.dom, []).append(gen)
    for _ in range(max_len):
        nxt = []
        for path in frontier:
            cod = obj if not path else cat.generators[path[-1]].cod
            for gen in by_dom.get(cod, ()):
                norm = cat.normalize(path + (gen.name,))
                if norm not in found:  # an empty normal form is found[()]
                    found[norm] = cat.morphism(norm)
                    nxt.append(norm)
        frontier = nxt
    return sorted(found.values(), key=lambda m: (len(m.path), m.path))


def pair_name(a, b):
    return f"<{a},{b}>"


def pair_completion(cat, name=None):
    """Freely adjoin one absorbing morphism <a,b> per ordered object pair.

    The added generators absorb composition on either side: composing any
    morphism into or out of an <a,b> generator collapses to the <.,.>
    generator with the outer endpoints.  Existing generators, rules and wide
    markings are kept unchanged.  The category law suite uses it for
    categories with many rules and generator triples.
    """
    gens = list(cat.generators.values())
    rules = list(cat.rules)
    for a, b in product(cat.objects, repeat=2):
        gens.append(Generator(pair_name(a, b), a, b))
    for a, b, c in product(cat.objects, repeat=3):
        rules.append(RewriteRule((pair_name(a, b), pair_name(b, c)),
                                 (pair_name(a, c),)))
    for gen in cat.generators.values():
        for x in cat.objects:
            # <x,dom g> ; g  =  <x,cod g>
            rules.append(RewriteRule((pair_name(x, gen.dom), gen.name),
                                     (pair_name(x, gen.cod),)))
            # g ; <cod g,x>  =  <dom g,x>
            rules.append(RewriteRule((gen.name, pair_name(gen.cod, x)),
                                     (pair_name(gen.dom, x),)))
    return GradingCategory(name or f"{cat.name}^pair", cat.objects, gens,
                           rules, cat.wide)
