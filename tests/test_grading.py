import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from cateff.grading import (
    GradingCategory, GradingError, GradingFunctor, build_category, compose,
)
from conftest import morphisms_from, pair_completion, pair_name


def session_category():
    return build_category(
        "Session", ["one", "int"],
        [("recv_1_int", "one", "int"), ("recv_int_int", "int", "int"),
         ("send_int", "int", "int"), ("tau_1_int", "one", "int"),
         ("tau_int_1", "int", "one")],
        rules=[(("tau_1_int", "tau_int_1"), ()),
               (("tau_int_1", "tau_1_int"), ())])


def test_session_presentation_is_valid():
    cat = session_category()
    assert set(cat.objects) == {"one", "int"}
    assert len(cat.generators) == 5


def test_trivial_category_has_only_identities():
    cat = build_category("Triv", ["z"], [])
    assert cat.identity("z").is_identity
    assert morphisms_from(cat, "z", 4) == [cat.identity("z")]


def test_rule_with_unequal_endpoints_rejected():
    with pytest.raises(GradingError,
                       match="rule f = g: sides have different endpoints"):
        build_category("Bad", ["a", "b", "c"],
                       [("f", "a", "b"), ("g", "a", "c")],
                       rules=[(("f",), ("g",))])


def test_growing_rule_is_rejected_as_nonterminating():
    with pytest.raises(GradingError,
                       match="rewriting of g exceeded 10000 steps"):
        build_category("Loop", ["a"], [("g", "a", "a")],
                       rules=[(("g",), ("g", "g"))])


def test_ambiguous_rules_rejected_as_nonconfluent():
    message = "path g.h rewrites to distinct normal forms ['k1', 'k2']"
    with pytest.raises(GradingError, match=re.escape(message)):
        build_category("Amb", ["a"],
                       [("g", "a", "a"), ("h", "a", "a"),
                        ("k1", "a", "a"), ("k2", "a", "a")],
                       rules=[(("g", "h"), ("k1",)), (("g", "h"), ("k2",))])


class Unchecked(GradingCategory):
    """A presentation loaded without its load-time checks."""

    def _validate(self):
        pass


def probe_accepts(cat):
    """The local-confluence probe that critical pairs replaced: no composable
    path up to length 4 has one-step reducts with distinct normal forms."""
    for path in cat._composable_paths(4):
        reducts = {path[:p] + rule.rhs + path[p + len(rule.lhs):]
                   for p in range(len(path)) for rule in cat.rules
                   if path[p:p + len(rule.lhs)] == rule.lhs}
        if len({cat.normalize(r) for r in reducts}) > 1:
            return False
    return True


def critical_pairs_accept(objects, gens, rules):
    try:
        build_category("P", objects, gens, rules)
    except GradingError as exc:
        assert "rewrites to distinct normal forms" in str(exc)
        return False
    return True


@st.composite
def presentations(draw, max_lhs):
    """1-2 objects, 1-4 generators and up to 4 rules whose right-hand side is
    shorter than their left-hand side, so that rewriting terminates."""
    objects = ("o0", "o1")[:draw(st.integers(1, 2))]
    gens = [(f"g{i}", draw(st.sampled_from(objects)),
             draw(st.sampled_from(objects)))
            for i in range(draw(st.integers(1, 4)))]
    free = Unchecked("P", objects, gens)
    ends = {path: free._path_endpoints(path)
            for path in free._composable_paths(max_lhs)}
    rules = []
    for _ in range(draw(st.integers(0, 4))):
        lhs = draw(st.sampled_from(sorted(ends)))
        rhs = [p for p in ends if len(p) < len(lhs) and ends[p] == ends[lhs]]
        if ends[lhs][0] == ends[lhs][1]:
            rhs.append(())
        if rhs:
            rules.append((lhs, draw(st.sampled_from(sorted(rhs)))))
    return objects, gens, rules


PROPERTY = settings(max_examples=500, derandomize=True, database=None,
                    deadline=None)


@PROPERTY
@given(presentations(max_lhs=2))
def test_critical_pairs_agree_with_the_path_probe_on_short_rules(pres):
    # every critical pair of rules this short lies on a path of length <= 3
    assert critical_pairs_accept(*pres) == probe_accepts(Unchecked("P", *pres))


@PROPERTY
@given(presentations(max_lhs=3))
def test_critical_pairs_never_accept_what_the_path_probe_rejects(pres):
    # the rules terminate, so by Newman's lemma a path with two normal forms
    # makes some critical pair fail
    if not probe_accepts(Unchecked("P", *pres)):
        assert not critical_pairs_accept(*pres)


def test_thirty_generators_load_in_under_a_second():
    # the path probe this replaced walked all 30^4 paths of length 4 (2 s)
    gens = [(f"g{i}", "s", "s") for i in range(30)]
    rules = [((f"g{i}", f"g{i + 1}"), ()) for i in (0, 2, 4)]
    start = time.perf_counter()
    build_category("Many", ["s"], gens, rules)
    assert time.perf_counter() - start < 1.0


def test_compose_unit_laws():
    cat = session_category()
    f = cat.morphism(("send_int",))
    assert compose(cat.identity("int"), f) == f
    assert compose(f, cat.identity("int")) == f


def test_compose_tau_loop_collapses_to_identity():
    cat = session_category()
    up = cat.morphism(("tau_1_int",))
    down = cat.morphism(("tau_int_1",))
    assert compose(up, down) == cat.identity("one")
    assert compose(down, up) == cat.identity("int")


def test_compose_without_applicable_rule_keeps_the_path():
    cat = session_category()
    m = compose(cat.morphism(("tau_1_int",)), cat.morphism(("send_int",)))
    assert str(m) == "tau_1_int;send_int"
    t_grade = compose(m, cat.morphism(("recv_int_int",)))
    assert str(t_grade) == "tau_1_int;send_int;recv_int_int"


def test_compose_endpoint_mismatch():
    cat = session_category()
    with pytest.raises(GradingError,
                       match="cod int of send_int differs from dom one of "
                             "tau_1_int"):
        compose(cat.morphism(("send_int",)), cat.morphism(("tau_1_int",)))


def test_normalization_is_idempotent_up_to_length_six():
    for cat in (session_category(), proto_category(),
                pair_completion(discrete_ab())):
        for path in cat._composable_paths(6):
            once = cat.normalize(path)
            assert cat.normalize(once) == once


def test_composition_is_associative_on_generator_triples():
    for cat in (session_category(), proto_category(),
                pair_completion(session_category())):
        gens = [cat.morphism((g,)) for g in cat.generators]
        for f in gens:
            for g in gens:
                if f.cod != g.dom:
                    continue
                for h in gens:
                    if g.cod != h.dom:
                        continue
                    assert compose(compose(f, g), h) == compose(f, compose(g, h))


# -- functors ---------------------------------------------------------------

def proto_category():
    return build_category("Proto", ["c", "d", "e"],
                          [("g", "c", "d"), ("h", "d", "e")])


def point_category():
    return build_category("Point", ["pt"], [])


def collapse_functor(proto, point):
    return GradingFunctor(
        "Collapse", proto, point,
        {"c": "pt", "d": "pt", "e": "pt"},
        {"g": point.identity("pt"), "h": point.identity("pt")})


def test_collapse_functor_sends_everything_to_the_point():
    proto, point = proto_category(), point_category()
    G = collapse_functor(proto, point)
    assert G.apply(proto.morphism(("g",))) == point.identity("pt")
    assert G.apply(proto.morphism(("g", "h"))) == point.identity("pt")


def test_functor_preserves_identities():
    proto, point = proto_category(), point_category()
    G = collapse_functor(proto, point)
    for obj in proto.objects:
        assert G.apply(proto.identity(obj)) == point.identity(G.object_map[obj])


def test_functor_preserves_composition_exhaustively():
    cat = session_category()
    # session maps into itself collapsing tau to identities
    G = GradingFunctor(
        "Untau", cat, cat,
        {"one": "int", "int": "int"},
        {"recv_1_int": cat.morphism(("recv_int_int",)),
         "recv_int_int": cat.morphism(("recv_int_int",)),
         "send_int": cat.morphism(("send_int",)),
         "tau_1_int": cat.identity("int"),
         "tau_int_1": cat.identity("int")})
    morphisms = [m for obj in cat.objects for m in morphisms_from(cat, obj, 2)]
    checked = 0
    for f in morphisms:
        for g in morphisms:
            if f.cod != g.dom:
                continue
            assert G.apply(compose(f, g)) == compose(G.apply(f), G.apply(g))
            checked += 1
    assert checked > 100


def test_functor_rejects_morphism_of_wrong_category():
    proto, point = proto_category(), point_category()
    G = collapse_functor(proto, point)
    other = session_category()
    with pytest.raises(GradingError,
                       match="functor Collapse: morphism not in source"):
        G.apply(other.morphism(("send_int",)))


def test_functor_must_respect_rules():
    cat = session_category()
    point = point_category()
    # tau_1_int;tau_int_1 = id must be preserved; a functor sending tau
    # generators to a non-invertible pair is rejected
    free = build_category("Free", ["x"], [("w", "x", "x")])
    with pytest.raises(Exception):
        GradingFunctor("Bad", cat, free,
                       {"one": "x", "int": "x"},
                       {"recv_1_int": free.identity("x"),
                        "recv_int_int": free.identity("x"),
                        "send_int": free.identity("x"),
                        "tau_1_int": free.morphism(("w",)),
                        "tau_int_1": free.morphism(("w",))})
    del point


# -- wide subcategories -------------------------------------------------------

def test_functor_may_send_a_wide_generator_to_an_identity():
    source = build_category("W", ["a", "b"], [("u", "a", "b")], wide=["u"])
    point = point_category()
    G = GradingFunctor("Flat", source, point, {"a": "pt", "b": "pt"},
                       {"u": point.identity("pt")})
    assert G.apply(source.morphism(("u",))).is_identity


def test_wide_membership_is_by_marked_generators():
    cat = build_category("Sub", ["lo", "hi"],
                         [("up", "lo", "hi"), ("eff", "hi", "hi")],
                         wide=["up"])
    assert cat.is_wide(cat.identity("lo"))
    assert cat.is_wide(cat.morphism(("up",)))
    assert not cat.is_wide(cat.morphism(("eff",)))
    assert not cat.is_wide(cat.morphism(("up", "eff")))


# -- pair completion ----------------------------------------------------------

def discrete_ab():
    return build_category("AB", ["a", "b", "c"], [])


def test_pair_completion_of_discrete_category_homs():
    comp = pair_completion(discrete_ab())
    hom_ab = [m for m in morphisms_from(comp, "a", 3) if m.cod == "b"]
    assert [str(m) for m in hom_ab] == [pair_name("a", "b")]


def test_pair_generators_absorb_each_other():
    comp = pair_completion(discrete_ab())
    ab = comp.morphism((pair_name("a", "b"),))
    bc = comp.morphism((pair_name("b", "c"),))
    assert compose(ab, bc) == comp.morphism((pair_name("a", "c"),))


def test_pair_generators_absorb_plain_morphisms():
    base = proto_category()
    comp = pair_completion(base)
    f = comp.morphism(("g",))  # c -> d
    de = comp.morphism((pair_name("d", "e"),))
    assert compose(f, de) == comp.morphism((pair_name("c", "e"),))
    cd = comp.morphism((pair_name("c", "d"),))
    h = comp.morphism(("h",))  # d -> e
    assert compose(cd, h) == comp.morphism((pair_name("c", "e"),))


def test_every_composite_with_a_pair_generator_is_a_single_pair_generator():
    comp = pair_completion(proto_category())
    pair_gens = {name for name in comp.generators if name.startswith("<")}
    for path in comp._composable_paths(3):
        if any(name in pair_gens for name in path):
            norm = comp.normalize(path)
            assert len(norm) == 1 and norm[0] in pair_gens


def test_pair_completion_keeps_objects_and_wide_marks():
    base = build_category("W", ["a", "b"], [("u", "a", "b")], wide=["u"])
    comp = pair_completion(base)
    assert comp.objects == base.objects
    assert comp.is_wide(comp.morphism(("u",)))
    assert not comp.is_wide(comp.morphism((pair_name("a", "b"),)))
