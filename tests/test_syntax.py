import random
from pathlib import Path
from typing import get_args

import pytest

from cateff.eval import Stuck, run_program, steps
from cateff.grading import GradingCategory
from cateff.parser import (
    KEYWORDS, SYMBOLS, CeffSyntaxError, Parser, parse_bundle, tokenize,
)
from cateff.signature import UNIT, Sum
from cateff.terms import (
    App, CompAst, Gunit, Handle, Inl, Inr, Lam, Let, Match, OpCall, Pair,
    Proj, StarV, Val, ValueAst, Var, children, clause_bodies, free_vars,
    pp_comp, pp_value, substitute,
)
from cateff.typecheck import check_bundle, check_program
from conftest import theory_text
from test_golden import FILES

MINI = """
category C { objects a; gen f : a -> a; }
signature S over C { op tick : 1 ~> 1 @ f; }
program p over S : TYPE @ GRADE { BODY }
"""


def mini_program(body, type_="1", grade="id(a)"):
    src = MINI.replace("BODY", body).replace("TYPE", type_).replace("GRADE", grade)
    return parse_bundle(src).programs["p"]


def test_parse_val_star():
    prog = mini_program("val a ()")
    assert prog.body == Val("a", StarV())


def test_parse_session_term_t_is_four_nested_lets(session_bundle):
    body = session_bundle.programs["t"].body
    ops = []
    m = body
    while isinstance(m, Let):
        assert isinstance(m.bound, OpCall)
        ops.append(m.bound.op)
        m = m.body
    assert ops == ["updateint_1", "sendint", "recvint_int", "lookupint"]
    assert m == Val("int", Var("n"))


def test_undeclared_op_reference_is_unbound():
    with pytest.raises(CeffSyntaxError,
                       match="unknown operation 'tock' in signature S at "
                             "4:35"):
        mini_program("do tock(())")


def test_undeclared_handler_is_unbound():
    with pytest.raises(CeffSyntaxError,
                       match="unknown handler 'nope' at 4:55"):
        mini_program("handle (val a ()) with nope")


def test_syntax_error_carries_position():
    with pytest.raises(CeffSyntaxError) as exc:
        parse_bundle("category C { objects a; gen : }")
    assert exc.value.line == 1 and exc.value.col is not None


# every keyword and symbol, a tab, a \r\n line end, a Unicode-letter
# identifier and a comment that runs to the end of the text
GOLDEN_SRC = ("category objects gen rule wide functor obj signature op\n"
              "handler over to via at return program val let in do\r\n"
              "\tsplit as case of inl inr handle with weaken fun id\n"
              "-> ~> => <- ( ) { } ; , . : @ | + * ^ =\n"
              "  x->y~>z=>w<-v==u\tκé_1 g.h_2 007 # no newline follows")

GOLDEN_TOKENS = [
    ("kw", "category", 1, 1), ("kw", "objects", 1, 10), ("kw", "gen", 1, 18),
    ("kw", "rule", 1, 22), ("kw", "wide", 1, 27), ("kw", "functor", 1, 32),
    ("kw", "obj", 1, 40), ("kw", "signature", 1, 44), ("kw", "op", 1, 54),
    ("kw", "handler", 2, 1), ("kw", "over", 2, 9), ("kw", "to", 2, 14),
    ("kw", "via", 2, 17), ("kw", "at", 2, 21), ("kw", "return", 2, 24),
    ("kw", "program", 2, 31), ("kw", "val", 2, 39), ("kw", "let", 2, 43),
    ("kw", "in", 2, 47), ("kw", "do", 2, 50),
    ("kw", "split", 3, 2), ("kw", "as", 3, 8), ("kw", "case", 3, 11),
    ("kw", "of", 3, 16), ("kw", "inl", 3, 19), ("kw", "inr", 3, 23),
    ("kw", "handle", 3, 27), ("kw", "with", 3, 34), ("kw", "weaken", 3, 39),
    ("kw", "fun", 3, 46), ("kw", "id", 3, 50),
    ("->", "->", 4, 1), ("~>", "~>", 4, 4), ("=>", "=>", 4, 7),
    ("<-", "<-", 4, 10), ("(", "(", 4, 13), (")", ")", 4, 15),
    ("{", "{", 4, 17), ("}", "}", 4, 19), (";", ";", 4, 21),
    (",", ",", 4, 23), (".", ".", 4, 25), (":", ":", 4, 27),
    ("@", "@", 4, 29), ("|", "|", 4, 31), ("+", "+", 4, 33),
    ("*", "*", 4, 35), ("^", "^", 4, 37), ("=", "=", 4, 39),
    ("ident", "x", 5, 3), ("->", "->", 5, 4), ("ident", "y", 5, 6),
    ("~>", "~>", 5, 7), ("ident", "z", 5, 9), ("=>", "=>", 5, 10),
    ("ident", "w", 5, 12), ("<-", "<-", 5, 13), ("ident", "v", 5, 15),
    ("=", "=", 5, 16), ("=", "=", 5, 17), ("ident", "u", 5, 18),
    ("ident", "κé_1", 5, 20), ("ident", "g", 5, 25), (".", ".", 5, 26),
    ("ident", "h_2", 5, 27), ("num", "007", 5, 31),
    # the column does not advance over a comment
    ("eof", "", 5, 35),
]


def _tokens(src):
    return [(t.kind, t.text, t.line, t.col) for t in tokenize(src)]


def test_tokens_are_pinned_with_their_positions():
    assert {t for t, *_ in GOLDEN_TOKENS} >= {"kw", *SYMBOLS}
    assert {t for k, t, *_ in GOLDEN_TOKENS if k == "kw"} == KEYWORDS
    assert _tokens(GOLDEN_SRC) == GOLDEN_TOKENS


@pytest.mark.parametrize("src, char, line, col", [
    ("category ???", "?", 1, 10),
    ("category C {\r\n\tobjects a; $ }", "$", 2, 13),
])
def test_unexpected_character_error_names_its_position(src, char, line, col):
    with pytest.raises(CeffSyntaxError) as exc:
        tokenize(src)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"unexpected character {char!r} at {line}:{col}"


def test_numeric_characters_other_than_decimal_digits_start_identifiers():
    # a number is decimal digits only; other numeric characters are word
    # characters, so they start or continue an identifier
    assert _tokens("² ⅷ x²ⅷ 1²") == [
        ("ident", "²", 1, 1), ("ident", "ⅷ", 1, 3), ("ident", "x²ⅷ", 1, 5),
        ("num", "1", 1, 9), ("ident", "²", 1, 10), ("eof", "", 1, 11)]


def test_unknown_category_reference_is_unbound():
    with pytest.raises(CeffSyntaxError,
                       match="unknown category 'Nowhere' at 1:18"):
        parse_bundle("signature S over Nowhere { }")
    with pytest.raises(CeffSyntaxError,
                       match="unknown category 'Nowhere' at 1:44"):
        parse_bundle("category C { objects a; } "
                     "functor F : C -> Nowhere { obj a => a; }")


def test_unknown_generator_in_grade_path_is_unbound():
    with pytest.raises(CeffSyntaxError,
                       match="unknown generator 'ghost' in category C at "
                             "1:64"):
        parse_bundle("category C { objects a; } "
                     "signature S over C { op t : 1 ~> 1 @ ghost; }")


def test_unknown_object_in_val_is_unbound():
    with pytest.raises(CeffSyntaxError,
                       match="unknown object 'nowhere' in category C at 4:36"):
        mini_program("val nowhere ()")


def test_duplicate_declarations_are_rejected():
    with pytest.raises(CeffSyntaxError):
        parse_bundle("category C { objects a; } category C { objects b; }")
    with pytest.raises(CeffSyntaxError):
        parse_bundle("category C { objects a; } signature S over C { } "
                     "signature S over C { }")


def test_handler_requires_a_return_clause():
    src = """
    category C { objects a; }
    category D { objects b; }
    functor F : C -> D { obj a => b; }
    signature S over C { }
    signature T over D { }
    handler h over S to T via F at a : 1 => 1 { }
    """
    with pytest.raises(CeffSyntaxError):
        parse_bundle(src)


def test_a_wildcard_binder_captures_no_variable():
    # `_` binds as itself, so it cannot shadow a user's variable
    body = "let _w1 <- val a (inl () : 1+1) in let _ <- val a () in val a _w1"
    bundle = parse_bundle(MINI.replace("BODY", body).replace("TYPE", "1+1")
                          .replace("GRADE", "id(a)"))
    check_bundle(bundle)
    prog = bundle.programs["p"]
    final = run_program(prog).configs[-1]
    assert final == Val("a", Inl(StarV(), Sum(UNIT, UNIT)))
    # it prints as `_`, which reparses
    again = mini_program(pp_comp(prog.body), type_="1+1")
    assert repr(again.body) == repr(prog.body)
    # and nothing can refer to it: `_` is no value
    body = "let _ <- val a () in let _ <- val a () in val a _"
    with pytest.raises(CeffSyntaxError) as exc:
        mini_program(body)
    program_line = MINI.splitlines().index(
        "program p over S : TYPE @ GRADE { BODY }") + 1
    col = len("program p over S : 1 @ id(a) { ") + body.rindex("_") + 1
    assert (exc.value.line, exc.value.col) == (program_line, col)


def test_application_parses_as_value_atoms():
    prog = mini_program("(fun^id(a) (x : 1) => val a x) ()")
    assert isinstance(prog.body, App)
    assert isinstance(prog.body.fn, Lam)
    assert prog.body.arg == StarV()


def test_split_and_case_parse():
    prog = mini_program(
        "split ((), ()) as (x, y) in case (inl () : 1+1) of "
        "inl u => val a x | inr w => val a y")
    assert isinstance(prog.body, Proj)
    assert isinstance(prog.body.body, Match)


@pytest.mark.parametrize("theory", ["session", "pair_handler", "mutstore", "widened"])
def test_parse_after_pretty_print_is_identity(theory):
    # every program body and handler clause body, printed as `cateff run`
    # prints configurations and reparsed as a program of the same theory
    text = theory_text(theory)
    bundle = parse_bundle(text, theory)
    bodies = [(p.signature, p.body) for p in bundle.programs.values()]
    bodies += [(h.target, body) for h in bundle.handlers.values()
               for body in clause_bodies(h)]
    printed = [pp_comp(body) for _, body in bodies]
    reparsed = parse_bundle(text + "".join(
        f"\nprogram pp{i} over {sig.name} : 1 @ id({sig.category.objects[0]})"
        f" {{ {src} }}" for i, ((sig, _), src) in enumerate(zip(bodies, printed))),
        f"{theory}-pp")
    for i, ((_, body), src) in enumerate(zip(bodies, printed)):
        again = reparsed.programs[f"pp{i}"].body
        # Morphism reprs omit the category, so reprs compare across bundles
        assert repr(again) == repr(body), src
        assert pp_comp(again) == src


@pytest.mark.parametrize("file", FILES)
def test_every_run_configuration_reparses(file):
    # `cateff run --trace` prints each configuration with pp_comp
    bundle = parse_bundle(Path(FILES[file]).read_text(encoding="utf-8"), file)
    for prog in bundle.programs.values():
        sig = prog.signature
        configs = []
        try:
            for config, _ in steps(prog.body, sig):
                configs.append(config)
        except Stuck:  # the configurations before a blocked one still print
            pass
        for config in configs:
            parser = Parser(pp_comp(config))
            parser.bundle = bundle
            again = parser.parse_comp((sig.category, sig))
            assert parser.peek().kind == "eof", pp_comp(config)
            assert again == config, pp_comp(config)


def test_arrow_types_print_as_the_parser_reads_them():
    # a composite arrow grade prints as a dotted path, in a lambda
    # parameter type and in an injection's annotation
    body = ("let g <- val a (inl (fun^f.f (x : 1) => let y <- do tick(x) in "
            "do tick(y)) : (1 -> 1 @ f.f)+1) in "
            "val a (fun^f.f (h : 1 -> 1 @ f.f) => h ())")
    ty = "(1 -> 1 @ f.f) -> 1 @ f.f"
    prog = mini_program(body, type_=ty)
    printed = pp_comp(prog.body)
    assert printed.count("1 -> 1 @ f.f") == 2
    assert str(check_program(prog).result_type) == ty
    again = mini_program(printed, type_=ty)
    assert repr(again.body) == repr(prog.body)
    assert pp_comp(again.body) == printed


# -- substitution -------------------------------------------------------------

def test_substituting_into_val():
    m = Val("a", Var("x"))
    assert substitute(m, {"x": StarV()}) == Val("a", StarV())


def test_proj_substitution_contract():
    # the body of a split receives both components simultaneously
    body = Val("a", Pair(Var("x"), Var("y")))
    m = substitute(body, {"x": StarV(), "y": Pair(StarV(), StarV())})
    assert m == Val("a", Pair(StarV(), Pair(StarV(), StarV())))


_SCOPE = Val("a", Var("x"))


@pytest.mark.parametrize("term, untouched", [
    (Let("x", Val("a", StarV()), _SCOPE), lambda m: m.body),
    (Val("a", Lam(None, "x", None, _SCOPE)), lambda m: m.val.body),
    (Proj(Pair(StarV(), StarV()), "x", "y", _SCOPE), lambda m: m.body),
    (Proj(Pair(StarV(), StarV()), "y", "x", _SCOPE), lambda m: m.body),
    (Match(Inl(StarV(), None), "x", _SCOPE, "y", Val("a", StarV())),
     lambda m: m.left),
    (Match(Inl(StarV(), None), "y", Val("a", StarV()), "x", _SCOPE),
     lambda m: m.right),
], ids=["let", "lam", "proj-left", "proj-right", "match-left", "match-right"])
def test_substitution_stops_at_a_binder_of_the_same_name(term, untouched):
    out = substitute(term, {"x": Pair(StarV(), StarV())})
    assert untouched(out) == _SCOPE


def test_substitution_leaves_unrelated_binders_alone():
    m = Let("y", Val("a", StarV()), Val("a", Pair(Var("x"), Var("y"))))
    out = substitute(m, {"x": StarV()})
    assert out == Let("y", Val("a", StarV()),
                      Val("a", Pair(StarV(), Var("y"))))


def _random_open_comp(rng, depth, free):
    if depth == 0 or rng.random() < 0.3:
        return Val("a", rng.choice([Var(rng.choice(free)), StarV()]))
    pick = rng.random()
    if pick < 0.5:
        var = rng.choice(["x", "y", "q", "w"])
        return Let(var, _random_open_comp(rng, depth - 1, free),
                   _random_open_comp(rng, depth - 1, free + [var]))
    if pick < 0.75:
        var = rng.choice(["x", "y", "q"])
        return Proj(Pair(Var(rng.choice(free)), StarV()), var, var + "2",
                    _random_open_comp(rng, depth - 1, free + [var]))
    var = rng.choice(["x", "y"])
    return Match(Inl(Var(rng.choice(free)), None), var,
                 _random_open_comp(rng, depth - 1, free + [var]), var,
                 _random_open_comp(rng, depth - 1, free + [var]))


def test_disjoint_substitutions_commute():
    rng = random.Random(7)
    for _ in range(300):
        m = _random_open_comp(rng, 3, ["u", "v"])
        sub_u = {"u": Pair(StarV(), StarV())}
        sub_v = {"v": StarV()}
        both = substitute(m, {**sub_u, **sub_v})
        assert substitute(substitute(m, sub_u), sub_v) == both
        assert substitute(substitute(m, sub_v), sub_u) == both


def test_free_vars_shrink_under_substitution():
    rng = random.Random(11)
    for _ in range(200):
        m = _random_open_comp(rng, 3, ["u", "v"])
        out = substitute(m, {"u": StarV()})
        assert "u" not in free_vars(out)
        assert free_vars(out) <= (free_vars(m) - {"u"})


def test_children_knows_every_node_class():
    bundle = parse_bundle(theory_text("pair_handler"))
    handler = bundle.handlers["pairup"]
    idpt = handler.target.category.identity("pt")
    unit = Val("pt", StarV())
    samples = [
        Var("x"), StarV(), Inl(StarV(), Sum(UNIT, UNIT)),
        Inr(StarV(), Sum(UNIT, UNIT)), Pair(Var("x"), StarV()),
        Lam(idpt, "x", UNIT, unit), unit, Let("x", unit, unit),
        App(Var("f"), StarV()), OpCall("op", StarV()),
        Proj(Var("p"), "x", "y", unit), Match(Var("s"), "x", unit, "y", unit),
        Handle(unit, handler), Gunit(idpt, unit, idpt),
    ]
    classes = {*get_args(ValueAst), *get_args(CompAst)}
    assert {type(node) for node in samples} == classes
    for node in samples:
        for child, bound in children(node):
            assert type(child) in classes and isinstance(bound, tuple)


# every subterm mentions x, y and z; only the binder's scope loses its names
_IDA = GradingCategory("C", ("a",), (), (), ()).identity("a")
_XYZ = Val("a", Pair(Var("x"), Pair(Var("y"), Var("z"))))
_UNIT = Val("a", StarV())


@pytest.mark.parametrize("term, free", [
    (Let("x", _XYZ, _XYZ), {"x", "y", "z"}),
    (Let("x", _UNIT, _XYZ), {"y", "z"}),
    (Val("a", Lam(_IDA, "x", UNIT, _XYZ)), {"y", "z"}),
    (Proj(Var("x"), "x", "q", _XYZ), {"x", "y", "z"}),
    (Proj(Var("w"), "x", "q", _XYZ), {"w", "y", "z"}),
    (Proj(Var("w"), "q", "y", _XYZ), {"w", "x", "z"}),
    (Match(Var("x"), "x", _XYZ, "q", _UNIT), {"x", "y", "z"}),
    (Match(Var("w"), "x", _XYZ, "y", _UNIT), {"w", "y", "z"}),
    (Match(Var("w"), "x", _UNIT, "y", _XYZ), {"w", "x", "z"}),
], ids=["let-bound", "let-body", "fun", "split-pair", "split-left",
        "split-right", "case-scrutinee", "case-inl", "case-inr"])
def test_free_vars_drops_exactly_the_bound_names(term, free):
    assert free_vars(term) == free


def test_pretty_print_value_forms():
    assert pp_value(Pair(StarV(), StarV())) == "((), ())"
    assert pp_comp(Val("a", StarV())) == "val a ()"
