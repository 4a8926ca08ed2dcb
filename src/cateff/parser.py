"""Parser for the ``.ceff`` theory format.

A file declares grading categories, functors, signatures, handlers and
programs, in any order subject to declaration-before-use.  Morphism paths and
operation references are resolved against the ambient declarations while
parsing, so the resulting ASTs carry normal-form morphisms everywhere.

Grammar (whitespace-insensitive, ``#`` comments to end of line):

    category Id { objects a, b; gen g : a -> b; rule g.h = k; wide g; }
    functor G : S -> T { obj a => x; gen g => path; gen h => id; }
    signature Sig over S { op name : P ~> Q @ path; }
    handler H over Sig to Sig2 via G at b : R => R' {
        return x => M;  op name(p), r @ path => M;  op name(p), r => M; }
    program main over Sig : A @ path { M }

Computations: ``val a V`` | ``let x <- M in N`` | ``do name(V)`` | ``V W`` |
``split V as (x, y) in M`` | ``case V of inl x => M1 | inr y => M2`` |
``handle M with H`` | ``weaken g { M } h``.  Values: ``()`` | ``x`` |
``(V, W)`` | ``inl V : A+B`` | ``inr V : A+B`` | ``fun^path (x : A) => M``.
A path is ``g.h.k`` or ``id(obj)``; the single binder ``_`` is a wildcard.

The tokenizer is one regular expression.  A word is word characters not
starting with a decimal digit (so ``²`` and ``ⅷ`` start one); a number is
decimal digits.  Columns count from 1, a tab as one.  A comment moves no
column, so end of file after a final comment without a newline is at its #.
"""
from __future__ import annotations

import itertools
import re
from typing import NamedTuple

from .grading import GradingError, GradingFunctor, Morphism, build_category
from .signature import (
    Arrow, GradedSignature, OpDecl, Prod, SignatureError, Sum, Type, UNIT,
)
from .terms import (
    App, Clause, CompAst, Gunit, Handle, HandlerAst, Inl, Inr, Lam, Let,
    Match, OpCall, Pair, Program, Proj, StarV, TheoryBundle, Val, ValueAst, Var,
)


class CeffError(Exception):
    def __init__(self, msg, line, col):
        self.line, self.col = line, col
        super().__init__(f"{msg} at {line}:{col}")


class CeffSyntaxError(CeffError):
    pass


class UnboundName(CeffError):
    pass


KEYWORDS = frozenset("""
    category objects gen rule wide functor obj signature op handler over to
    via at return program val let in do split as case of inl inr handle with
    weaken fun id
""".split())

SYMBOLS = ("->", "~>", "=>", "<-", "(", ")", "{", "}", ";", ",", ".", ":",
           "@", "|", "+", "*", "^", "=")

COMP_KEYWORDS = frozenset(
    ["val", "let", "do", "split", "case", "handle", "weaken"])


class Token(NamedTuple):
    kind: str  # "ident", "num", "kw", or the symbol itself
    text: str
    line: int
    col: int


# symbols are tried in the order of SYMBOLS, so "=>" wins over "="
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<word>[^\W\d]\w*)
  | (?P<num>\d+)
  | (?P<sym>%s)
  | (?P<other>.)
""" % "|".join(map(re.escape, SYMBOLS)), re.VERBOSE)


def tokenize(src: str):
    toks = []
    line, col = 1, 1
    for m in _TOKEN.finditer(src):
        group, text = m.lastgroup, m.group()
        if group == "newline":
            line, col = line + 1, 1
            continue
        if group == "comment":
            continue  # the column stays: a newline or the end of file follows
        if group == "word":
            toks.append(Token("kw" if text in KEYWORDS else "ident",
                              text, line, col))
        elif group == "num":
            toks.append(Token("num", text, line, col))
        elif group == "sym":
            toks.append(Token(text, text, line, col))
        elif group == "other":
            raise CeffSyntaxError(f"unexpected character {text!r}", line, col)
        col += len(text)
    toks.append(Token("eof", "", line, col))
    return toks


class Parser:
    def __init__(self, src, name="<string>"):
        self.name = name
        self.toks = tokenize(src)
        self.pos = 0
        self.bundle = TheoryBundle()
        self._wild = itertools.count(1)

    # -- token plumbing ---------------------------------------------------

    def peek(self, ahead=0) -> Token:
        # nothing looks past the end-of-file token, and next() stays on it
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind, what=None) -> Token:
        if self.peek().kind != kind:
            self.fail_expected(what or kind)
        return self.next()

    def expect_kw(self, word) -> Token:
        if not self.at_kw(word):
            self.fail_expected(word)
        return self.next()

    def fail_expected(self, what):
        self.fail(f"expected {what!r}, found {self.peek().text or 'end of file'!r}")

    def at_kw(self, word) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text == word

    def ident(self, what="name") -> Token:
        return self.expect("ident", what)

    def idents(self, sep, what) -> list:
        """One or more identifier tokens separated by ``sep``."""
        toks = [self.ident(what)]
        while self.peek().kind == sep:
            self.next()
            toks.append(self.ident(what))
        return toks

    def binder(self) -> str:
        tok = self.ident("binder")
        if tok.text == "_":
            return f"_w{next(self._wild)}"
        return tok.text

    def fail(self, msg, tok=None, cls=CeffSyntaxError):
        tok = tok or self.peek()
        raise cls(msg, tok.line, tok.col)

    # -- names ------------------------------------------------------------

    def lookup(self, table, kind, name_tok=None):
        name_tok = name_tok or self.ident(f"{kind} name")
        item = table.get(name_tok.text)
        if item is None:
            raise UnboundName(f"unknown {kind} {name_tok.text!r}",
                              name_tok.line, name_tok.col)
        return item

    def declare(self, table, name, value, kind, tok):
        if name in table:
            self.fail(f"{kind} {name!r} declared twice", tok)
        table[name] = value

    # -- paths and types --------------------------------------------------

    def parse_path(self, cat) -> Morphism:
        tok = self.peek()
        if self.at_kw("id"):
            self.next()
            self.expect("(")
            obj = self.ident("object name")
            self.expect(")")
            if obj.text not in cat.objects:
                self.fail(f"unknown object {obj.text!r} in category {cat.name}",
                          obj, UnboundName)
            return cat.identity(obj.text)
        names = self.idents(".", "generator name")
        for name_tok in names:
            if name_tok.text not in cat.generators:
                self.fail(f"unknown generator {name_tok.text!r} in category "
                          f"{cat.name}", name_tok, UnboundName)
        try:
            return cat.morphism(tuple(t.text for t in names))
        except GradingError as exc:
            self.fail(str(exc), tok)

    def parse_type(self, cat) -> Type:
        left = self._parse_sum(cat)
        if self.peek().kind == "->":
            self.next()
            res = self._parse_sum(cat)
            self.expect("@")
            grade = self.parse_path(cat)
            return Arrow(left, res, grade)
        return left

    def _parse_sum(self, cat) -> Type:
        left = self._parse_prod(cat)
        if self.peek().kind == "+":
            self.next()
            return Sum(left, self._parse_sum(cat))
        return left

    def _parse_prod(self, cat) -> Type:
        left = self._parse_type_atom(cat)
        if self.peek().kind == "*":
            self.next()
            return Prod(left, self._parse_prod(cat))
        return left

    def _parse_type_atom(self, cat) -> Type:
        tok = self.peek()
        if tok.kind == "num":
            if tok.text != "1":
                self.fail("the only numeric type is 1")
            self.next()
            return UNIT
        if tok.kind == "(":
            self.next()
            t = self.parse_type(cat)
            self.expect(")")
            return t
        self.fail(f"expected a type, found {tok.text!r}")

    # -- values and computations ------------------------------------------

    def parse_value(self, amb) -> ValueAst:
        cat, _ = amb
        tok = self.peek()
        if self.at_kw("inl") or self.at_kw("inr"):
            self.next()
            val = self.parse_value_atom(amb)
            self.expect(":")
            ann = self.parse_type(cat)
            return (Inl if tok.text == "inl" else Inr)(val, ann)
        if self.at_kw("fun"):
            self.next()
            self.expect("^")
            grade = self.parse_path(cat)
            self.expect("(")
            var = self.binder()
            self.expect(":")
            var_type = self.parse_type(cat)
            self.expect(")")
            self.expect("=>")
            body = self.parse_comp(amb)
            return Lam(grade, var, var_type, body)
        return self.parse_value_atom(amb)

    def parse_value_atom(self, amb) -> ValueAst:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return Var(tok.text)
        if tok.kind == "(":
            self.next()
            if self.peek().kind == ")":
                self.next()
                return StarV()
            first = self.parse_value(amb)
            if self.peek().kind == ",":
                self.next()
                second = self.parse_value(amb)
                self.expect(")")
                return Pair(first, second)
            self.expect(")")
            return first
        self.fail(f"expected a value, found {tok.text or 'end of file'!r}")

    def parse_comp(self, amb) -> CompAst:
        cat, sig = amb
        tok = self.peek()
        if self.at_kw("val"):
            self.next()
            obj = self.ident("object name")
            if obj.text not in cat.objects:
                self.fail(f"unknown object {obj.text!r} in category {cat.name}",
                          obj, UnboundName)
            return Val(obj.text, self.parse_value_atom(amb))
        if self.at_kw("let"):
            self.next()
            var = self.binder()
            self.expect("<-")
            bound = self.parse_comp(amb)
            self.expect_kw("in")
            return Let(var, bound, self.parse_comp(amb))
        if self.at_kw("do"):
            self.next()
            op = self.ident("operation name")
            if op.text not in sig:
                self.fail(f"unknown operation {op.text!r} in signature "
                          f"{sig.name}", op, UnboundName)
            self.expect("(")
            arg = self.parse_value(amb)
            self.expect(")")
            return OpCall(op.text, arg)
        if self.at_kw("split"):
            self.next()
            pair = self.parse_value_atom(amb)
            self.expect_kw("as")
            self.expect("(")
            x = self.binder()
            self.expect(",")
            y = self.binder()
            self.expect(")")
            self.expect_kw("in")
            return Proj(pair, x, y, self.parse_comp(amb))
        if self.at_kw("case"):
            self.next()
            scrut = self.parse_value_atom(amb)
            self.expect_kw("of")
            self.expect_kw("inl")
            x = self.binder()
            self.expect("=>")
            left = self.parse_comp(amb)
            self.expect("|")
            self.expect_kw("inr")
            y = self.binder()
            self.expect("=>")
            right = self.parse_comp(amb)
            return Match(scrut, x, left, y, right)
        if self.at_kw("handle"):
            self.next()
            handler = self._handler_of_upcoming_with()
            inner_amb = (handler.source.category, handler.source)
            body = self.parse_comp(inner_amb)
            self.expect_kw("with")
            self.ident("handler name")
            return Handle(body, handler)
        if self.at_kw("weaken"):
            self.next()
            pre = self.parse_path(cat)
            self.expect("{")
            body = self.parse_comp(amb)
            self.expect("}")
            post = self.parse_path(cat)
            return Gunit(pre, body, post)
        if tok.kind == "(" and self.peek(1).kind == "kw" \
                and self.peek(1).text in COMP_KEYWORDS:
            self.next()
            comp = self.parse_comp(amb)
            self.expect(")")
            return comp
        fn = self.parse_value_atom(amb)
        arg = self.parse_value_atom(amb)
        return App(fn, arg)

    def _handler_of_upcoming_with(self) -> HandlerAst:
        # the handled computation is parsed in the handler's source theory,
        # so peek past it to the matching `with` before descending
        depth = 0
        for ahead in itertools.count():
            tok = self.peek(ahead)
            if tok.kind == "eof":
                self.fail("handle without matching 'with'", tok)
            if tok.kind == "kw" and tok.text == "handle":
                depth += 1
            elif tok.kind == "kw" and tok.text == "with":
                if depth == 0:
                    name_tok = self.peek(ahead + 1)
                    if name_tok.kind != "ident":
                        self.fail("expected handler name after 'with'", name_tok)
                    return self.lookup(self.bundle.handlers, "handler", name_tok)
                depth -= 1

    # -- declarations -------------------------------------------------------

    def parse_bundle(self) -> TheoryBundle:
        declarations = {"category": self.parse_category,
                        "functor": self.parse_functor,
                        "signature": self.parse_signature,
                        "handler": self.parse_handler,
                        "program": self.parse_program}
        while (tok := self.peek()).kind != "eof":
            if tok.kind != "kw" or tok.text not in declarations:
                self.fail("expected a declaration (category/functor/signature/"
                          "handler/program)")
            declarations[tok.text]()
        return self.bundle

    def _raw_path_names(self):
        return tuple(t.text for t in self.idents(".", "generator name"))

    def parse_category(self):
        start = self.expect_kw("category")
        name_tok = self.ident("category name")
        name = name_tok.text
        self.expect("{")
        objects, gens, rules, wide = [], [], [], []
        id_rhs_objs = []  # (rule index, declared object) for id right-hand sides
        while not self.peek().kind == "}":
            if self.at_kw("objects"):
                self.next()
                objects += [t.text for t in self.idents(",", "object name")]
                self.expect(";")
            elif self.at_kw("gen"):
                self.next()
                gname = self.ident("generator name").text
                self.expect(":")
                dom = self.ident("object name").text
                self.expect("->")
                cod = self.ident("object name").text
                self.expect(";")
                gens.append((gname, dom, cod))
            elif self.at_kw("rule"):
                self.next()
                lhs = self._raw_path_names()
                self.expect("=")
                if self.at_kw("id"):
                    self.next()
                    self.expect("(")
                    obj = self.ident("object name").text
                    self.expect(")")
                    id_rhs_objs.append((len(rules), obj))
                    rules.append((lhs, ()))
                else:
                    rules.append((lhs, self._raw_path_names()))
                self.expect(";")
            elif self.at_kw("wide"):
                self.next()
                wide += [t.text for t in self.idents(",", "generator name")]
                self.expect(";")
            else:
                self.fail("expected objects/gen/rule/wide declaration")
        self.expect("}")
        gen_doms = {g[0]: g[1] for g in gens}
        for idx, obj in id_rhs_objs:
            lhs = rules[idx][0]
            if gen_doms.get(lhs[0]) != obj:
                self.fail(f"rule {'.'.join(lhs)} = id({obj}): path does not "
                          f"start at {obj}", start)
        try:
            cat = build_category(name, objects, gens, rules, wide)
        except GradingError as exc:
            self.fail(f"invalid category {name}: {exc}", start)
        self.declare(self.bundle.categories, name, cat, "category", name_tok)

    def parse_functor(self):
        start = self.expect_kw("functor")
        name_tok = self.ident("functor name")
        name = name_tok.text
        self.expect(":")
        source = self.lookup(self.bundle.categories, "category")
        self.expect("->")
        target = self.lookup(self.bundle.categories, "category")
        self.expect("{")
        object_map, raw_gen_map = {}, {}
        while not self.peek().kind == "}":
            if self.at_kw("obj"):
                self.next()
                src = self.ident("object name").text
                self.expect("=>")
                dst = self.ident("object name").text
                self.expect(";")
                object_map[src] = dst
            elif self.at_kw("gen"):
                self.next()
                gname = self.ident("generator name").text
                self.expect("=>")
                if self.at_kw("id") and self.peek(1).kind != "(":
                    self.next()
                    raw_gen_map[gname] = None  # identity at the image object
                else:
                    raw_gen_map[gname] = self.parse_path(target)
                self.expect(";")
            else:
                self.fail("expected obj/gen mapping")
        self.expect("}")
        gen_map = {}
        for gname, img in raw_gen_map.items():
            gen = source.generators.get(gname)
            if gen is None:
                self.fail(f"functor {name}: unknown source generator {gname!r}",
                          start, UnboundName)
            if img is None:
                dst = object_map.get(gen.dom)
                if dst is None:
                    self.fail(f"functor {name}: no object image for {gen.dom}",
                              start)
                img = target.identity(dst)
            gen_map[gname] = img
        try:
            functor = GradingFunctor(name, source, target, object_map, gen_map)
        except GradingError as exc:
            self.fail(f"invalid functor {name}: {exc}", start)
        self.declare(self.bundle.functors, name, functor, "functor", name_tok)

    def parse_signature(self):
        start = self.expect_kw("signature")
        name_tok = self.ident("signature name")
        name = name_tok.text
        self.expect_kw("over")
        cat = self.lookup(self.bundle.categories, "category")
        self.expect("{")
        ops = []
        while not self.peek().kind == "}":
            self.expect_kw("op")
            opname = self.ident("operation name").text
            self.expect(":")
            param = self.parse_type(cat)
            self.expect("~>")
            arity = self.parse_type(cat)
            self.expect("@")
            grade = self.parse_path(cat)
            self.expect(";")
            ops.append(OpDecl(opname, param, arity, grade))
        self.expect("}")
        try:
            sig = GradedSignature(name, cat, ops)
        except SignatureError as exc:
            self.fail(f"invalid signature {name}: {exc}", start)
        self.declare(self.bundle.signatures, name, sig, "signature", name_tok)

    def parse_handler(self):
        self.expect_kw("handler")
        name_tok = self.ident("handler name")
        name = name_tok.text
        self.expect_kw("over")
        source = self.lookup(self.bundle.signatures, "signature")
        self.expect_kw("to")
        target = self.lookup(self.bundle.signatures, "signature")
        self.expect_kw("via")
        functor = self.lookup(self.bundle.functors, "functor")
        self.expect_kw("at")
        at_tok = self.ident("object name")
        if at_tok.text not in source.category.objects:
            self.fail(f"unknown object {at_tok.text!r} in category "
                      f"{source.category.name}", at_tok, UnboundName)
        self.expect(":")
        in_type = self.parse_type(source.category)
        self.expect("=>")
        out_type = self.parse_type(target.category)
        self.expect("{")
        target_amb = (target.category, target)
        ret_var = ret_body = None
        clauses, defaults = {}, {}
        while not self.peek().kind == "}":
            if self.at_kw("return"):
                self.next()
                ret_var = self.binder()
                self.expect("=>")
                ret_body = self.parse_comp(target_amb)
                self.expect(";")
            elif self.at_kw("op"):
                self.next()
                op_tok = self.ident("operation name")
                if op_tok.text not in source:
                    self.fail(f"unknown operation {op_tok.text!r} in signature "
                              f"{source.name}", op_tok, UnboundName)
                self.expect("(")
                pvar = self.binder()
                self.expect(")")
                self.expect(",")
                rvar = self.binder()
                k = None
                if self.peek().kind == "@":
                    self.next()
                    k = self.parse_path(source.category)
                self.expect("=>")
                body = self.parse_comp(target_amb)
                self.expect(";")
                clause = Clause(pvar, rvar, body)
                if k is None:
                    defaults[op_tok.text] = clause
                else:
                    clauses[(op_tok.text, k)] = clause
            else:
                self.fail("expected return/op clause")
        self.expect("}")
        if ret_body is None:
            self.fail(f"handler {name}: missing return clause")
        handler = HandlerAst(name, source, target, functor, at_tok.text,
                             in_type, out_type, ret_var, ret_body,
                             clauses, defaults)
        self.declare(self.bundle.handlers, name, handler, "handler", name_tok)

    def parse_program(self):
        self.expect_kw("program")
        name_tok = self.ident("program name")
        name = name_tok.text
        self.expect_kw("over")
        sig = self.lookup(self.bundle.signatures, "signature")
        cat = sig.category
        self.expect(":")
        ann_type = self.parse_type(cat)
        self.expect("@")
        ann_grade = self.parse_path(cat)
        self.expect("{")
        body = self.parse_comp((cat, sig))
        self.expect("}")
        self.declare(self.bundle.programs, name,
                     Program(name, sig, ann_type, ann_grade, body),
                     "program", name_tok)


def parse_bundle(src: str, name="<string>") -> TheoryBundle:
    return Parser(src, name).parse_bundle()


def load_bundle(path) -> TheoryBundle:
    with open(path, encoding="utf-8") as fh:
        return parse_bundle(fh.read(), name=str(path))
