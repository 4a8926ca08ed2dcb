"""Seeded `.ceff` source generators with independently computed answers.

Nothing here imports cateff.  Each generator returns the program text the
benchmark feeds to cateff together with what cateff must answer for it:
the judgement (type and grade) of every program, the final value or the
operation a run stops at, the number of leaves of every denotation and a
SHA-256 digest of its JSON form.  Grades are normalized here by free
reduction of the generator word (``a`` and ``b`` cancel), continuation
grades are the normal forms of the suffixes of the chain, and denotation
trees are built from the chain structure alone.  The same seed always gives
byte-identical text.
"""
from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass

GENS = ("a", "b", "c")
INVERSE = {"a": "b", "b": "a"}
INT = "1+1+1+1"
BOOL = "1+1"
EXPLICIT_CLAUSES = 3

HEADER = """\
category Chain {
  objects s;
  gen a : s -> s;
  gen b : s -> s;
  gen c : s -> s;
  rule a.b = id(s);
  rule b.a = id(s);
}

category Point {
  objects pt;
}

functor Erase : Chain -> Point {
  obj s => pt;
  gen a => id;
  gen b => id;
  gen c => id;
}

signature PointSig over Point {
}
"""

# The categories of HEADER as (name, objects, generators, rules), for
# loading them without the parser.
CHAIN_CATEGORIES = (
    ("Chain", ("s",), tuple((g, "s", "s") for g in GENS),
     ((("a", "b"), ()), (("b", "a"), ()))),
    ("Point", ("pt",), (), ()),
)


def reduce_word(word) -> tuple:
    """Normal form of a generator word: free reduction of a/b pairs."""
    out: list = []
    for g in word:
        if out and INVERSE.get(out[-1]) == g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def suffix_grades(word) -> list:
    """The continuation grade of the op at each position: the normal form
    of everything sequenced after it."""
    ks = [()] * len(word)
    k: tuple = ()
    for i in range(len(word) - 1, -1, -1):
        ks[i] = k
        g = word[i]
        k = k[1:] if k and INVERSE.get(g) == k[0] else (g,) + k
    return ks


def grade_str(path, obj) -> str:
    """A grade as cateff prints a morphism."""
    return ";".join(path) if path else f"id({obj})"


def path_src(path, obj) -> str:
    """A grade as `.ceff` source writes it."""
    return ".".join(path) if path else f"id({obj})"


INT_SRC = ("inl () : 1+1+1+1",
           "inr (inl () : 1+1+1) : 1+1+1+1",
           "inr (inr (inl () : 1+1) : 1+1+1) : 1+1+1+1",
           "inr (inr (inr () : 1+1) : 1+1+1) : 1+1+1+1")


def int_json(n: int):
    """Value n of the right-nested sum 1+1+1+1 in cateff's JSON value form."""
    v = "*" if n == 3 else ["inl", "*"]
    for _ in range(n):
        v = ["inr", v]
    return v


def bool_json(bit: int):
    return ["inr", "*"] if bit else ["inl", "*"]


def leaf_json(obj, val):
    return {"leaf": {"obj": obj, "val": val}}


def node_json(op, k, children):
    return {"node": {"op": op, "param": "*", "k": k,
                     "children": list(children)}}


def digest(tree_json) -> str:
    """SHA-256 of the canonical JSON of a denotation tree."""
    return hashlib.sha256(
        json.dumps(tree_json, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Expected:
    """What cateff must answer for one program of a generated file."""
    type: str
    grade: str
    final_value: object  # JSON value form; None when the run stops at an op
    final_op: str | None  # the unhandled operation the run stops at
    leaves: int
    tree_digest: str


@dataclass(frozen=True)
class Case:
    """One generated `.ceff` file and the answers for each of its programs."""
    id: str
    size: int          # the scaled quantity: ops for chains, leaves for trees
    text: str
    expected: dict     # program name -> Expected
    word: tuple        # the chain's generator word, for the compose fold
    normal_form: str   # its normal form, as cateff prints it
    corpus_seed: int   # seed of the small corpus the conformance run draws


def chain_word(rng, n) -> tuple:
    """n generators repeating the unit ``c`` then a cancelling pair, ``a.b``
    or ``b.a`` as the seed draws it.  Every let then needs a real rewrite,
    while the lengths of the normal forms, which the cost of checking and
    running depends on, are the same for every seed."""
    word: list = []
    while len(word) < n:
        word += ["c", *rng.choice((("a", "b"), ("b", "a")))]
    return tuple(word[:n])


def _explicit_keys(rng, word, ks, op_of) -> list:
    """A few (op, continuation grade) pairs that occur in the chain."""
    picks = rng.sample(range(len(word)), min(EXPLICIT_CLAUSES, len(word)))
    keys = []
    for i in sorted(picks):
        key = (op_of[word[i]], ks[i])
        if key not in keys:
            keys.append(key)
    return keys


def _chain_lines(word, op_of, final_src) -> list:
    lines = [f"  let x{i + 1} <- do {op_of[g]}(()) in"
             for i, g in enumerate(word)]
    lines.append(f"  val s {final_src}")
    return lines


def _program(name, sig, ty, grade, body_lines) -> str:
    return "\n".join([f"program {name} over {sig} : {ty} @ {grade} {{",
                      *body_lines, "}", ""])


def chain_case(seed: int, index: int, n: int) -> Case:
    """A let-chain of n handled arity-1 operations, and the same chain
    unhandled.  The handler counts (mod 4) how often an explicit clause
    fires; every other call resumes through the default clause."""
    rng = random.Random(f"chain/{seed}/{index}/{n}")
    word = chain_word(rng, n)
    ks = suffix_grades(word)
    nf = reduce_word(word)
    op_of = {g: f"op{g}" for g in GENS}
    start = rng.randrange(4)
    keys = _explicit_keys(rng, word, ks, op_of)
    hits = sum((op_of[g], k) in keys for g, k in zip(word, ks))
    final = (start + hits) % 4

    succ = (f"case z of inl z0 => val pt ({INT_SRC[1]})\n"
            f"      | inr m0 => case m0 of inl z1 => val pt ({INT_SRC[2]})\n"
            f"      | inr m1 => case m1 of inl z2 => val pt ({INT_SRC[3]})\n"
            f"      | inr z3 => val pt ({INT_SRC[0]})")
    clauses = [f"  op {op}(p), r @ {path_src(k, 's')} =>\n"
               f"    let z <- r () in\n    {succ};" for op, k in keys]
    clauses += [f"  op {op_of[g]}(p), r => r ();" for g in GENS]
    body = _chain_lines(word, op_of, f"({INT_SRC[start]})")
    text = "\n".join([
        HEADER,
        "signature ChainSig over Chain {",
        *(f"  op {op_of[g]} : 1 ~> 1 @ {g};" for g in GENS),
        "}",
        "",
        f"handler count over ChainSig to PointSig via Erase at s : "
        f"{INT} => {INT} {{",
        "  return z => val pt z;",
        *clauses,
        "}",
        "",
        _program("raw", "ChainSig", INT, path_src(nf, "s"), body),
        _program("main", "PointSig", INT, "id(pt)",
                 ["  handle (", *body, "  ) with count"]),
    ])

    tree = leaf_json("s", int_json(start))
    for i in range(n - 1, -1, -1):
        tree = node_json(op_of[word[i]], grade_str(ks[i], "s"), [tree])
    final_leaf = leaf_json("pt", int_json(final))
    expected = {
        "raw": Expected(INT, grade_str(nf, "s"), None,
                        op_of[word[0]] if word else None, 1, digest(tree)),
        "main": Expected(INT, "id(pt)", int_json(final), None, 1,
                         digest(final_leaf)),
    }
    return Case(f"chain/{seed}/{index}/{n}", n, text, expected, word,
                grade_str(nf, "s"), rng.randrange(2 ** 31))


def branching_case(seed: int, index: int, n: int) -> Case:
    """A let-chain of n arity-2 operations (2^n leaves) returning one of the
    bound bits, unhandled and under a handler that resumes each call once,
    with the left bit at a few explicit continuation grades and the right
    bit elsewhere."""
    rng = random.Random(f"branching/{seed}/{index}/{n}")
    word = chain_word(rng, n)
    ks = suffix_grades(word)
    nf = reduce_word(word)
    op_of = {g: f"f{g}" for g in GENS}
    j = rng.randrange(n)
    keys = _explicit_keys(rng, word, ks, op_of)
    bits = [0 if (op_of[g], k) in keys else 1 for g, k in zip(word, ks)]

    clauses = [f"  op {op}(p), r @ {path_src(k, 's')} => r (inl () : 1+1);"
               for op, k in keys]
    clauses += [f"  op {op_of[g]}(p), r => r (inr () : 1+1);" for g in GENS]
    body = _chain_lines(word, op_of, f"x{j + 1}")
    text = "\n".join([
        HEADER,
        "signature BranchSig over Chain {",
        *(f"  op {op_of[g]} : 1 ~> 1+1 @ {g};" for g in GENS),
        "}",
        "",
        f"handler pick over BranchSig to PointSig via Erase at s : "
        f"{BOOL} => {BOOL} {{",
        "  return z => val pt z;",
        *clauses,
        "}",
        "",
        _program("raw", "BranchSig", BOOL, path_src(nf, "s"), body),
        _program("main", "PointSig", BOOL, "id(pt)",
                 ["  handle (", *body, "  ) with pick"]),
    ])

    # the subtree below depth i depends only on the bit bound at j, once
    # it is bound, so each depth has at most two distinct subtrees
    below = {bit: leaf_json("s", bool_json(bit)) for bit in (0, 1)}
    for i in range(n - 1, -1, -1):
        op, k = op_of[word[i]], grade_str(ks[i], "s")
        if i > j:
            below = {bit: node_json(op, k, [below[bit], below[bit]])
                     for bit in (0, 1)}
        elif i == j:
            below = {None: node_json(op, k, [below[0], below[1]])}
        else:
            below = {None: node_json(op, k, [below[None], below[None]])}
    expected = {
        "raw": Expected(BOOL, grade_str(nf, "s"), None, op_of[word[0]],
                        2 ** n, digest(below[None])),
        "main": Expected(BOOL, "id(pt)", bool_json(bits[j]), None, 1,
                         digest(leaf_json("pt", bool_json(bits[j])))),
    }
    return Case(f"branching/{seed}/{index}/{n}", 2 ** n, text, expected,
                word, grade_str(nf, "s"), rng.randrange(2 ** 31))


# The four shipped theories the corpus workload draws its terms over.
THEORIES = ("session", "pair_handler", "mutstore", "widened")
WALK_LENGTH = 16

_CATEGORY = re.compile(r"category\s+(\w+)\s*\{(.*?)\}", re.S)
_GEN = re.compile(r"gen\s+(\w+)\s*:\s*(\w+)\s*->\s*(\w+)\s*;")
_RULE = re.compile(r"rule\s+([\w.]+)\s*=\s*([\w.()]+)\s*;")


def theory_categories(text: str) -> list:
    """(name, generators as (name, dom, cod), cancelling pairs) of every
    category declared in `.ceff` text, read without cateff's parser.  Only
    rules of the form ``x.y = id(o)`` are supported."""
    out = []
    for name, body in _CATEGORY.findall(re.sub(r"#[^\n]*", "", text)):
        cancels = set()
        for lhs, rhs in _RULE.findall(body):
            pair = tuple(lhs.split("."))
            if len(pair) != 2 or not rhs.startswith("id("):
                raise ValueError(f"category {name}: unsupported rule {lhs}")
            cancels.add(pair)
        out.append((name, tuple(_GEN.findall(body)), frozenset(cancels)))
    return out


def reduce_path(path, cancels) -> tuple:
    """Normal form of a path under cancelling rules ``x.y = id``."""
    out: list = []
    for g in path:
        if out and (out[-1], g) in cancels:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


@dataclass(frozen=True)
class Walk:
    """A composable generator path of a shipped category, for the compose
    fold, with its normal form as cateff prints it."""
    theory: str
    category: str
    path: tuple
    normal_form: str


def category_walks(seed: int, texts: dict) -> list:
    """One seeded walk of up to WALK_LENGTH generators per category that
    has generators, over the theories in `texts` (theory -> source)."""
    rng = random.Random(f"walks/{seed}")
    walks = []
    for theory in THEORIES:
        for name, gens, cancels in theory_categories(texts[theory]):
            if not gens:
                continue
            obj = rng.choice(sorted({g[1] for g in gens}))
            start, path = obj, []
            for _ in range(WALK_LENGTH):
                nxt = [g for g in gens if g[1] == obj]
                if not nxt:
                    break
                g = rng.choice(nxt)
                path.append(g[0])
                obj = g[2]
            walks.append(Walk(theory, name, tuple(path),
                              grade_str(reduce_path(path, cancels), start)))
    return walks


@dataclass(frozen=True)
class CorpusBatch:
    """One corpus request: `count` terms of `depth` over a signature of a
    shipped theory, and ``count // 4`` unit programs for adequacy."""
    theory: str
    signature: str
    seed: int
    count: int
    depth: int


def corpus_batches(seed: int, round_: int, signatures: dict, count: int,
                   depth: int) -> list:
    """The batches of one round: every signature of every shipped theory
    (``signatures`` maps theory -> signature names)."""
    rng = random.Random(f"corpus/{seed}/{round_}")
    return [CorpusBatch(theory, sig, rng.randrange(2 ** 31), count, depth)
            for theory in THEORIES for sig in signatures[theory]]
