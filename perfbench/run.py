#!/usr/bin/env python3
"""The cateff benchmark.

    python3 perfbench/run.py --workload chain_handled --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; cateff is imported from ``src``.
It generates `.ceff` source text from the seed, feeds it to cateff's public
entry points in one closed loop (one caller, one thread, the next program
only after the previous one finished), checks every output against the
answer the generator computed on its own, and prints one line per metric
followed by the JSON result as the last line.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the
separate traced run: it alternates untraced and traced passes over a fixed
set of inputs, records spans around every call into a layer, and reports
per-layer times, exact counts and the tracing overhead.  The spans of the
last traced pass are written to ``.perfbench/``.  See README.md for the
workloads, the metrics and how they interact.
"""
from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import resource
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import gen
from calibrate import Calibrator
from spans import NullTracer, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
THEORY_DIR = SRC / "cateff" / "theories"
OUT_DIR = Path(".perfbench")

MODULES = ("grading", "terms", "parser", "typecheck", "eval", "denote",
           "freemodel", "conformance")
SETUP_REPEATS = 3   # set-ups before the loop; one more every SETUP_EVERY_S
SETUP_EVERY_S = 4.0
CHAIN_N = 24        # chain_handled: chains of 24 and 48 handled operations
BRANCH_N = 10       # branching_denote: trees of 2^10 and 2^11 leaves
POOL = 4            # generated files per size; the loop cycles through them
CONFORM_COUNT = 4   # size of the corpus a file's conformance run draws
CONFORM_DEPTH = 3
CORPUS_COUNT = 50   # conform_corpus: terms per signature per round, and
CORPUS_DEPTH = 4    # their depth (see README.md for why not 5)
CORPUS_ROUNDS = 32  # distinct rounds the loop cycles through
CORPUS_BUCKET = 8   # terms of [8, 16) and [16, 32) nodes give its scaling
TRACE_CASES = 2     # files per size in one traced pass
MAX_STEPS = 100_000
OPS = ("check", "run", "denote", "conform")

E2E_UNITS = {
    "setup_s": "s", "check_p50_ms": "ms", "run_p50_ms": "ms",
    "denote_p50_ms": "ms", "conform_p50_ms": "ms", "conform_p99_ms": "ms",
    "programs_per_s": "1/s", "scaling_exponent": "log2",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "parser.parse_ms": "ms", "parser.tokens_per_s": "1/s",
    "grading.validate_ms": "ms", "grading.compose_ms": "ms",
    "typecheck.check_ms": "ms", "typecheck.growth": "log2",
    "eval.decompose_ms": "ms", "eval.cont_grade_ms": "ms",
    "eval.rule_ms": "ms", "eval.steps": "count", "eval.steps_per_s": "1/s",
    "eval.growth": "log2", "eval.max_term_nodes": "count",
    "denote.denote_ms": "ms", "denote.leaves_per_s": "1/s",
    "denote.growth": "log2", "freemodel.leaves": "count",
    "freemodel.to_json_ms": "ms", "conformance.generate_ms": "ms",
    "conformance.soundness_ms": "ms", "conformance.lemma_shapes_ms": "ms",
    "conformance.adequacy_ms": "ms", "conformance.terms": "count",
    "trace.traced_ms": "ms", "trace.untraced_ms": "ms",
    "trace.overhead_ms": "ms", "trace.layers_ms": "ms", "trace.bench_ms": "ms",
}
EXACT_COUNTS = ("eval.steps", "eval.max_term_nodes", "freemodel.leaves",
                "conformance.terms", "parser.tokens")
LAYERS = ("parser", "grading", "typecheck", "eval", "denote", "freemodel",
          "conformance")


class Failed(Exception):
    """An operation raised; its cause is already counted."""


def cateff_modules():
    return SimpleNamespace(**{m: importlib.import_module(f"cateff.{m}")
                              for m in MODULES})


def load_cateff():
    """Import cateff afresh, so that every set-up repetition pays for it."""
    for name in [m for m in sys.modules
                 if m == "cateff" or m.startswith("cateff.")]:
        del sys.modules[name]
    return cateff_modules()


# ---------------------------------------------------------------------------
# reading cateff's outputs

def value_json(cf, v):
    """A value AST in cateff's JSON value form; None for non-data values."""
    t = cf.terms
    if isinstance(v, t.StarV):
        return "*"
    if isinstance(v, t.Inl):
        return ["inl", value_json(cf, v.val)]
    if isinstance(v, t.Inr):
        return ["inr", value_json(cf, v.val)]
    if isinstance(v, t.Pair):
        return ["pair", value_json(cf, v.left), value_json(cf, v.right)]
    return None


def count_leaves(tree_json) -> int:
    n, stack = 0, [tree_json]
    while stack:
        t = stack.pop()
        if "leaf" in t:
            n += 1
        elif "node" in t:
            stack.extend(t["node"]["children"])
        else:
            stack.append(t["coerce"]["child"])
    return n


def term_nodes(cf, m) -> int:
    """Number of syntax nodes of a term, not descending into handlers."""
    t = cf.terms
    kinds = (t.Val, t.Let, t.App, t.OpCall, t.Proj, t.Match, t.Handle,
             t.Gunit, t.Var, t.StarV, t.Inl, t.Inr, t.Pair, t.Lam)
    n, stack = 0, [m]
    while stack:
        x = stack.pop()
        n += 1
        stack.extend(v for f in fields(x)
                     if isinstance(v := getattr(x, f.name), kinds))
    return n


# ---------------------------------------------------------------------------
# recording

class Record:
    """Operation times per item and repetition, and failures, of a run or a
    pass.  An item is one generated file or term.  Times are scaled to
    nominal ones when read (see calibrate.py)."""

    def __init__(self, cal):
        self.cal = cal
        # item -> per repetition and operation: seconds, kernel time index
        self.reps = defaultdict(lambda: array("d"))
        self.sizes = {}                  # item -> size
        self.attempted = 0
        self.failed = 0
        self.causes = Counter()
        self._item, self._rep = None, None

    def begin_item(self, item, size):
        self.sizes[item] = size
        self._item, self._rep = item, [math.nan] * (2 * len(OPS))

    def end_item(self):
        self.reps[self._item].extend(self._rep)
        self._rep = None

    def op(self, name, fn, check=None):
        """Run one timed operation.  A raise or a wrong answer counts as one
        failure with its cause, and never stops the benchmark."""
        self.attempted += 1
        kernel = self.cal.sample()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self.fail(name, type(exc).__name__)
            raise Failed from exc
        if self._rep is not None and name in OPS:
            i = 2 * OPS.index(name)
            self._rep[i:i + 2] = time.perf_counter() - t0, kernel
        if wrong := check(out) if check else None:
            self.fail(name, wrong)
        return out

    def skip(self, ops, why):
        """Operations that cannot run because an earlier one failed."""
        for name in ops:
            self.attempted += 1
            self.fail(name, why)

    def fail(self, op, cause):
        self.failed += 1
        self.causes[f"{op}: {cause}"] += 1

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.causes.update(other.causes)

    def per_item(self, op):
        """item -> the median over its repetitions of the nominal ms of `op`,
        or of all its operations for ``"total"``."""
        slots = range(len(OPS)) if op == "total" else [OPS.index(op)]
        width = 2 * len(OPS)
        out = {}
        for item, flat in self.reps.items():
            ms = []
            for r in range(0, len(flat), width):
                parts = [(flat[r + 2 * i], flat[r + 2 * i + 1]) for i in slots]
                if not any(math.isnan(t) for t, _ in parts):
                    ms.append(sum(self.cal.scale(t, int(k))
                                  for t, k in parts) * 1e3)
            if ms:
                out[item] = statistics.median(ms)
        return out


# ---------------------------------------------------------------------------
# calls into the layers shared by the workloads

def evaluate(cf, tr, traced_run, m, sig):
    """The final decomposition: from `run` in end-to-end runs.  Traced runs
    drive `step` themselves, counting steps and, when tracing, the largest
    configuration."""
    ev = cf.eval
    if not traced_run:
        return ev.run(m, sig, MAX_STEPS).final
    steps, most = 0, term_nodes(cf, m) if tr.active else 0
    while (nxt := tr.call("eval.step", ev.step, m, sig)) is not None:
        m, steps = nxt, steps + 1
        if steps > MAX_STEPS:
            raise ev.MaxStepsExceeded(f"no terminal within {MAX_STEPS} steps")
        if tr.active:
            most = max(most, term_nodes(cf, m))
    tr.count("eval.steps", steps)
    tr.counts["eval.max_term_nodes"] = max(tr.counts["eval.max_term_nodes"],
                                           most)
    return tr.call("eval.decompose", ev.decompose, m, sig)


def denote_json(cf, tr, m, sig):
    """The denotation as `cateff denote --json` prints it."""
    tree = tr.call("denote.denote_computation", cf.denote.denote_computation,
                   (), m, (), sig)
    js = tr.call("freemodel.tree_to_json", cf.freemodel.tree_to_json, tree)
    tr.count("freemodel.leaves", count_leaves(js))
    return js


def compose_fold(cf, tr, rec, presentation, path, expected):
    """Fold `compose` over a path in a freshly built category, so that its
    normalization cache starts cold; the result must be `expected`."""
    cat = tr.call("grading.build_category", cf.grading.build_category,
                  *presentation)

    def fold():
        g = cat.identity(cat.generators[path[0]].dom)
        for name in path:
            g = cf.grading.compose(g, cat.morphism((name,)))
        return str(g)

    try:
        rec.op("compose", lambda: tr.call("grading.compose_fold", fold),
               lambda got: None if got == expected
               else f"fold gave {got}, not {expected}")
    except Failed:
        pass


def conformed(results):
    bad = [r.name for r in results if not r.passed]
    return f"violation {bad[0]}" if bad else None


# ---------------------------------------------------------------------------
# chain_handled and branching_denote: generated files

def final_problem(cf, final, expected):
    ev = cf.eval
    if expected.final_op is not None:
        if isinstance(final, ev.OpAtTop) and final.op == expected.final_op:
            return None
        return f"run did not stop at {expected.final_op}"
    if isinstance(final, ev.Terminal) and not final.weakens \
            and value_json(cf, final.value) == expected.final_value:
        return None
    return "wrong final value"


def process_case(cf, tr, rec, case, traced_run):
    """check, run, denote and conform one generated file."""
    expected = case.expected

    def check():
        bundle = tr.call("parser.parse_bundle", cf.parser.parse_bundle,
                         case.text)
        return bundle, tr.call("typecheck.check_bundle",
                               cf.typecheck.check_bundle, bundle)

    def judged(out):
        for name, e in expected.items():
            j = out[1].get(name)
            if j is None or (str(j.result_type), str(j.grade)) \
                    != (e.type, e.grade):
                return f"wrong judgement for {name}"
        return None

    def ran(out):
        for name, final in out.items():
            if wrong := final_problem(cf, final, expected[name]):
                return f"{name}: {wrong}"
        return None

    def denoted(out):
        for name, js in out.items():
            if gen.digest(js) != expected[name].tree_digest:
                return f"{name}: wrong denotation"
            if count_leaves(js) != expected[name].leaves:
                return f"{name}: wrong leaf count"
        return None

    rec.begin_item(case.id, case.size)
    try:
        bundle, _ = rec.op("check", check, judged)
    except Failed:
        rec.skip(OPS[1:], "check failed")
        return
    progs = bundle.programs
    for name, fn, chk in (
            ("run", lambda: {n: evaluate(cf, tr, traced_run, p.body,
                                         p.signature)
                             for n, p in progs.items()}, ran),
            ("denote", lambda: {n: denote_json(cf, tr, p.body, p.signature)
                                for n, p in progs.items()}, denoted),
            ("conform", lambda: tr.call(
                "conformance.run_conformance",
                cf.conformance.run_conformance, bundle,
                seed=case.corpus_seed, count=CONFORM_COUNT,
                depth=CONFORM_DEPTH, max_steps=MAX_STEPS).results,
             conformed)):
        try:
            rec.op(name, fn, chk)
        except Failed:
            pass
    rec.end_item()


class CaseWorkload:
    """Generated files at a size s and at 2s.  The loop alternates the two
    sizes and cycles through a pool of POOL files per size, so every file is
    processed several times in a run."""

    p50_class = "2s"

    def __init__(self, make, ns):
        self.make, self.ns = make, ns

    def setup(self, cf, seed):
        for presentation in gen.CHAIN_CATEGORIES:
            cf.grading.build_category(*presentation)
        pool = [[self.make(seed, i, n) for i in range(POOL)] for n in self.ns]
        self.sizes = tuple(cases[0].size for cases in pool)
        return pool

    def size_class(self, size):
        return {self.sizes[0]: "s", self.sizes[1]: "2s"}.get(size)

    def items(self, cf, pool, rec):
        """The closed loop of the end-to-end run, one file per step."""
        for i in itertools.count():
            for cases in pool:
                process_case(cf, NullTracer(), rec, cases[i % POOL],
                             traced_run=False)
                yield

    def traced_pass(self, cf, pool, tr, rec):
        for cases in pool:
            for case in cases[:TRACE_CASES]:
                tr.set_item(case.id)
                compose_fold(cf, tr, rec, gen.CHAIN_CATEGORIES[0],
                             case.word, case.normal_form)
                process_case(cf, tr, rec, case, traced_run=True)


# ---------------------------------------------------------------------------
# conform_corpus: generated terms over the shipped theories

def load_theories(cf, tr, texts):
    bundles = {}
    for theory in gen.THEORIES:
        bundle = tr.call("parser.parse_bundle", cf.parser.parse_bundle,
                         texts[theory], theory)
        tr.call("typecheck.check_bundle", cf.typecheck.check_bundle, bundle)
        bundles[theory] = bundle
    return bundles


def process_term(cf, tr, rec, item, m, sig, unit, traced_run):
    """check, run, denote and conform one generated term."""
    ev, conf = cf.eval, cf.conformance

    def checked(out):
        ty, g = out
        if unit and not (str(ty) == "1" and g.is_identity):
            return "unit program not judged 1 at an identity"
        return None

    def ran(final):
        # a unit program may stop at an identity-graded operation
        if unit and isinstance(final, ev.Terminal) \
                and value_json(cf, final.value) != "*":
            return "unit program ended in a value other than ()"
        return None

    def denoted(js):
        # the denotation must agree with where the run ended
        if isinstance(final, ev.Terminal) and not final.weakens:
            want = gen.leaf_json(final.obj, value_json(cf, final.value))
            return None if js == want else "denotation differs from the run"
        if isinstance(final, ev.OpAtTop) and "node" in js \
                and js["node"]["op"] != final.op:
            return "denotation root differs from the run"
        return None

    def conform():
        if unit:
            return [tr.call("conformance.adequacy", conf.verify_adequacy,
                            m, sig, MAX_STEPS)]
        return [tr.call("conformance.lemma_shapes", conf.verify_lemma_shapes,
                        m, sig, MAX_STEPS),
                tr.call("conformance.soundness",
                        conf.verify_soundness_along_trace, m, sig, MAX_STEPS)]

    rec.begin_item(item, term_nodes(cf, m))
    try:
        rec.op("check", lambda: tr.call(
            "typecheck.grade_of_computation",
            cf.typecheck.grade_of_computation, (), m, sig), checked)
    except Failed:
        rec.skip(OPS[1:], "check failed")
        return
    try:
        final = rec.op("run", lambda: evaluate(cf, tr, traced_run, m, sig),
                       ran)
    except Failed:
        final = None
    for name, fn, chk in (
            ("denote", lambda: denote_json(cf, tr, m, sig), denoted),
            ("conform", conform, conformed)):
        try:
            rec.op(name, fn, chk)
        except Failed:
            pass
    rec.end_item()


class CorpusWorkload:
    """Seeded corpora over every signature of the four shipped theories.
    The loop cycles through CORPUS_ROUNDS rounds, so every term is processed
    several times in a run; each round loads the theories afresh and draws
    its corpora, as `cateff conform` does per file."""

    p50_class = None

    def size_class(self, size):
        if CORPUS_BUCKET <= size < 2 * CORPUS_BUCKET:
            return "s"
        if 2 * CORPUS_BUCKET <= size < 4 * CORPUS_BUCKET:
            return "2s"
        return None

    def setup(self, cf, seed):
        texts = {t: (THEORY_DIR / f"{t}.ceff").read_text(encoding="utf-8")
                 for t in gen.THEORIES}
        bundles = load_theories(cf, NullTracer(), texts)
        categories = {name: (cat.name, cat.objects,
                             tuple(cat.generators.values()), cat.rules)
                      for b in bundles.values()
                      for name, cat in b.categories.items()}
        return SimpleNamespace(
            seed=seed, texts=texts, categories=categories,
            signatures={t: list(b.signatures) for t, b in bundles.items()},
            walks=gen.category_walks(seed, texts))

    def _round(self, cf, state, tr, rec, round_, traced_run):
        """Load, generate and process one round, one term per step."""
        conf = cf.conformance
        try:
            bundles = rec.op("load",
                             lambda: load_theories(cf, tr, state.texts))
        except Failed:
            return
        for batch in gen.corpus_batches(state.seed, round_, state.signatures,
                                        CORPUS_COUNT, CORPUS_DEPTH):
            bundle = bundles[batch.theory]
            sig = bundle.signatures[batch.signature]

            def generate():
                terms = tr.call(
                    "conformance.generate", conf.generate_wellgraded_terms,
                    sig, batch.seed, batch.count, batch.depth,
                    tuple(bundle.handlers.values()))
                units = tr.call(
                    "conformance.generate", conf.generate_unit_programs,
                    sig, batch.seed + 1, max(batch.count // 4, 1),
                    batch.depth)
                tr.count("conformance.terms", len(terms) + len(units))
                return [(m, False) for m in terms] + [(m, True) for m in units]

            try:
                terms = rec.op("generate", generate)
            except Failed:
                continue
            for index, (m, unit) in enumerate(terms):
                item = (f"{round_}/{batch.theory}/{batch.signature}/"
                        f"{batch.depth}/{index}")
                tr.set_item(item)
                process_term(cf, tr, rec, item, m, sig, unit, traced_run)
                yield

    def items(self, cf, state, rec):
        """The closed loop of the end-to-end run, one term per step."""
        for round_ in itertools.count():
            yield from self._round(cf, state, NullTracer(), rec,
                                   round_ % CORPUS_ROUNDS, traced_run=False)

    def traced_pass(self, cf, state, tr, rec):
        for walk in state.walks:
            tr.set_item(f"walk/{walk.category}")
            compose_fold(cf, tr, rec, state.categories[walk.category],
                         walk.path, walk.normal_form)
        for _ in self._round(cf, state, tr, rec, 0, traced_run=True):
            pass


WORKLOADS = {
    "chain_handled": lambda: CaseWorkload(gen.chain_case,
                                          (CHAIN_N, 2 * CHAIN_N)),
    "branching_denote": lambda: CaseWorkload(gen.branching_case,
                                             (BRANCH_N, BRANCH_N + 1)),
    "conform_corpus": CorpusWorkload,
}


# ---------------------------------------------------------------------------
# metrics

def per_second(count, ms):
    """A rate; 0 when nothing was timed, as when every operation failed."""
    return count / ms * 1e3 if ms > 0 else 0.0


def growth(by_class):
    """log2 of the median at size 2s over the median at size s."""
    s, s2 = by_class.get("s"), by_class.get("2s")
    if not s or not s2 or statistics.median(s) <= 0:
        return 0.0
    return math.log2(statistics.median(s2) / statistics.median(s))


def end_to_end(workload, rec, setup_times):
    """The end-to-end metrics, each with its sample count: the number of
    items, each timed as the median over its repetitions."""
    def items_ms(op, cls):
        return [ms for item, ms in rec.per_item(op).items()
                if cls is None or workload.size_class(rec.sizes[item]) == cls]

    metrics = {"setup_s": statistics.median(setup_times)}
    samples = {"setup_s": len(setup_times)}
    for op in OPS:
        ms = items_ms(op, workload.p50_class)
        metrics[f"{op}_p50_ms"] = statistics.median(ms) if ms else 0.0
        samples[f"{op}_p50_ms"] = len(ms)
    ms = items_ms("conform", workload.p50_class)
    metrics["conform_p99_ms"] = statistics.quantiles(
        ms, n=100, method="inclusive")[98] if len(ms) > 1 else 0.0
    samples["conform_p99_ms"] = len(ms)
    by_class = {cls: items_ms("total", cls) for cls in ("s", "2s")}
    metrics["scaling_exponent"] = growth(by_class)
    samples["scaling_exponent"] = len(by_class["s"]) + len(by_class["2s"])
    totals = rec.per_item("total")
    metrics["programs_per_s"] = per_second(len(totals), sum(totals.values()))
    samples["programs_per_s"] = len(totals)
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples["peak_rss_mb"] = 1
    return metrics, samples


def pass_metrics(workload, tr, rec, scale):
    """Per-layer metrics of one traced pass; `scale` turns its measured
    times into nominal ones."""
    self_ns = tr.self_times()
    by_name = defaultdict(int)
    for (name, _), ns in self_ns.items():
        by_name[name] += ns

    def ms(*names):
        return sum(by_name[n] for n in names) / 1e6 * scale

    def layer_ms(layer):
        return sum(ns for n, ns in by_name.items()
                   if n.startswith(layer + ".")) / 1e6 * scale

    def layer_growth(layer):
        per_item = defaultdict(int)
        for (name, item), ns in self_ns.items():
            if name.startswith(layer + ".") and item in rec.sizes:
                per_item[item] += ns
        by_class = defaultdict(list)
        for item, ns in per_item.items():
            by_class[workload.size_class(rec.sizes[item])].append(ns)
        return growth(by_class)

    c = tr.counts
    eval_ms = ms("eval.step", "eval.decompose", "eval.continuation_grade")
    parse_ms = ms("parser.parse_bundle", "parser.tokenize")
    return {
        "parser.parse_ms": parse_ms,
        "parser.tokens_per_s": per_second(c["parser.tokens"], parse_ms),
        "grading.validate_ms": ms("grading.build_category"),
        "grading.compose_ms": ms("grading.compose_fold"),
        "typecheck.check_ms": layer_ms("typecheck"),
        "typecheck.growth": layer_growth("typecheck"),
        "eval.decompose_ms": ms("eval.decompose"),
        "eval.cont_grade_ms": ms("eval.continuation_grade"),
        "eval.rule_ms": ms("eval.step"),
        "eval.steps": c["eval.steps"],
        "eval.steps_per_s": per_second(c["eval.steps"], eval_ms),
        "eval.growth": layer_growth("eval"),
        "eval.max_term_nodes": c["eval.max_term_nodes"],
        "denote.denote_ms": layer_ms("denote"),
        "denote.leaves_per_s": per_second(c["freemodel.leaves"],
                                          layer_ms("denote")),
        "denote.growth": layer_growth("denote"),
        "freemodel.leaves": c["freemodel.leaves"],
        "freemodel.to_json_ms": ms("freemodel.tree_to_json"),
        "conformance.generate_ms": ms("conformance.generate"),
        "conformance.soundness_ms": ms("conformance.soundness"),
        "conformance.lemma_shapes_ms": ms("conformance.lemma_shapes"),
        "conformance.adequacy_ms": ms("conformance.adequacy"),
        "conformance.terms": c["conformance.terms"],
        "trace.layers_ms": sum(layer_ms(layer) for layer in LAYERS),
        "trace.bench_ms": ms("bench.pass"),
    }


def install_spans(cf, tr):
    """Spans around the calls cateff makes inside the calls the benchmark
    traces: tokenizing and category loading inside parsing, decomposition
    and continuation grades inside a step, and the checks a conformance
    run makes."""
    def tokens(result):
        tr.count("parser.tokens", len(result))

    def terms(result):
        tr.count("conformance.terms", len(result))

    parse, step = {"parser.parse_bundle"}, {"eval.step"}
    conform = {"conformance.run_conformance"}
    tr.patch(cf.parser, "tokenize", "parser.tokenize", parse, tokens)
    tr.patch(cf.parser, "build_category", "grading.build_category", parse)
    tr.patch(cf.eval, "decompose", "eval.decompose", step)
    tr.patch(cf.eval, "continuation_grade", "eval.continuation_grade", step)
    conf = cf.conformance
    tr.patch(conf, "check_bundle", "typecheck.check_bundle", conform)
    tr.patch(conf, "verify_soundness_along_trace", "conformance.soundness",
             conform)
    tr.patch(conf, "verify_lemma_shapes", "conformance.lemma_shapes", conform)
    tr.patch(conf, "verify_adequacy", "conformance.adequacy", conform)
    tr.patch(conf, "generate_wellgraded_terms", "conformance.generate",
             conform, terms)
    tr.patch(conf, "generate_unit_programs", "conformance.generate",
             conform, terms)


def timed_pass(workload, cf, state, rec, tr=None):
    """One pass over the traced run's inputs; returns its nominal seconds
    and the factor from measured to nominal time."""
    first = rec.cal.sample(force=True)
    if tr is None:
        t0 = time.perf_counter()
        workload.traced_pass(cf, state, NullTracer(), rec)
        wall = time.perf_counter() - t0
    else:
        install_spans(cf, tr)
        try:
            tr.call("bench.pass", workload.traced_pass, cf, state, tr, rec)
        finally:
            tr.unpatch()
        _, start, end, _, _ = tr.spans[0]
        wall = (end - start) / 1e9
    scale = rec.cal.scale(1.0, first, rec.cal.sample(force=True))
    return wall * scale, scale


def traced_run(workload, cf, state, cal, seconds, out_path):
    """After one warm-up pass, alternate untraced and traced passes, each
    going first in turn, until `seconds` have passed.  The per-layer
    metrics are those of the traced pass of median wall time; the overhead
    is its wall time minus the median untraced one."""
    deadline = time.perf_counter() + seconds
    rec = Record(cal)
    timed_pass(workload, cf, state, rec)
    untraced, traced, counts = [], [], None
    while not traced or time.perf_counter() < deadline:
        order = (None, Tracer()) if len(traced) % 2 == 0 else (Tracer(), None)
        for tr in order:
            pass_rec = Record(cal)
            wall, scale = timed_pass(workload, cf, state, pass_rec, tr)
            rec.merge(pass_rec)
            if tr is None:
                untraced.append(wall)
                continue
            traced.append((wall, pass_metrics(workload, tr, pass_rec, scale),
                           tr))
            exact = {k: tr.counts[k] for k in EXACT_COUNTS}
            if counts is not None:
                rec.attempted += 1
                if exact != counts:
                    rec.fail("trace", "exact counts differ between passes")
            counts = exact
    traced.sort(key=lambda t: t[0])
    wall, metrics, tr = traced[(len(traced) - 1) // 2]
    metrics["trace.traced_ms"] = wall * 1e3
    metrics["trace.untraced_ms"] = statistics.median_low(untraced) * 1e3
    metrics["trace.overhead_ms"] = \
        metrics["trace.traced_ms"] - metrics["trace.untraced_ms"]
    OUT_DIR.mkdir(exist_ok=True)
    tr.write(out_path)
    return metrics, len(traced), rec


def setup_once(workload, seed, cal):
    """Import cateff, generate the inputs and load the categories; returns
    (seconds, kernel time index), cateff's modules and the inputs."""
    kernel = cal.sample(force=True)
    t0 = time.perf_counter()
    cf = load_cateff()
    state = workload.setup(cf, seed)
    return (time.perf_counter() - t0, kernel), cf, state


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cateff" / "__init__.py").is_file():
        print(f"error: no cateff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload, cal = WORKLOADS[args.workload](), Calibrator()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        timing, cf, state = setup_once(workload, args.seed, cal)
        setup_times.append(timing)

    if args.trace:
        out_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        values, n_passes, rec = traced_run(workload, cf, state, cal,
                                           args.seconds, out_path)
        units = LAYER_UNITS
        samples = {name: n_passes for name in values}
        print(f"# median of {n_passes} traced passes; its spans are in "
              f"{out_path}")
    else:
        # set-up is repeated through the run as well, so that its median
        # is taken over the same stretch of time as the other metrics
        rec = Record(cal)
        items = workload.items(cf, state, rec)
        t0 = time.perf_counter()
        deadline, next_setup = t0 + args.seconds, t0 + SETUP_EVERY_S
        while (now := time.perf_counter()) < deadline:
            if now >= next_setup:
                setup_times.append(setup_once(workload, args.seed, cal)[0])
                next_setup += SETUP_EVERY_S
            next(items)
        cal.finish()
        values, samples = end_to_end(
            workload, rec, [cal.scale(*t) for t in setup_times])
        units = E2E_UNITS
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit} (n={samples[name]})")
    print(f"failed_ratio = {rec.failed}/{rec.attempted}")
    for cause, n in sorted(rec.causes.items()):
        print(f"failure: {cause} x{n}")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": max(rec.attempted, 1),
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
