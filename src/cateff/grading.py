"""Finitely presented grading categories with decidable morphism equality.

A category is presented by objects, named generators and oriented rewrite
rules between generator paths.  Morphisms are kept in normal form (leftmost
rewriting to a fixpoint), so equality is string equality of paths.  Loading
checks that each rule decreases in one shortlex order and joins every critical
pair, so normal forms exist and are unique (Newman's lemma).  Wide generators
generate a subcategory, which functors must keep.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product


class GradingError(Exception):
    """Grading category construction/use errors."""


@dataclass(frozen=True)
class Generator:
    name: str
    dom: str
    cod: str


@dataclass(frozen=True)
class RewriteRule:
    lhs: tuple[str, ...]  # nonempty generator path
    rhs: tuple[str, ...]  # may be empty (identity), same endpoints as lhs


class GradingCategory:
    """A small category given by a finite presentation.

    Instances are immutable after construction and compare by identity;
    two structurally equal presentations built separately are distinct
    categories (their morphisms do not mix).
    """

    def __init__(self, name, objects, generators, rules=(), wide=()):
        self.name = name
        self.objects = tuple(objects)
        self.generators = {}
        for gen in generators:
            if isinstance(gen, tuple):
                gen = Generator(*gen)
            if gen.dom not in self.objects or gen.cod not in self.objects:
                raise GradingError(
                    f"generator {gen.name}: endpoint not among objects")
            if gen.name in self.generators:
                raise GradingError(f"duplicate generator {gen.name!r}")
            self.generators[gen.name] = gen
        self.rules = tuple(
            r if isinstance(r, RewriteRule) else RewriteRule(tuple(r[0]), tuple(r[1]))
            for r in rules)
        self.wide = frozenset(wide)
        for w in wide:  # declaration order picks the name reported
            if w not in self.generators:
                raise GradingError(f"wide marking on unknown generator {w!r}")
        # checking, stepping and conformance recompose the same paths again
        # and again: without this cache, `run_conformance` on perfbench's
        # `chain_case(1, 0, 48)` took 0.385 s instead of 0.249 s and `run`
        # 0.032 s instead of 0.018 s (medians of 4 runs, 2-vCPU VM)
        self._norm_cache: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._validate()

    # -- construction-time validation ------------------------------------

    def _validate(self):
        # every rule must decrease in one shortlex order, which is well-founded
        # and compatible with composition, so every rewrite sequence ends
        below: dict[str, set[str]] = {}  # generator -> those ranked below it
        for rule in self.rules:
            if not rule.lhs:
                raise GradingError("rewrite rule with empty left-hand side")
            text = f"rule {'.'.join(rule.lhs)} = {'.'.join(rule.rhs) or 'id'}"
            lhs_ends = self._path_endpoints(rule.lhs)
            if rule.rhs:
                rhs_ends = self._path_endpoints(rule.rhs)
            else:
                # identity rhs: pick up endpoints from the lhs, which must loop
                if lhs_ends[0] != lhs_ends[1]:
                    raise GradingError(f"{text} connects distinct objects")
                rhs_ends = lhs_ends
            if lhs_ends != rhs_ends:
                raise GradingError(f"{text}: sides have different endpoints")
            if len(rule.rhs) > len(rule.lhs):
                raise GradingError(f"{text} lengthens the path; write it the "
                                   "other way round")
            if len(rule.rhs) < len(rule.lhs):
                continue
            high, low = next(((x, y) for x, y in zip(rule.lhs, rule.rhs)
                              if x != y), (None, None))
            if high is None:
                raise GradingError(f"{text} rewrites a path to itself")
            if high in below.get(low, ()):
                raise GradingError(f"{text} needs {high} ranked above {low}, but "
                                   f"the rules before it rank {low} above {high}")
            for name in [high, *(g for g, gs in below.items() if high in gs)]:
                below.setdefault(name, set()).update({low, *below.get(low, ())})
        for path, left, right in self._critical_pairs():
            normals = {self.normalize(left), self.normalize(right)}
            if len(normals) > 1:
                raise GradingError(
                    f"path {'.'.join(path)} rewrites to distinct normal forms "
                    f"{sorted('.'.join(n) or 'id' for n in normals)}")
        # the all-wide normal forms are closed under composition exactly when
        # every all-wide left-hand side normalizes to an all-wide path
        for rule in self.rules:
            normal = self.normalize(rule.lhs)
            if self.wide.issuperset(rule.lhs) and not self.wide.issuperset(normal):
                raise GradingError(f"wide path {'.'.join(rule.lhs)} equals "
                                   f"{'.'.join(normal)}, which is not wide")

    def _path_endpoints(self, path):
        prev_cod = None
        for name in path:
            gen = self.generators.get(name)
            if gen is None:
                raise GradingError(f"unknown generator {name!r}")
            if prev_cod is not None and gen.dom != prev_cod:
                raise GradingError(
                    f"path {'.'.join(path)}: {name} not composable at {prev_cod}")
            prev_cod = gen.cod
        return self.generators[path[0]].dom, prev_cod

    def _critical_pairs(self):
        """Each word where two left-hand sides meet (one inside the other, or
        a suffix of one overlapping a prefix of the other), with both reducts."""
        rules = [(r.lhs, r.rhs) for r in self.rules]
        for i, (l1, r1) in enumerate(rules):
            for j, (l2, r2) in enumerate(rules):
                for p in range(len(l1) - len(l2) + 1):
                    if i != j and l1[p:p + len(l2)] == l2:
                        yield l1, r1, l1[:p] + r2 + l1[p + len(l2):]
                for k in range(1, min(len(l1), len(l2))):
                    if l1[-k:] == l2[:k]:
                        yield l1 + l2[k:], r1 + l2[k:], l1[:-k] + r2

    # -- morphisms --------------------------------------------------------

    def normalize(self, path):
        """Leftmost rewriting of a generator path to a fixpoint."""
        path = tuple(path)
        cached = self._norm_cache.get(path)
        if cached is not None:
            return cached
        current = path
        while True:
            for pos, rule in product(range(len(current)), self.rules):
                end = pos + len(rule.lhs)
                if current[pos:end] == rule.lhs:
                    current = current[:pos] + rule.rhs + current[end:]
                    break
            else:
                self._norm_cache[path] = current
                return current

    def identity(self, obj):
        if obj not in self.objects:
            raise GradingError(f"no object {obj!r} in category {self.name}")
        return Morphism(self, obj, obj, ())

    def morphism(self, path):
        """Build the morphism for a nonempty generator path."""
        path = tuple(path)
        a, b = self._path_endpoints(path)
        return Morphism(self, a, b, self.normalize(path))

    def is_wide(self, m):
        """Whether the normal form of ``m`` lies in the wide subcategory R."""
        return all(name in self.wide for name in m.path)

    def __repr__(self):
        return f"GradingCategory({self.name!r})"


@dataclass(frozen=True)
class Morphism:
    """A morphism in normal form.  Equality is path equality within one category."""
    cat: GradingCategory = field(repr=False)
    dom: str
    cod: str
    path: tuple[str, ...]

    @property
    def is_identity(self):
        return not self.path

    def __str__(self):
        if not self.path:
            return f"id({self.dom})"
        return ";".join(self.path)


def pp_path(m: Morphism) -> str:
    """``m`` as the parser reads a path: ``g.h.k`` or ``id(obj)``."""
    if m.is_identity:
        return f"id({m.dom})"
    return ".".join(m.path)


def compose(f: Morphism, g: Morphism) -> Morphism:
    """Diagrammatic composition f;g, normalized."""
    if f.cat is not g.cat:
        raise GradingError("morphisms of different categories")
    if f.cod != g.dom:
        raise GradingError(f"cod {f.cod} of {f} differs from dom {g.dom} of {g}")
    return Morphism(f.cat, f.dom, g.cod, f.cat.normalize(f.path + g.path))


class GradingFunctor:
    """A functor between finitely presented categories, given on generators."""

    def __init__(self, name, source: GradingCategory, target: GradingCategory,
                 object_map: dict, generator_map: dict):
        self.name = name
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.generator_map = {}
        for obj in source.objects:
            if obj not in self.object_map:
                raise GradingError(f"functor {name}: no image for object {obj}")
            if self.object_map[obj] not in target.objects:
                raise GradingError(
                    f"functor {name}: image {self.object_map[obj]} not in target")
        for gname, gen in source.generators.items():
            img = generator_map.get(gname)
            if img is None:
                raise GradingError(f"functor {name}: no image for generator {gname}")
            if not isinstance(img, Morphism) or img.cat is not target:
                raise GradingError(f"functor {name}: image of {gname} not a target morphism")
            if (img.dom, img.cod) != (self.object_map[gen.dom], self.object_map[gen.cod]):
                raise GradingError(
                    f"functor {name}: image of {gname} has wrong endpoints")
            if gname in source.wide and not target.is_wide(img):
                raise GradingError(
                    f"functor {name} sends wide generator {gname} to {img}, "
                    "which is not wide")
            self.generator_map[gname] = img
        self._check_rules()

    def _check_rules(self):
        for rule in self.source.rules:
            lhs = self._image_path(rule.lhs)
            rhs = self._image_path(rule.rhs)
            if lhs != rhs:
                raise GradingError(
                    f"functor {self.name} breaks rule "
                    f"{'.'.join(rule.lhs)} = {'.'.join(rule.rhs) or 'id'}")

    def _image_path(self, path):
        return self.target.normalize(
            tuple(g for name in path for g in self.generator_map[name].path))

    def apply(self, m: Morphism) -> Morphism:
        if m.cat is not self.source:
            raise GradingError(f"functor {self.name}: morphism not in source")
        return Morphism(self.target, self.object_map[m.dom],
                        self.object_map[m.cod], self._image_path(m.path))

    def __repr__(self):
        return f"GradingFunctor({self.name!r})"


def build_category(name, objects, generators, rules=(),
                   wide=()) -> GradingCategory:
    return GradingCategory(name, objects, generators, rules, wide)

