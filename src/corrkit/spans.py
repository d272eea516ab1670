"""Spans, their homotopy category, coproducts, and tensor edges.

A span X <- W -> Y with its right leg in E is a morphism from X to Y;
composition pulls back the middle cospan.  Morphisms of the homotopy
category are isomorphism classes of all the spans the carrier holds; a
composite the carrier cannot form raises `ResourceLimitError`, never a
silent truncation.
"""

from __future__ import annotations

import itertools

from .fincat import (
    FinCategory,
    FunctorData,
    _group,
    canonical_coproduct,
    verify_product,
)
from .report import MalformedInputError, VerificationReport
from .setups import GeometricSetup


class Span:
    """left: W -> X (unrestricted), right: W -> Y (in E); apex shared.

    A value: equal, hashed and ordered as the pair (left, right)."""

    def __init__(self, left: str, right: str):
        self.left, self.right = left, right

    def __eq__(self, other) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    def __lt__(self, other) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return (self.left, self.right) < (other.left, other.right)

    @property
    def name(self) -> str:
        """`[left;right]`: the id of the span's class when it is the class's representative."""
        return f"[{self.left};{self.right}]"


def span_apex(c: FinCategory, s: Span) -> str:
    a = c.src(s.left)
    if c.src(s.right) != a:
        raise MalformedInputError(f"legs {s.left!r}, {s.right!r} do not share an apex")
    return a


def span_feet(c: FinCategory, s: Span) -> tuple[str, str]:
    return c.dst(s.left), c.dst(s.right)


def identity_span(c: FinCategory, x: str) -> Span:
    return Span(c.identity[x], c.identity[x])


def compose_spans(s: GeometricSetup, a: Span, b: Span) -> Span:
    """a then b: pull back the cospan (a.right, b.left), whiskering the legs."""
    c = s.category
    if c.dst(a.right) != c.dst(b.left):
        raise MalformedInputError("spans are not composable")
    apex, p, q = s.pullback(a.right, b.left)
    return Span(c.comp(a.left, p), c.comp(b.right, q))


def span_class_key(c: FinCategory, s: Span):
    """A complete isomorphism invariant.

    Over an all-function carrier the multiset of leg-value pairs classifies
    a span up to iso; elsewhere the key is the lexicographically least
    member of the iso class, found by exhaustive search.
    """
    x, y = span_feet(c, s)
    if c.object_size is not None:
        values = c.function_values
        return (x, y, tuple(sorted(zip(values[s.left], values[s.right]))))
    best = (s.left, s.right)
    w = span_apex(c, s)
    for v in c.objects:
        for h in c.hom(v, w):
            if h not in c.iso_ids:
                continue
            cand = (c.comp(s.left, h), c.comp(s.right, h))
            if cand < best:
                best = cand
    return (x, y, best)


def spans_between(s: GeometricSetup, x: str, y: str, max_apex: int | None = None) -> list[Span]:
    """All spans x -> y; given `max_apex`, only those whose apex has at
    most that many elements, on a carrier that declares sizes."""
    c = s.category
    out = []
    for w in c.objects:
        if max_apex is not None and c.object_size is not None and c.object_size[w] > max_apex:
            continue
        for g in c.hom(w, x):
            for f in c.hom(w, y):
                if f in s.e.members:
                    out.append(Span(g, f))
    return out


class HCorr:
    """Lazy homotopy span category: iso classes of spans.

    Class ids name the canonical (least) representative: its `Span.name`.
    `class_id` finds the class of any other span, and a span no class holds
    (no isomorphic span has its right leg in E) is malformed.  Composition
    of classes composes representatives, so a cospan the carrier has no
    pullback for raises the oracle's ResourceLimitError.
    """

    def __init__(self, setup: GeometricSetup):
        self.setup = setup
        self._classes: dict[tuple[str, str], dict] = {}

    def classes(self, x: str, y: str) -> dict:
        """key -> (representative Span, member list) for spans x -> y."""
        if (x, y) not in self._classes:
            c = self.setup.category
            table: dict = {}
            for sp in spans_between(self.setup, x, y):
                key = span_class_key(c, sp)
                rep, members = table.get(key, (sp, []))
                members.append(sp)
                table[key] = (min(rep, sp), members)
            self._classes[(x, y)] = table
        return self._classes[(x, y)]

    def class_id(self, sp: Span) -> str:
        c = self.setup.category
        x, y = span_feet(c, sp)
        key = span_class_key(c, sp)
        table = self.classes(x, y)
        if key not in table:
            raise MalformedInputError(
                f"span ({sp.left!r}, {sp.right!r}) lies in no class: no span isomorphic to it has a marked right leg"
            )
        return table[key][0].name

    def identity_id(self, x: str) -> str:
        return self.class_id(identity_span(self.setup.category, x))

    def compose_reps(self, a: Span, b: Span) -> str:
        return self.class_id(compose_spans(self.setup, a, b))

    def category(self) -> FinCategory:
        """Materialize the full category; every class pair must compose."""
        c = self.setup.category
        reps = [r for x in c.objects for y in c.objects for r, _ in self.classes(x, y).values()]
        morphisms = {r.name: span_feet(c, r) for r in reps}
        identity = {x: self.identity_id(x) for x in c.objects}
        compose = {
            (g.name, f.name): self.compose_reps(f, g)
            for g in reps
            for f in reps
            if c.dst(f.right) == c.dst(g.left)
        }
        return FinCategory(tuple(c.objects), morphisms, identity, compose)


def homotopy_category(s: GeometricSetup) -> FinCategory:
    return HCorr(s).category()


def check_span_laws(s: GeometricSetup, feet, apex_bound: int = 2) -> VerificationReport:
    """Associativity up to apex iso on every composable triple of bounded
    spans whose composites stay in the carrier, and the unit laws on every
    bounded span.  Triples escaping the carrier are counted, not asserted.
    """
    rep = VerificationReport("span-laws")
    c = s.category
    feet = tuple(feet)
    spans = {
        (x, y): spans_between(s, x, y, apex_bound) for x in feet for y in feet
    }

    def not_unital(case):
        x, y, sp = case
        lhs = compose_spans(s, identity_span(c, x), sp)
        rhs = compose_spans(s, sp, identity_span(c, y))
        key = span_class_key(c, sp)
        if span_class_key(c, lhs) != key or span_class_key(c, rhs) != key:
            return {"span": [sp.left, sp.right]}

    cases = ((x, y, sp) for (x, y), sps in spans.items() for sp in sps)
    rep.sweep("unit-laws", cases, not_unital, anchor="span-unit")

    def not_associative(triple):
        a, b, d = triple
        lhs = compose_spans(s, compose_spans(s, a, b), d)
        rhs = compose_spans(s, a, compose_spans(s, b, d))
        if span_class_key(c, lhs) != span_class_key(c, rhs):
            return {"triple": [[a.left, a.right], [b.left, b.right], [d.left, d.right]]}

    quads = itertools.product(feet, repeat=4)
    triples = itertools.chain.from_iterable(
        itertools.product(spans[(x, y)], spans[(y, z)], spans[(z, t)]) for x, y, z, t in quads
    )
    rep.sweep(
        "associativity-up-to-iso",
        triples,
        not_associative,
        anchor="span-associativity",
        counts=lambda total, covered: {"triples": total, "covered": covered},
    )
    return rep


# -- correspondence simplices --------------------------------------------


class CorrSimplex:
    def __init__(self, n: int, functor: FunctorData):
        self.n, self.functor = n, functor


def corr_simplices(s: GeometricSetup, n: int) -> list[CorrSimplex]:
    """All n-cells: functors from the staircase with vertical relations in E
    and exact squares cartesian, ordered by their objects' positions in
    vertex order, then by the hom-set positions of their covering edges,
    taken in name order (the order of the vertex pairs).

    A cell is constructed from its spine (the Segal condition): an object at
    each (i, i), a span with its right leg in E at each (i, i+1), and at each
    higher (i, j) a pullback cone (`GeometricSetup.cones`) of the cospan at
    (i+1, j-1).  Every rectangle pastes from those unit squares, so it is
    cartesian; a cell with a vertical relation outside E is dropped."""
    from .grid import c_of_simplex, cp_name, cposet_elements, cposet_leq

    if not 0 <= n <= 2:
        raise MalformedInputError(f"need 0 <= n <= 2, got {n}")
    c = s.category
    spans = {(x, y): spans_between(s, x, y) for x in c.objects for y in c.objects}

    def extensions(i: int, j: int, objs: dict, edges: dict):
        """(object at (i, j), its covering edges) for each way to place it."""
        if i == j:
            return [(x, {}) for x in c.objects]
        if j == i + 1:
            feet = (objs[(i, i)], objs[(j, j)])
            return [(c.src(sp.left), {((i, j), (i, i)): sp.left, ((i, j), (j, j)): sp.right}) for sp in spans[feet]]
        cones = s.cones(edges[((i, j - 1), (i + 1, j - 1))], edges[((i + 1, j), (i + 1, j - 1))])
        return [(apex, {((i, j), (i, j - 1)): p, ((i, j), (i + 1, j)): q}) for apex, p, q in cones]

    vertices = cposet_elements(n)
    partial = [({}, {})]
    for i, j in sorted(vertices, key=lambda v: v[1] - v[0]):
        partial = [
            ({**objs, (i, j): x}, {**edges, **placed})
            for objs, edges in partial
            for x, placed in extensions(i, j, objs, edges)
        ]

    def relation(objs: dict, edges: dict, a: tuple[int, int], b: tuple[int, int]) -> str:
        """The composite along covering edges: down to b's row, then across."""
        m = c.identity[objs[a]]
        while a != b:
            step = (a[0] + 1, a[1]) if a[0] < b[0] else (a[0], a[1] - 1)
            m, a = c.comp(edges[(a, step)], m), step
        return m

    source = c_of_simplex(n)
    relations = [(a, b, f"{cp_name(a)}<={cp_name(b)}") for a in vertices for b in vertices if cposet_leq(a, b)]
    vertical = [name for a, b, name in relations if a[1] == b[1] and a[0] < b[0]]
    obj_pos = {x: k for k, x in enumerate(c.objects)}
    keyed = []
    for objs, edges in partial:
        mor_map = {name: relation(objs, edges, a, b) for a, b, name in relations}
        if any(mor_map[name] not in s.e.members for name in vertical):
            continue
        # edges between the same objects compare by id, as their hom-set
        # positions do
        key = (tuple(obj_pos[objs[v]] for v in vertices), tuple(edges[e] for e in sorted(edges)))
        obj_map = {cp_name(v): objs[v] for v in vertices}
        keyed.append((key, CorrSimplex(n, FunctorData(source, c, obj_map, mor_map))))
    keyed.sort(key=lambda kc: kc[0])
    return [cs for _, cs in keyed]


# -- coproducts in the homotopy category ----------------------------------


def check_coproduct(s: GeometricSetup, x: str, y: str, targets=None) -> VerificationReport:
    """The categorical coproduct of x and y, included by spans with identity
    left legs, must satisfy the coproduct universal property in the homotopy
    category: every pair of classes (x -> t, y -> t) with apexes of at most
    two elements factors through exactly one mediating class.
    """
    rep = VerificationReport("span-coproduct")
    c = s.category
    hc = HCorr(s)

    cop = canonical_coproduct(c, [x, y])
    rep.add("carrier-coproduct-exists", cop is not None, {} if cop else {"pair": [x, y]}, anchor="span-coproduct")
    if cop is None:
        return rep
    apex, (ix, iy) = cop

    legal = ix in s.e.members and iy in s.e.members
    rep.add(
        "inclusion-spans-marked",
        legal,
        {} if legal else {"legs": [ix, iy], "class": sorted(s.e.members)[:4]},
        anchor="span-coproduct-inclusions",
    )
    if not legal:
        return rep

    iota_x = Span(c.identity[x], ix)
    iota_y = Span(c.identity[y], iy)

    def pairs_into(t):
        """(t, routing, u, v) per pair of small-apex classes u: x -> t, v: y -> t;
        routing maps a pair to the representatives of the classes apex -> t
        that restrict to it."""
        reps = (rep_w for rep_w, _ in hc.classes(apex, t).values())
        routing = _group(reps, lambda w: (hc.compose_reps(iota_x, w), hc.compose_reps(iota_y, w)))
        small = [[r.name for r, _ in hc.classes(z, t).values() if _span_apex_size(c, r) <= 2] for z in (x, y)]
        return ((t, routing, u, v) for u, v in itertools.product(*small))

    def not_unique(case):
        t, routing, u, v = case
        mediators = [w.name for w in routing.get((u, v), ())]
        if len(mediators) != 1:
            return {"target": t, "pair": [u, v], "mediators": mediators}

    pairs = itertools.chain.from_iterable(map(pairs_into, targets if targets is not None else c.objects))
    rep.sweep(
        "mediator-exists-unique",
        pairs,
        not_unique,
        anchor="span-coproduct-mediators",
        counts=lambda checked, _: {"pairs": checked},
    )
    return rep


def _span_apex_size(c: FinCategory, sp: Span) -> int:
    w = span_apex(c, sp)
    return 0 if c.object_size is None else c.object_size[w]


# -- tensor layer ---------------------------------------------------------


class TensorEdge:
    """An edge of the tensor layer over a pointed index map alpha.

    alpha maps source slots 1..m to target slots 1..n or to the basepoint 0.
    Per target slot i: an object y with maps to each source object in the
    fiber of i and one map to the target object.
    """

    def __init__(
        self,
        category: FinCategory,
        alpha: tuple[int, ...],
        sources: tuple[str, ...],
        targets: tuple[str, ...],
        apexes: tuple[str, ...],
        to_sources: dict[tuple[int, int], str],
        to_targets: tuple[str, ...],
    ):
        self.category, self.alpha, self.sources, self.targets = category, alpha, sources, targets
        self.apexes = apexes
        self.to_sources = to_sources  # (target slot i, source slot j) -> y_i -> x_j
        self.to_targets = to_targets  # y_i -> z_i
        m, n = len(self.sources), len(self.targets)
        if len(self.alpha) != m or any(not 0 <= v <= n for v in self.alpha):
            raise MalformedInputError("alpha is not a pointed map of the declared arities")
        if len(self.apexes) != n or len(self.to_targets) != n:
            raise MalformedInputError("one apex and target map per target slot")
        c = self.category
        for i in range(1, n + 1):
            fiber = [j for j in range(1, m + 1) if self.alpha[j - 1] == i]
            declared = sorted(j for (i2, j) in self.to_sources if i2 == i)
            if declared != fiber:
                raise MalformedInputError(f"span data at slot {i} does not match alpha's fiber")
            y = self.apexes[i - 1]
            if c.morphisms[self.to_targets[i - 1]] != (y, self.targets[i - 1]):
                raise MalformedInputError(f"target map at slot {i} mistyped")
            for j in fiber:
                if c.morphisms[self.to_sources[(i, j)]] != (y, self.sources[j - 1]):
                    raise MalformedInputError(f"source map ({i},{j}) mistyped")


def classify_cocartesian(s: GeometricSetup, e: TensorEdge) -> VerificationReport:
    """coCartesian iff each apex-to-target map is an isomorphism and each
    apex is the product of its fiber, by the exhaustive universal property."""
    rep = VerificationReport("cocartesian-edge")
    c = s.category

    def not_iso(slot):
        i, m = slot
        if m not in c.iso_ids:
            return {"slot": i, "map": m}

    rep.sweep("target-maps-iso", enumerate(e.to_targets, start=1), not_iso, anchor="cocartesian-iso-leg")

    def not_product(i):
        fiber = [j for j in range(1, len(e.sources) + 1) if e.alpha[j - 1] == i]
        legs = tuple(e.to_sources[(i, j)] for j in fiber)
        factors = tuple(e.sources[j - 1] for j in fiber)
        if not verify_product(c, e.apexes[i - 1], legs, factors):
            return {"slot": i, "apex": e.apexes[i - 1], "factors": list(factors)}

    rep.sweep("apex-is-fiber-product", range(1, len(e.targets) + 1), not_product, anchor="cocartesian-product")
    return rep


def is_cocartesian(s: GeometricSetup, e: TensorEdge) -> bool:
    return classify_cocartesian(s, e).passed
