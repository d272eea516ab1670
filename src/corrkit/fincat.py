"""Explicit finite categories, functors, and limits.

A category is a set of opaque string ids plus total tables; every structural
law is decidable by exhaustive enumeration.  An all-function carrier holds
no composition table: it composes by function values, and `function_table`
builds its whole table when a reader needs one.  Object and morphism ids
carry a declared total order (tuple sort) so all derived enumerations are
deterministic.  Limits are found by universal-property search, and a
coproduct as a product in the opposite category, except that fiber products
and coproducts in an all-function carrier are constructed directly, as the
least candidate the search would return.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from .report import MalformedInputError, VerificationReport


class FinCategory:
    def __init__(
        self,
        objects: tuple[str, ...],
        morphisms: dict[str, tuple[str, str]],
        identity: dict[str, str],
        compose: dict[tuple[str, str], str] | None,
        object_size: dict[str, int] | None = None,
    ):
        self.objects = objects
        self.morphisms = morphisms  # id -> (source, target)
        self.identity = identity  # object -> identity morphism id
        # (g, f) -> g.f when dst(f) == src(g); None on an all-function
        # carrier, which composes by function values
        self.compose = compose
        # object -> cardinality, set only on a category of all functions
        # between sets of these sizes; the fiber product, coproduct,
        # span-class and frame constructions run only when it is set
        self.object_size = object_size

    def __eq__(self, other) -> bool:
        """Equal objects, morphisms and identities, and equal tables unless
        both sides are all-function carriers of the same sizes.  The table
        of an all-function carrier is its `function_table`."""
        if not isinstance(other, FinCategory):
            return NotImplemented
        if (self.objects, self.morphisms, self.identity) != (other.objects, other.morphisms, other.identity):
            return False
        if self.object_size is not None and self.object_size == other.object_size:
            return True
        mine, theirs = (c.compose if c.object_size is None else function_table(c) for c in (self, other))
        return mine == theirs

    # -- basic accessors -------------------------------------------------

    def src(self, m: str) -> str:
        return self.morphisms[m][0]

    def dst(self, m: str) -> str:
        return self.morphisms[m][1]

    def hom(self, x: str, y: str) -> list[str]:
        return list(self._hom_index.get((x, y), ()))

    def comp(self, g: str, f: str) -> str:
        """g after f, for readers that come back to a pair: an all-function
        carrier keeps each composite read here in a private memo."""
        if self.dst(f) != self.src(g):
            raise MalformedInputError(f"cannot compose {g!r} after {f!r}")
        if self.object_size is None:
            return self.compose[(g, f)]
        try:
            return self._memo[(g, f)]
        except KeyError:
            h = self._memo[(g, f)] = self.composite(g, f)
            return h

    @cached_property
    def _memo(self) -> dict[tuple[str, str], str]:
        """The composites `comp` has read, on an all-function carrier."""
        return {}

    @cached_property
    def _pullbacks(self) -> dict[tuple[str, str], tuple[str, str, str] | None]:
        """Cospan (f, g) -> its canonical pullback or None: one memo that
        every setup over this carrier reads and fills, whatever its class."""
        return {}

    @cached_property
    def _systems(self) -> dict:
        """Lattice value -> its frame system, filled by `lattices.frame_system`."""
        return {}

    @cached_property
    def _nerves(self) -> dict:
        """(atlas morphism, level) -> its Čech nerve, filled by `descent.cech_nerve`."""
        return {}

    @cached_property
    def _verdicts(self) -> dict:
        """Class members -> its setup report, filled by `setups.check_geometric_setup`."""
        return {}

    def is_identity(self, m: str) -> bool:
        return self.identity.get(self.src(m)) == m and self.src(m) == self.dst(m)

    @cached_property
    def morphism_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.morphisms))

    @cached_property
    def _hom_index(self) -> dict[tuple[str, str], tuple[str, ...]]:
        return _group(self.morphism_ids, self.morphisms.__getitem__)

    @cached_property
    def _out_index(self) -> dict[str, tuple[str, ...]]:
        return _group(self.morphism_ids, self.src)

    @cached_property
    def _in_index(self) -> dict[str, tuple[str, ...]]:
        return _group(self.morphism_ids, self.dst)

    @cached_property
    def function_values(self) -> dict[str, tuple[int, ...]]:
        """id -> function values, on an all-function carrier: the one table
        every construction that reads ids as functions looks values up in."""
        if self.object_size is None:
            raise MalformedInputError("category carries no cardinality data")
        return {m: fn_values(m) for m in self.morphism_ids}

    @cached_property
    def _by_values(self) -> dict[tuple[str, str], dict[tuple[int, ...], str]]:
        """(source, target) -> {function values: id}, on an all-function
        carrier: where `composite` looks a composite up and a constructed
        limit its legs.  Each hom-set is in the product order of its
        values, the order `function_table` lists it in."""
        values, homs = self.function_values, self._hom_index
        return {
            (x, y): dict(sorted((values[m], m) for m in homs.get((x, y), ()))) for x in self.objects for y in self.objects
        }

    @cached_property
    def _least(self) -> dict[int, str]:
        """size -> the least-named object of that size, on an all-function
        carrier: the apex of a constructed limit, the generic minimum in
        any listing order."""
        return {n: x for x, n in sorted(self.object_size.items(), reverse=True)}

    def composite(self, g: str, f: str) -> str:
        """g after f, for a sweep that reads each composite once: on an
        all-function carrier computed from the two functions' values and
        stored nowhere, elsewhere read from the table.  The pair must
        compose."""
        if self.object_size is None:
            return self.compose[(g, f)]
        values = self.function_values
        gv = values[g]
        return self._by_values[(self.morphisms[f][0], self.morphisms[g][1])][tuple([gv[v] for v in values[f]])]

    @cached_property
    def generators(self) -> tuple[str, ...]:
        """A generating set under composition: each id that no composite of
        the ids before it reaches, taking the isomorphisms first and then
        the other ids, each in `morphism_ids` order.  Isomorphisms first
        keep the set small, since an id that is an isomorphism composed
        with an earlier id is reached, not taken.  The closure is grown by a
        worklist from the empty set, not from the identities, so the sweeps
        that read it assume no unit law; any generating set serves them.
        Needs a closed, well-typed table.

        On an all-function carrier composition is associative, so every
        composite of the ids taken is a word in them, and the closure is
        that of Froidure and Pin ("Algorithms for computing finite
        semigroups", 1997): each newly reached id is composed on the left
        with every id taken out of its target, and each id taken with every
        reached id into its source, by value and stored nowhere.  A table
        given without sizes may not be associative, which is what
        `check_category` tests on it, so there every pair of reached ids is
        composed through the table."""
        composite, typing = self.composite, self.morphisms
        pairwise = self.object_size is None
        reached: set[str] = set()
        # reached ids by target, and the ids composed on the left of a
        # reached id by their source: the ids taken, or every reached id
        into: dict[str, list[str]] = {}
        left: dict[str, list[str]] = {}
        gens = []
        # a stable sort: the isomorphisms, then the rest, each in id order
        for m in sorted(self.morphism_ids, key=lambda m: m not in self.iso_ids):
            if m in reached:
                continue
            gens.append(m)
            reached.add(m)
            work = [m]
            # once every id is reached no later id is taken
            while work and len(reached) < len(typing):
                n = work.pop()
                x, y = typing[n]
                into.setdefault(y, []).append(n)
                # m is popped first, when every earlier reached id is popped
                found = []
                if pairwise or n == m:
                    left.setdefault(x, []).append(n)
                    found += [composite(n, f) for f in into.get(x, ())]
                found += [composite(h, n) for h in left.get(y, ())]
                for k in found:
                    if k not in reached:
                        reached.add(k)
                        work.append(k)
        return tuple(gens)

    @cached_property
    def composable_pairs(self) -> tuple[tuple[str, str], ...]:
        into = self._in_index
        return tuple((g, f) for g in self.morphism_ids for f in into.get(self.morphisms[g][0], ()))

    @cached_property
    def iso_ids(self) -> frozenset[str]:
        if self.object_size is not None:
            # in a category of all functions the isomorphisms are the
            # bijections: injective between sets of one size
            size, typing = self.object_size, self.morphisms
            return frozenset(
                m
                for m, v in self.function_values.items()
                if size[typing[m][0]] == size[typing[m][1]] and len(set(v)) == len(v)
            )
        isos = set()
        # the hom-set types both composites, so the table is read directly
        compose, identity = self.compose, self.identity
        for m in self.morphism_ids:
            x, y = self.morphisms[m]
            for n in self._hom_index.get((y, x), ()):
                if compose[(n, m)] == identity[x] and compose[(m, n)] == identity[y]:
                    isos.add(m)
                    break
        return frozenset(isos)

    @cached_property
    def isos_into(self) -> dict[str, tuple[str, ...]]:
        """object -> the isomorphisms into it, in `morphism_ids` order."""
        isos = self.iso_ids
        return _group((m for m in self.morphism_ids if m in isos), self.dst)

    @cached_property
    def mono_ids(self) -> frozenset[str]:
        # the hom-sets type every pair, and each composite is read once
        composite, homs = self.composite, self._hom_index
        monos = set()
        for f in self.morphism_ids:
            x = self.morphisms[f][0]
            cancellable = True
            for t in self.objects:
                seen: dict[str, str] = {}
                for g in homs.get((t, x), ()):
                    fg = composite(f, g)
                    if fg in seen and seen[fg] != g:
                        cancellable = False
                        break
                    seen[fg] = g
                if not cancellable:
                    break
            if cancellable:
                monos.add(f)
        return frozenset(monos)


def _group(ids, key) -> dict:
    """key -> the ids with that key, each group in the order of `ids`."""
    index: dict = {}
    for m in ids:
        index.setdefault(key(m), []).append(m)
    return {k: tuple(ms) for k, ms in index.items()}


class FunctorData:
    def __init__(self, source: FinCategory, target: FinCategory, obj_map: dict[str, str], mor_map: dict[str, str]):
        self.source, self.target, self.obj_map, self.mor_map = source, target, obj_map, mor_map

    def on_obj(self, x: str) -> str:
        return self.obj_map[x]

    def on_mor(self, m: str) -> str:
        return self.mor_map[m]


def check_category(c: FinCategory) -> VerificationReport:
    """Exhaustive associativity / unit / closure audit with localized
    witnesses, on one whole table: the category's own, or an all-function
    carrier's `function_table`, built for the check and stored nowhere."""
    rep = VerificationReport("check-category")

    dangling = []
    for m, (x, y) in c.morphisms.items():
        if x not in c.objects or y not in c.objects:
            dangling.append(m)
    for x in c.objects:
        i = c.identity.get(x)
        if i is None or i not in c.morphisms or c.morphisms[i] != (x, x):
            dangling.append(f"identity:{x}")
    rep.add("well-formed-ids", not dangling, {"dangling": sorted(dangling)})
    if dangling:
        return rep

    compose = c.compose if c.object_size is None else function_table(c)
    bad_entry = compose_table_witness(c, compose)
    rep.add("composition-table-closed", bad_entry is None, bad_entry or {})
    if bad_entry is not None:
        return rep

    # the table is closed and well typed from here on, so it is read directly
    def not_unital(m):
        x, y = c.morphisms[m]
        if compose[(m, c.identity[x])] != m or compose[(c.identity[y], m)] != m:
            return {"morphism": m}

    rep.sweep("identity-units", c.morphism_ids, not_unital)

    def not_associative(triple):
        h, g, f = triple
        if compose[(h, compose[(g, f)])] != compose[(compose[(h, g)], f)]:
            return {"triple": [h, g, f]}

    # T = {a : (h.a).f == h.(a.f) for all h, f} is closed under composition
    # in a closed, typed table, so it holds every id once it holds the
    # generators (Light's test; Clifford and Preston, The Algebraic Theory
    # of Semigroups I, 1.2); a failed sweep rescans every pair (g, f) with h
    # in `morphism_ids` order, for the first witness a scan of every id finds
    out = c._out_index
    triples = ((h, g, f) for g, f in c.composable_pairs for h in out.get(c.morphisms[g][1], ()))
    rep.sweep("associativity", triples, not_associative, fast=lambda: _associative_on_generators(c, compose))
    return rep


def _associative_on_generators(c: FinCategory, compose: dict) -> bool:
    """Associativity of every triple (h, a, f) of the table `compose` with
    a a generator."""
    into, out = c._in_index, c._out_index
    for a in c.generators:
        x, y = c.morphisms[a]
        hs = out.get(y, ())
        has = [compose[(h, a)] for h in hs]
        for f in into.get(x, ()):
            af = compose[(a, f)]
            if [compose[(h, af)] for h in hs] != [compose[(ha, f)] for ha in has]:
                return False
    return True


def compose_table_witness(c: FinCategory, compose: dict) -> dict | None:
    """The first composable pair of `c` whose entry in `compose` is
    missing, unlisted or mistyped, else the least entry on a pair that
    does not compose; None when the table holds exactly one well-typed
    entry per pair."""
    for g, f in c.composable_pairs:
        try:
            h = compose[(g, f)]
        except KeyError:
            return {"pair": [g, f], "problem": "missing entry"}
        if h not in c.morphisms:
            return {"pair": [g, f], "problem": "unlisted result", "result": h}
        if c.morphisms[h] != (c.src(f), c.dst(g)):
            return {"pair": [g, f], "problem": "wrong typing", "result": h}
    # every pair has its entry, so any extra entry shows in the count
    if len(compose) > len(c.composable_pairs):
        g, f = min(set(compose) - set(c.composable_pairs))
        return {"pair": [g, f], "problem": "non-composable entry"}
    return None


def check_functor(F: FunctorData) -> VerificationReport:
    rep = VerificationReport("check-functor")
    s, t = F.source, F.target

    missing = [x for x in s.objects if x not in F.obj_map]
    missing += [m for m in s.morphism_ids if m not in F.mor_map]
    if missing:
        raise MalformedInputError(f"functor maps not total: {sorted(missing)[:5]}")

    def mistyped(m):
        fm = F.mor_map[m]
        if fm not in t.morphisms:
            return {"morphism": m, "problem": "image unlisted"}
        if t.morphisms[fm] != (F.obj_map[s.src(m)], F.obj_map[s.dst(m)]):
            return {"morphism": m, "problem": "source/target not preserved"}

    def identity_moved(x):
        if F.mor_map[s.identity[x]] != t.identity[F.obj_map[x]]:
            return {"object": x}

    def composite_moved(pair):
        g, f = pair
        if F.mor_map[s.comp(g, f)] != t.comp(F.mor_map[g], F.mor_map[f]):
            return {"pair": [g, f]}

    if rep.sweep("typing", s.morphism_ids, mistyped):
        return rep
    rep.sweep("identities", s.objects, identity_moved)
    rep.sweep("composites", s.composable_pairs, composite_moved)
    return rep


def opposite(c: FinCategory) -> FinCategory:
    morphisms = {m: (y, x) for m, (x, y) in c.morphisms.items()}
    compose = {(f, g): c.composite(g, f) for g, f in c.composable_pairs}
    return FinCategory(c.objects, morphisms, dict(c.identity), compose)


def wide_subcategory(c: FinCategory, members: frozenset[str] | set[str]) -> FinCategory:
    """All objects, morphisms restricted to `members` plus identities.

    Raises if the selection is not closed under composition.
    """
    keep = set(members) | set(c.identity.values())
    compose = {}
    for g, f in c.composable_pairs:
        if g in keep and f in keep:
            h = c.comp(g, f)
            if h not in keep:
                raise MalformedInputError(f"selection not closed: {g!r}.{f!r} = {h!r}")
            compose[(g, f)] = h
    return FinCategory(c.objects, {m: c.morphisms[m] for m in sorted(keep)}, dict(c.identity), compose)


def full_subcategory(c: FinCategory, objects) -> FinCategory:
    """The named objects with every morphism between them; a full
    subcategory of an all-function carrier is again one, so its sizes
    carry over and it composes by value over its own hom-sets."""
    inside = set(objects)
    objs = tuple(x for x in c.objects if x in inside)
    keep = {m for m in c.morphism_ids if c.src(m) in inside and c.dst(m) in inside}
    sizes = None if c.object_size is None else {x: c.object_size[x] for x in objs}
    morphisms = {m: c.morphisms[m] for m in sorted(keep)}
    compose = c.compose
    if sizes is None:
        compose = {(g, f): h for (g, f), h in compose.items() if g in keep and f in keep}
    return FinCategory(objs, morphisms, {x: c.identity[x] for x in objs}, compose, sizes)


# -- builders ------------------------------------------------------------


def discrete_category(objects) -> FinCategory:
    objects = tuple(objects)
    morphisms = {f"id_{x}": (x, x) for x in objects}
    identity = {x: f"id_{x}" for x in objects}
    compose = {(i, i): i for i in morphisms}
    return FinCategory(objects, morphisms, identity, compose)


def terminal_category() -> FinCategory:
    return discrete_category(("*",))


def poset_category(elements, leq) -> FinCategory:
    """Thin category on `elements`; `leq(a, b)` decides the order."""
    elements = tuple(elements)
    morphisms = {}
    for a in elements:
        for b in elements:
            if leq(a, b):
                morphisms[f"{a}<={b}"] = (a, b)
    identity = {a: f"{a}<={a}" for a in elements}
    compose = {}
    for g, (b1, c) in morphisms.items():
        for f, (a, b2) in morphisms.items():
            if b2 == b1:
                compose[(g, f)] = f"{a}<={c}"
    return FinCategory(elements, morphisms, identity, compose)


def chain_category(n: int) -> FinCategory:
    return poset_category([str(i) for i in range(n + 1)], lambda a, b: int(a) <= int(b))


# -- finite-set categories ----------------------------------------------


def _fn_id(src: str, dst: str, values: tuple[int, ...]) -> str:
    return f"{src}>{dst}:" + ".".join(str(v) for v in values)


def fn_values(m: str) -> tuple[int, ...]:
    tail = m.rpartition(":")[2]
    return tuple(int(v) for v in tail.split(".")) if tail else ()


def finset_category(sizes: dict[str, int]) -> FinCategory:
    """Skeletal category of finite sets: objects are named carriers with a
    declared cardinality, morphisms are all functions between them.

    Several objects may share a cardinality (used for transport tests).
    """
    objects = tuple(sorted(sizes))
    morphisms: dict[str, tuple[str, str]] = {}
    for a in objects:
        for b in objects:
            # repeat=0 gives the one empty function out of an empty set
            for vals in itertools.product(range(sizes[b]), repeat=sizes[a]):
                morphisms[_fn_id(a, b, vals)] = (a, b)
    identity = {a: _fn_id(a, a, tuple(range(sizes[a]))) for a in objects}
    return FinCategory(objects, morphisms, identity, None, dict(sizes))


def function_table(c: FinCategory) -> dict[tuple[str, str], str]:
    """The whole compose table of an all-function carrier, built in bulk as
    a new dict: for each g, the composites with each hom-set into its
    source.  Nothing is stored on the carrier."""
    homs, table = c._by_values, {}
    for (b, z), hom in homs.items():
        for gv, g in hom.items():
            for a in c.objects:
                # the values of g . f, for f over hom(a, b) in product
                # order, are the product of g's values in that order
                composites = map(homs[(a, z)].__getitem__, itertools.product(gv, repeat=c.object_size[a]))
                table.update(zip(zip(itertools.repeat(g), homs[(a, b)].values()), composites))
    return table


def finset_skeleton(max_size: int) -> FinCategory:
    return finset_category({str(k): k for k in range(max_size + 1)})


def injections(c: FinCategory) -> frozenset[str]:
    return frozenset(m for m, v in c.function_values.items() if len(set(v)) == len(v))


def surjections(c: FinCategory) -> frozenset[str]:
    return frozenset(m for m, v in c.function_values.items() if len(set(v)) == c.object_size[c.dst(m)])


# -- limits by universal property, fiber products of functions -------------


def verify_pullback_square(c: FinCategory, f: str, g: str, apex: str, p: str, q: str) -> bool:
    """Does (apex, p: apex->src f, q: apex->src g) satisfy the universal
    property of the cospan (f: X->Z, g: Y->Z)?  Checked against every object:
    each commuting (u: T->X, v: T->Y) must be hit by exactly one mediator
    w: T->apex, counted over (p.w, q.w)."""
    if c.comp(f, p) != c.comp(g, q):
        return False
    if c.src(p) != apex or c.src(q) != apex:
        raise MalformedInputError(f"span legs {p!r}, {q!r} do not start at {apex!r}")
    composite, homs = c.composite, c._hom_index
    x, y = c.src(f), c.src(g)
    for t in c.objects:
        hits: dict[tuple[str, str], int] = {}
        for w in homs.get((t, apex), ()):
            uv = (composite(p, w), composite(q, w))
            hits[uv] = hits.get(uv, 0) + 1
        by_gv: dict[str, list[str]] = {}
        for v in homs.get((t, y), ()):
            by_gv.setdefault(composite(g, v), []).append(v)
        for u in homs.get((t, x), ()):
            for v in by_gv.get(composite(f, u), ()):
                if hits.get((u, v)) != 1:
                    return False
    return True


def pullback_candidates(c: FinCategory, f: str, g: str) -> list[tuple[str, str, str]]:
    """All (apex, p, q) satisfying the pullback universal property of the
    cospan (f: X->Z, g: Y->Z), in deterministic order."""
    if c.dst(f) != c.dst(g):
        raise MalformedInputError("not a cospan")
    out = []
    for apex in c.objects:
        for p in c.hom(apex, c.src(f)):
            for q in c.hom(apex, c.src(g)):
                if verify_pullback_square(c, f, g, apex, p, q):
                    out.append((apex, p, q))
    return out


@lru_cache(maxsize=None)
def _decimal_order(n: int) -> tuple[int, ...]:
    """range(n) sorted by decimal strings, the order ids list values in."""
    return tuple(sorted(range(n), key=str))


def canonical_pullback(c: FinCategory, f: str, g: str) -> tuple[str, str, str] | None:
    """Lexicographically minimal pullback representative, or None.

    Found by universal-property search, except in an all-function carrier
    (one with `object_size`), where it is constructed: the apex has |P|
    elements, P = {(x, y) : f(x) = g(y)}, and the legs list P sorted by the
    decimal strings of (x, y).  Ids order by those strings, so this is the
    first pullback in id order, the generic lexicographic minimum."""
    if c.morphisms[f][1] != c.morphisms[g][1]:
        raise MalformedInputError("not a cospan")
    if c.object_size is None:
        cands = pullback_candidates(c, f, g)
        return min(cands) if cands else None
    values = c.function_values
    fx, gy = values[f], values[g]
    ys = _decimal_order(len(gy))
    fiber = [(x, y) for x in _decimal_order(len(fx)) for y in ys if fx[x] == gy[y]]
    apex = c._least.get(len(fiber))
    if apex is None:
        return None
    px, py = zip(*fiber) if fiber else ((), ())
    homs = c._by_values
    return (apex, homs[(apex, c.morphisms[f][0])][px], homs[(apex, c.morphisms[g][0])][py])


def mediators(c: FinCategory, src: str, dst: str, conditions) -> list[str]:
    """The maps w: src -> dst with proj . w == want for every (proj, want)
    in `conditions`, in hom order."""
    conditions = tuple(conditions)
    return [w for w in c.hom(src, dst) if all(c.comp(proj, w) == want for proj, want in conditions)]


def verify_product(c: FinCategory, apex: str, legs, factors) -> bool:
    """Do `legs` out of `apex` satisfy the universal property of the
    product of `factors`?  Checked against every object."""
    legs, factors = tuple(legs), tuple(factors)
    for leg, x in zip(legs, factors):
        if c.morphisms[leg] != (apex, x):
            return False
    for t in c.objects:
        for us in itertools.product(*[c.hom(t, x) for x in factors]):
            if len(mediators(c, t, apex, zip(legs, us))) != 1:
                return False
    return True


def product_candidates(c: FinCategory, factors) -> list[tuple[str, tuple[str, ...]]]:
    """All n-ary products of `factors` with their projection tuples."""
    factors = tuple(factors)
    out = []
    for apex in c.objects:
        for legs in itertools.product(*[c.hom(apex, x) for x in factors]):
            if verify_product(c, apex, legs, factors):
                out.append((apex, legs))
    return out


def canonical_product(c: FinCategory, factors) -> tuple[str, tuple[str, ...]] | None:
    cands = product_candidates(c, factors)
    return min(cands) if cands else None


def _finset_canonical_coproduct(c: FinCategory, factors) -> tuple[str, tuple[str, ...]] | None:
    """Disjoint union in an all-function carrier with an object of at least
    two elements, constructed: maps into that object tell elements apart, so
    every coproduct has jointly bijective legs.  The least one lists the
    apex's elements in decimal-string order, one factor after another."""
    sizes = c.object_size
    apex = c._least.get(sum(sizes[x] for x in factors))
    if apex is None:
        return None
    elements = iter(_decimal_order(sizes[apex]))
    return (apex, tuple(_fn_id(x, apex, tuple(itertools.islice(elements, sizes[x]))) for x in factors))


def canonical_coproduct(c: FinCategory, factors) -> tuple[str, tuple[str, ...]] | None:
    """Lexicographically minimal coproduct cocone, or None.  It is the least
    product in the opposite category, whose candidates are the same cocones
    in the same order; an all-function carrier with an object of at least
    two elements constructs it instead."""
    factors = tuple(factors)
    unknown = [x for x in factors if x not in c.objects]
    if unknown:
        raise MalformedInputError(f"unknown objects {unknown[:3]}")
    if c.object_size is not None and max(c.object_size.values(), default=0) >= 2:
        return _finset_canonical_coproduct(c, factors)
    return canonical_product(opposite(c), factors)

