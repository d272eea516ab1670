"""Čech nerves, geometric pair declarations, descent-based extension of
coefficient systems, and the localization premise checker.

An atlas presents an object by a cover whose base changes against the
declared sub-setup land in a chosen cover class.  Its Čech nerve (truncated
at level one or two) is built from the pullback oracle, with every
structure map found by mediator search and every simplicial identity
recomputed, and is memoized on the carrier by atlas morphism and level.  On
top of that sit the two extension routes: limits of coefficient lattices
over nerves (descent) and colimits of exceptional pushforwards (codescent,
rendered as an order-congruence quotient), plus the premise checker for
localization problems.  The localized category itself is never built.

With thin coefficients an exceptional map is induced by a hypercover's
level-zero map alone, and level one is its compatibility check, so
hypercovers are matched at level one: the search stops at the first match
in atlas-pair order, which both the pair gate and the extension report.
"""

from __future__ import annotations

from functools import cached_property

from .fincat import (
    FinCategory,
    FunctorData,
    _group,
    full_subcategory,
    mediators,
    verify_product,
    wide_subcategory,
)
from .lattices import CoefficientSystem, FiniteLattice, LatticeMap
from .report import MalformedInputError, ResourceLimitError, VerificationReport
from .setups import EdgeClass, GeometricSetup, merge_sub_setup


# -- atlases ---------------------------------------------------------------


class Atlas:
    """A cover x: X -> X' whose base changes against the declared objects
    are required to land in the cover class `s`.

    A `PairDeclaration` builds its atlases from their morphisms, over its
    own carrier, its big cover class `s_big` and its small objects.  The
    invariant is oracle-checked by `check_atlas`, not trusted."""

    def __init__(self, setup: GeometricSetup, x: str, s: EdgeClass, small_objects: tuple[str, ...]):
        self.setup, self.x, self.s, self.small_objects = setup, x, s, small_objects
        c = self.setup.category
        if self.x not in c.morphisms:
            raise MalformedInputError(f"unknown atlas morphism {self.x!r}")
        self.small_objects = tuple(self.small_objects)
        unknown = [y for y in self.small_objects if y not in c.objects]
        if unknown:
            raise MalformedInputError(f"unknown objects {unknown[:3]}")

    @property
    def source(self) -> str:
        return self.setup.category.src(self.x)

    @property
    def target(self) -> str:
        return self.setup.category.dst(self.x)


def check_atlas(a: Atlas) -> VerificationReport:
    """Every map Y -> target from a declared object base-changes the cover
    to a map in the cover class.  Missing fiber products count as coverage
    gaps, mirroring the partial pullback oracle."""
    rep = VerificationReport("atlas")
    c = a.setup.category

    def leaves_cover(g):
        q = a.setup.pullback(a.x, g)[2]
        if q not in a.s:
            return {"object": c.src(g), "along": g, "base-change": q}

    maps = (g for y in a.small_objects for g in c.hom(y, a.target))
    rep.sweep("base-changes-in-cover-class", maps, leaves_cover, anchor="atlas-base-change", counts=_coverage)
    return rep


def _coverage(scanned: int, covered: int) -> dict:
    """A base-change sweep's counts: the cospans the carrier pulls back, and
    its gaps."""
    return {"covered": covered, "gaps": scanned - covered}


def has_section(c: FinCategory, x: str) -> bool:
    return any(c.comp(x, s) == c.identity[c.dst(x)] for s in c.hom(c.dst(x), c.src(x)))


# -- Čech nerves -----------------------------------------------------------


def _mediator(c: FinCategory, src_obj: str, dst_obj: str, conditions) -> str:
    """The unique w: src -> dst with proj . w = want for every condition."""
    cands = mediators(c, src_obj, dst_obj, conditions)
    if len(cands) != 1:
        raise MalformedInputError(
            f"structure map {src_obj!r} -> {dst_obj!r} not unique ({len(cands)} candidates)"
        )
    return cands[0]


class CechDiagram:
    """Iterated self-fiber-products of an atlas, truncated at level m, 1 or 2.

    x is the atlas morphism X -> X'; faces[(n, i)] is the map
    X_n -> X_{n-1} dropping coordinate i;
    degeneracies[(n, i)] repeats coordinate i; aug[n] is the augmentation
    X_n -> X'.  All simplicial and augmentation identities are recomputed
    on construction."""

    def __init__(
        self,
        category: FinCategory,
        x: str,
        m: int,
        objects: tuple[str, ...],
        faces: dict,
        degeneracies: dict,
        aug: tuple[str, ...],
    ):
        self.category, self.x, self.m, self.objects = category, x, m, objects
        self.faces, self.degeneracies, self.aug = faces, degeneracies, aug
        c = self.category
        if len(self.objects) != self.m + 1 or len(self.aug) != self.m + 1:
            raise MalformedInputError("diagram levels do not match the truncation")
        for n in range(self.m + 1):
            if c.morphisms[self.aug[n]] != (self.objects[n], c.dst(self.x)):
                raise MalformedInputError(f"augmentation at level {n} mistyped")
        for (n, i), d in self.faces.items():
            if c.morphisms[d] != (self.objects[n], self.objects[n - 1]):
                raise MalformedInputError(f"face ({n}, {i}) mistyped")
        for (n, i), s in self.degeneracies.items():
            if c.morphisms[s] != (self.objects[n], self.objects[n + 1]):
                raise MalformedInputError(f"degeneracy ({n}, {i}) mistyped")
        self._check_identities()

    def _check_identities(self):
        c = self.category
        d, s, a = self.faces, self.degeneracies, self.aug
        def eq(lhs, rhs, what):
            if lhs != rhs:
                raise MalformedInputError(f"simplicial identity fails: {what}")
        for i in (0, 1):
            eq(c.comp(d[(1, i)], s[(0, 0)]), c.identity[self.objects[0]], f"d{i}s0")
            eq(c.comp(a[0], d[(1, i)]), a[1], f"aug d{i}")
        eq(c.comp(a[1], s[(0, 0)]), a[0], "aug s0")
        if self.m == 2:
            for i in (0, 1):
                for j in range(i + 1, 3):
                    eq(
                        c.comp(d[(1, i)], d[(2, j)]),
                        c.comp(d[(1, j - 1)], d[(2, i)]),
                        f"d{i}d{j}",
                    )
            eq(c.comp(d[(2, 0)], s[(1, 0)]), c.identity[self.objects[1]], "d0s0")
            eq(c.comp(d[(2, 1)], s[(1, 0)]), c.identity[self.objects[1]], "d1s0")
            eq(c.comp(d[(2, 2)], s[(1, 0)]), c.comp(s[(0, 0)], d[(1, 1)]), "d2s0")
            eq(c.comp(d[(2, 0)], s[(1, 1)]), c.comp(s[(0, 0)], d[(1, 0)]), "d0s1")
            eq(c.comp(d[(2, 1)], s[(1, 1)]), c.identity[self.objects[1]], "d1s1")
            eq(c.comp(d[(2, 2)], s[(1, 1)]), c.identity[self.objects[1]], "d2s1")
            eq(c.comp(s[(1, 0)], s[(0, 0)]), c.comp(s[(1, 1)], s[(0, 0)]), "s0s0")
            for i in (0, 1, 2):
                eq(c.comp(a[1], d[(2, i)]), a[2], f"aug d{i} level 2")


def cech_nerve(setup: GeometricSetup, atlas: Atlas, m: int) -> CechDiagram:
    """The nerve of an atlas, built from the canonical pullback oracle.

    A missing fiber product in the carrier raises; callers that can fall
    back to a lower truncation do so explicitly.  Each (atlas morphism,
    level) is built and identity-checked once per carrier, which memoizes
    the diagram; a level that fails to build is not memoized."""
    if m not in (1, 2):
        raise MalformedInputError("truncation level must be 1 or 2")
    key, c = (atlas.x, m), setup.category
    if key not in c._nerves:
        c._nerves[key] = _build_nerve(setup, atlas, m)
    return c._nerves[key]


def _build_nerve(setup: GeometricSetup, atlas: Atlas, m: int) -> CechDiagram:
    c = setup.category
    x = atlas.x
    x0 = c.src(x)
    apex, p, q = setup.pullback(x, x)
    objects = [x0, apex]
    # coordinate convention: p remembers the first factor, q the second
    faces = {(1, 0): q, (1, 1): p}
    degs = {(0, 0): _mediator(c, x0, apex, [(p, c.identity[x0]), (q, c.identity[x0])])}
    aug = [x, c.comp(x, p)]
    if m == 2:
        d0, d1 = faces[(1, 0)], faces[(1, 1)]
        x1 = objects[1]
        apex2, u, v = setup.pullback(d0, d1)
        objects.append(apex2)
        faces[(2, 0)] = v
        faces[(2, 2)] = u
        faces[(2, 1)] = _mediator(
            c, apex2, x1, [(d1, c.comp(d1, u)), (d0, c.comp(d0, v))]
        )
        degs[(1, 0)] = _mediator(
            c, x1, apex2, [(u, c.comp(degs[(0, 0)], d1)), (v, c.identity[x1])]
        )
        degs[(1, 1)] = _mediator(
            c, x1, apex2, [(u, c.identity[x1]), (v, c.comp(degs[(0, 0)], d0))]
        )
        aug.append(c.comp(aug[1], u))
    return CechDiagram(c, atlas.x, m, tuple(objects), faces, degs, tuple(aug))


def best_nerve(setup: GeometricSetup, atlas: Atlas) -> CechDiagram:
    """The nerve at level two when the carrier holds it, else at level one;
    a `ResourceLimitError` when the carrier has no overlap object."""
    last = None
    for m in (2, 1):
        try:
            return cech_nerve(setup, atlas, m)
        except ResourceLimitError as exc:
            last = exc
    raise ResourceLimitError(f"no overlap object in the carrier: {last}")


# -- pair declarations -----------------------------------------------------


class PairDeclaration:
    """A sub-setup inside an ambient setup with cover classes on both
    levels and candidate atlases per ambient object.

    The ambient exceptional class is `big.e`; the cover classes `s_small`
    and `s_big` and the sub-level exceptional class `e_small` are given as
    morphism-id sets, the sub-level ones induced on the full subcategory.
    `s_big` is also the atlases' cover class, built once as `big_cover`.
    Atlases are given as object -> atlas morphism ids, and the pair builds
    each `Atlas` over its own carrier, `big_cover` and small objects, so a
    declaration holds one of each."""

    def __init__(
        self,
        kind: str,
        big: GeometricSetup,
        small_objects: tuple[str, ...],
        s_small: frozenset,
        s_big: frozenset,
        e_small: frozenset,
        atlases: dict,
    ):
        self.kind, self.big, self.small_objects = kind, big, small_objects
        self.s_small, self.s_big, self.e_small = s_small, s_big, e_small
        self.atlases = atlases
        # f -> (its first hypercover or None, whether the search met a
        # limit), filled by `find_hypercovers`
        self._hypercovers: dict = {}
        # (source atlas, target atlas) morphisms -> the maps of E_small at
        # levels zero and one, keyed as `_search_hypercovers` reads them,
        # filled by `_level_index`
        self._levels: dict = {}
        if self.kind not in ("nice", "exceptional"):
            raise MalformedInputError(f"unknown pair kind {self.kind!r}")
        listed = self.small_objects = tuple(self.small_objects)
        if len(set(listed)) < len(listed):
            raise MalformedInputError(f"duplicate small object {next(y for y in listed if listed.count(y) > 1)!r}")
        c = self.big.category
        # an atlas listed under an object outside the carrier would be ignored
        unknown = [y for y in (*self.small_objects, *sorted(self.atlases)) if y not in c.objects]
        if unknown:
            raise MalformedInputError(f"unknown objects {unknown[:3]}")
        named = (("s_small", self.s_small), ("s_big", self.s_big), ("e_small", self.e_small))
        for name, members in named:
            bad = sorted(set(members) - set(c.morphism_ids))
            if bad:
                raise MalformedInputError(f"{name} mentions unknown morphisms {bad[:3]}")
        # the small classes live on the full subcategory on small_objects
        small = set(self.small_objects)
        for name, members in (("s_small", self.s_small), ("e_small", self.e_small)):
            bad = [m for m in sorted(members) if not small.issuperset(c.morphisms[m])]
            if bad:
                raise MalformedInputError(f"{name} mentions morphisms outside small_objects {bad[:3]}")
        self.big_cover, atlases = EdgeClass(c, frozenset(self.s_big)), {}
        for obj, ids in sorted(self.atlases.items()):
            atlases[obj] = tuple(Atlas(self.big, x, self.big_cover, listed) for x in ids)
            for a in atlases[obj]:
                if a.target != obj:
                    raise MalformedInputError(
                        f"atlas {a.x!r} is listed under {obj!r}, not under its target {a.target!r}"
                    )
        self.atlases = atlases

    @cached_property
    def small(self) -> FinCategory:
        # every object small: the ambient carrier itself, with its memos
        c = self.big.category
        return c if set(self.small_objects) == set(c.objects) else full_subcategory(c, self.small_objects)

    def small_setup(self, members) -> GeometricSetup:
        return GeometricSetup(self.small, EdgeClass(self.small, frozenset(members)))


def check_nice_pair(pd: PairDeclaration) -> VerificationReport:
    """The four setup axioms, cover-class restriction, atlas existence, and
    base change of exceptional maps along atlases."""
    rep = VerificationReport("nice-pair")
    c = pd.big.category

    setups = (
        ("small-exceptional", pd.small_setup(pd.e_small)),
        ("small-cover", pd.small_setup(pd.s_small)),
        ("big-exceptional", pd.big),
        ("big-cover", GeometricSetup(c, pd.big_cover)),
    )
    for name, s in setups:
        merge_sub_setup(rep, f"setup-{name}", s, "pair-condition-a")

    small_ids = set(pd.small.morphism_ids)
    mismatch = sorted((set(pd.s_big) & small_ids) ^ set(pd.s_small))
    rep.add(
        "cover-class-restricts",
        not mismatch,
        {"morphism": mismatch[0]} if mismatch else {},
        anchor="pair-condition-b",
    )

    def no_atlas(case):
        obj, a = case
        if a is None:
            return {"object": obj, "reason": "no atlas declared"}
        if a.source not in pd.small_objects:
            return {"object": obj, "atlas": a.x, "reason": "mistyped atlas"}
        sub = check_atlas(a)
        if not sub.passed:
            return {"object": obj, "atlas": a.x, "witness": sub.first_failure().witness}

    # an object with no atlas is one case, (obj, None)
    atlases = ((obj, a) for obj in c.objects for a in pd.atlases.get(obj) or (None,))
    rep.sweep("atlases-exist", atlases, no_atlas, anchor="pair-condition-c")

    def leaves_small(cospan):
        f, x = cospan
        q = pd.big.pullback(f, x)[2]
        if q not in pd.e_small:
            return {"morphism": f, "atlas": x, "base-change": q}

    cospans = ((f, a.x) for f in sorted(pd.big.e.members) for a in pd.atlases.get(c.dst(f), ()))
    rep.sweep("exceptional-base-change", cospans, leaves_small, anchor="pair-condition-d", counts=_coverage)
    return rep


# -- hypercovers and exceptional pairs -------------------------------------


class Hypercover:
    """A levelwise morphism of truncated nerves over a fixed morphism."""

    def __init__(self, f: str, src_nerve: CechDiagram, dst_nerve: CechDiagram, levels: tuple[str, ...]):
        self.f, self.src_nerve, self.dst_nerve, self.levels = f, src_nerve, dst_nerve, levels


def _level_index(pd: PairDeclaration, nx: CechDiagram, ny: CechDiagram) -> tuple[dict, dict]:
    """The maps of E_small at both levels of a nerve morphism nx -> ny, in
    hom order: level zero keyed by y∘f0 (y the target atlas), level one by
    its face pair (d_0∘f1, d_1∘f1); built once per atlas pair."""
    key = (nx.x, ny.x)
    if key not in pd._levels:
        c = pd.big.category
        y, d0, d1 = ny.x, ny.faces[(1, 0)], ny.faces[(1, 1)]
        maps0 = (f0 for f0 in c.hom(nx.objects[0], ny.objects[0]) if f0 in pd.e_small)
        maps1 = (f1 for f1 in c.hom(nx.objects[1], ny.objects[1]) if f1 in pd.e_small)
        level0 = _group(maps0, lambda f0: c.composite(y, f0))
        level1 = _group(maps1, lambda f1: (c.composite(d0, f1), c.composite(d1, f1)))
        pd._levels[key] = level0, level1
    return pd._levels[key]


def find_hypercovers(pd: PairDeclaration, f: str):
    """The first level-one hypercover of f over the declared atlas pairs,
    or None, and whether an atlas pair searched before it (every pair, when
    there is none) has its overlap outside the carrier.

    Each f is searched once per declaration, up to its first match;
    `check_exceptional_pair` and `extend_system_E` share the memoized
    result."""
    if f not in pd._hypercovers:
        first, limited = None, False
        for hc in _search_hypercovers(pd, f):
            if hc is not None:
                first = hc
                break
            limited = True
        pd._hypercovers[f] = (first, limited)
    return pd._hypercovers[f]


def _search_hypercovers(pd: PairDeclaration, f: str):
    """Every level-one hypercover of f, in atlas-pair and hom order, with
    None for an atlas pair whose overlap lies outside the carrier.

    The degeneracy condition is tested, not assumed: a Čech nerve's faces
    imply it, but a nerve may be presented otherwise."""
    c = pd.big.category
    for xa in pd.atlases.get(c.src(f), ()):
        for ya in pd.atlases.get(c.dst(f), ()):
            try:
                nx = cech_nerve(pd.big, xa, 1)
                ny = cech_nerve(pd.big, ya, 1)
            except ResourceLimitError:
                yield None
                continue
            level0, level1 = _level_index(pd, nx, ny)
            sx, sy = nx.degeneracies[(0, 0)], ny.degeneracies[(0, 0)]
            for f0 in level0.get(c.composite(f, xa.x), ()):
                faces = (c.composite(f0, nx.faces[(1, 0)]), c.composite(f0, nx.faces[(1, 1)]))
                s0 = c.composite(sy, f0)
                for f1 in level1.get(faces, ()):
                    if c.composite(f1, sx) == s0:
                        yield Hypercover(f, nx, ny, (f0, f1))


def check_exceptional_pair(pd: PairDeclaration) -> VerificationReport:
    """Cover class inside the exceptional class, and a level-one hypercover
    search per ambient exceptional morphism.  An overlap outside the
    carrier is reported as a resource limit, distinct from proven absence."""
    rep = VerificationReport("exceptional-pair")
    stray = sorted(set(pd.s_small) - set(pd.e_small)) + sorted(
        set(pd.s_big) - pd.big.e.members
    )
    rep.add(
        "cover-inside-exceptional",
        not stray,
        {"morphism": stray[0]} if stray else {},
        anchor="pair-cover-containment",
    )
    for f in sorted(pd.big.e.members):
        hc, limited = find_hypercovers(pd, f)
        name = f"hypercover:{f}"
        if hc is not None:
            rep.add(
                name,
                True,
                {"levels": list(hc.levels), "src-atlas": hc.src_nerve.x, "dst-atlas": hc.dst_nerve.x},
                anchor="pair-hypercover-matching",
            )
        elif limited:
            rep.add_limit(
                name,
                {"morphism": f, "reason": "nerve level outside the carrier"},
                anchor="pair-hypercover-matching",
            )
        else:
            rep.add(
                name,
                False,
                {"morphism": f, "reason": "no levelwise exceptional matching"},
                anchor="pair-hypercover-matching",
            )
    return rep


# -- descent of coefficient systems ----------------------------------------


def _descent_positions(sys: CoefficientSystem, nerve: CechDiagram) -> list[int]:
    """Positions of D(X0) equalized by the two restrictions to the overlap."""
    p0 = sys.pull(nerve.faces[(1, 0)]).targets
    p1 = sys.pull(nerve.faces[(1, 1)]).targets
    return [i for i, (a, b) in enumerate(zip(p0, p1)) if a == b]


def descent_elements(sys: CoefficientSystem, nerve: CechDiagram) -> list[str]:
    """Elements of D(X0) equalized by the two restrictions to the overlap."""
    names = sys.lattice(nerve.objects[0]).elements
    return [names[i] for i in _descent_positions(sys, nerve)]


def descent_lattice(sys: CoefficientSystem, nerve: CechDiagram) -> FiniteLattice:
    """The equalizer sub-lattice, with the tensor restricted when present."""
    base = sys.lattice(nerve.objects[0])
    keep = _descent_positions(sys, nerve)
    new = {p: i for i, p in enumerate(keep)}
    names, T = base.elements, base._tensor
    tensor = None
    if T is not None:
        for a in keep:
            for b in keep:
                if T[a][b] not in new:
                    raise MalformedInputError(
                        f"tensor does not restrict to descent data at ({names[a]!r}, {names[b]!r})"
                    )
        tensor = tuple(tuple(new[T[a][b]] for b in keep) for a in keep)
    up = tuple(sum(1 << i for i, b in enumerate(keep) if base._up[a] >> b & 1) for a in keep)
    return FiniteLattice._at_positions([names[a] for a in keep], up, tensor)


def _order_mismatch(up, up_image, image) -> tuple[int, int] | None:
    """The first pair (a, b) of positions, in order, at which a <= b (bit b
    of the up-set mask `up[a]`) and image[a] <= image[b] (read off
    `up_image`) disagree: None when `image` reflects and preserves the
    order."""
    for a, mask in enumerate(up):
        row = up_image[image[a]]
        for b, t in enumerate(image):
            if mask >> b & 1 != row >> t & 1:
                return a, b
    return None


def check_descent(setup: GeometricSetup, sys: CoefficientSystem, atlas: Atlas) -> VerificationReport:
    """Restriction along the atlas is an order-isomorphism onto descent
    data; the overlap-cocycle condition is asserted when the carrier has a
    level-two object (with thin coefficients it is implied by the equalizer
    equation, so a shallower nerve records the level and nothing else)."""
    rep = VerificationReport("descent")
    try:
        nerve = best_nerve(setup, atlas)
    except ResourceLimitError:
        rep.add_limit(
            "descent-comparison",
            {"atlas": atlas.x, "reason": "overlap object outside the carrier"},
            anchor="cech-descent",
        )
        return rep
    dd, L0 = _descent_positions(sys, nerve), sys.lattice(nerve.objects[0])

    pulls = []
    if nerve.m >= 2:
        c = setup.category
        vertex = (
            c.comp(nerve.faces[(1, 1)], nerve.faces[(2, 2)]),
            c.comp(nerve.faces[(1, 0)], nerve.faces[(2, 2)]),
            c.comp(nerve.faces[(1, 0)], nerve.faces[(2, 0)]),
        )
        pulls = [sys.pull(v).targets for v in vertex]

    def vertices_disagree(l):
        vals = {p[l] for p in pulls}
        if len(vals) != 1:
            names = sys.lattice(nerve.objects[2]).elements
            return {"element": L0.elements[l], "values": sorted(names[v] for v in vals)}

    counts = {"level": nerve.m, "vacuous": nerve.m < 2}
    rep.sweep("cocycle-condition", dd if pulls else (), vertices_disagree, anchor="cech-cocycle", counts=counts)

    x = atlas.x
    base = sys.lattice(atlas.target)
    px = sys.pull(x).targets
    image = set(px)
    witness = None
    if len(image) != len(px):
        witness = {"reason": "restriction not injective"}
    elif image != set(dd):
        element = min(L0.elements[l] for l in image ^ set(dd))
        witness = {"reason": "image differs from descent data", "element": element}
    else:
        pair = _order_mismatch(base._up, L0._up, px)
        if pair:
            witness = {"reason": "order not reflected", "pair": [base.elements[a] for a in pair]}
    rep.add(
        "descent-comparison",
        witness is None,
        witness or {"atlas": x, "matched": len(dd), "level": nerve.m},
        anchor="cech-descent",
    )
    return rep


def _transport(pd: PairDeclaration, sys: CoefficientSystem, g: str, src: tuple, dst: tuple) -> list[tuple]:
    """Descent data carried along g: A -> B from the presentation src of A
    to dst of B, each a pair (x, kept): a presenting morphism and the
    positions its descent data keeps in the lattice of x's source.  For
    each kept position of dst, in order, the indices into src's kept
    positions with the same restriction to the canonical pullback of
    (g∘x_src, x_dst).  Along an identity it compares two atlases."""
    c = pd.big.category
    (x_src, kept_src), (x_dst, kept_dst) = src, dst
    _, a_leg, b_leg = pd.big.pullback(c.comp(g, x_src), x_dst)
    if a_leg not in sys.restriction or b_leg not in sys.restriction:
        raise MalformedInputError(f"transport overlap for {g!r} lies outside the declared sub-setup")
    pa, pb = sys.pull(a_leg).targets, sys.pull(b_leg).targets
    by_image = _group(range(len(kept_src)), lambda i: pa[kept_src[i]])
    return [by_image.get(pb[m], ()) for m in kept_dst]


def compare_atlases(pd: PairDeclaration, sys: CoefficientSystem, a1: Atlas, a2: Atlas) -> VerificationReport:
    """Canonical comparison of descent data over two atlases of the same
    object: the transport along its identity, from the a2- to the
    a1-presentation, through the product atlas rather than any
    localization."""
    c = pd.big.category
    if c.dst(a1.x) != c.dst(a2.x):
        raise MalformedInputError("atlases cover different objects")
    rep = VerificationReport("atlas-independence")
    try:
        n1, n2 = best_nerve(pd.big, a1), best_nerve(pd.big, a2)
        dd1, dd2 = _descent_positions(sys, n1), _descent_positions(sys, n2)
        cands = _transport(pd, sys, c.identity[a1.target], (a2.x, dd2), (a1.x, dd1))
    except ResourceLimitError:
        rep.add_limit(
            "comparison-unique",
            {"atlases": [a1.x, a2.x], "reason": "product atlas outside the carrier"},
            anchor="atlas-independence-zigzag",
        )
        return rep

    def not_unique(case):
        l1, cs = case
        if len(cs) != 1:
            return {"element": sys.lattice(n1.objects[0]).elements[l1], "candidates": len(cs)}

    if rep.sweep(
        "comparison-unique", zip(dd1, cands), not_unique, anchor="atlas-independence-zigzag", counts={"size": len(dd1)}
    ):
        return rep
    table = [cs[0] for cs in cands]

    L1 = descent_lattice(sys, n1)
    L2 = descent_lattice(sys, n2)
    witness = None
    if len(set(table)) != len(dd2):
        witness = {"reason": "comparison not bijective"}
    else:
        pair = _order_mismatch(L1._up, L2._up, table)
        if pair:
            witness = {"reason": "order not preserved", "pair": [L1.elements[a] for a in pair]}
    rep.add(
        "comparison-order-iso",
        witness is None,
        witness or {"size": len(dd1)},
        anchor="atlas-independence-zigzag",
    )
    return rep


def _transport_pull(
    pd: PairDeclaration, sys: CoefficientSystem, lattices: dict, kept: dict, present: dict, f: str
) -> LatticeMap:
    """Restriction between presented lattices, the transport along f: the
    value is the unique descent element matching on the shared refinement
    X_A x_{B'} X_B.  present[obj] is the morphism presenting an object's
    lattice, and kept[obj] lists the positions of the presented lattice's
    elements in the lattice of its source."""
    src_o, dst_o = pd.big.category.morphisms[f]
    cands = _transport(pd, sys, f, (present[src_o], kept[src_o]), (present[dst_o], kept[dst_o]))
    for l, cs in zip(lattices[dst_o].elements, cands):
        if len(cs) != 1:
            raise MalformedInputError(f"restriction along {f!r} not determined by descent at {l!r}")
    return LatticeMap(lattices[dst_o], lattices[src_o], tuple(cs[0] for cs in cands))


def extend_system_C(pd: PairDeclaration, sys: CoefficientSystem) -> CoefficientSystem:
    """Extend a coefficient system from the sub-setup to the ambient one by
    taking descent data over the chosen atlas of each new object.

    The pair axioms (`check_nice_pair`) and the descent precondition
    (`check_descent`) are not checked here: the caller that reports them
    gates construction."""
    if pd.kind != "nice":
        raise MalformedInputError("extension of restrictions needs a nice pair")
    c = pd.big.category
    small = set(pd.small_objects)
    # the identity presents a sub-setup object, its first atlas any other
    lattices, kept, present = {}, {}, {}
    for obj in c.objects:
        if obj in small:
            lattices[obj] = sys.lattice(obj)
            kept[obj] = range(len(lattices[obj].elements))
            present[obj] = c.identity[obj]
        else:
            a = pd.atlases[obj][0]
            present[obj] = a.x
            nerve = best_nerve(pd.big, a)
            lattices[obj], kept[obj] = descent_lattice(sys, nerve), _descent_positions(sys, nerve)
    restriction = {}
    for f in c.morphism_ids:
        src_o, dst_o = c.morphisms[f]
        if src_o in small and dst_o in small:
            restriction[f] = sys.pull(f)
        else:
            restriction[f] = _transport_pull(pd, sys, lattices, kept, present, f)
    return CoefficientSystem(c, lattices, restriction)


# -- codescent of exceptional maps -----------------------------------------


def _push(push: dict, f: str) -> LatticeMap:
    m = push.get(f)
    if m is None:
        raise MalformedInputError(f"no exceptional map for {f!r}")
    return m


def codescent_classes(push: dict, nerve: CechDiagram) -> list[int]:
    """The order-congruence quotient of D(X0) identifying the two
    pushforwards from the overlap, as one bitmask row per position: bit j
    of row i is set when i reaches j through the lattice order and both
    directions of the identification, closed by Warshall's algorithm
    (JACM 1962).  A class is a set of positions that reach each other."""
    e0 = _push(push, nerve.faces[(1, 0)])
    e1 = _push(push, nerve.faces[(1, 1)]).targets
    reach = list(e0.dst._up)
    for i, j in zip(e0.targets, e1):
        reach[i] |= 1 << j
        reach[j] |= 1 << i
    for k in range(len(reach)):
        rk = reach[k]
        for i, ri in enumerate(reach):
            if ri >> k & 1:
                reach[i] = ri | rk
    return reach


def check_codescent(push: dict, nerve: CechDiagram) -> VerificationReport:
    """The quotient maps order-isomorphically onto the covered object's
    lattice through the pushforward along the atlas."""
    rep = VerificationReport("codescent")
    reach = codescent_classes(push, nerve)
    push_x = _push(push, nerve.aug[0])
    target = push_x.dst
    witness = None
    pair = _order_mismatch(reach, target._up, push_x.targets)
    if pair:
        witness = {"pair": [push_x.src.elements[a] for a in pair], "reason": "order mismatch"}
    else:
        missed = set(range(len(target.elements))) - set(push_x.targets)
        if missed:
            witness = {"reason": "not surjective", "element": min(target.elements[y] for y in missed)}
    # every position reaches itself, so two positions reach each other
    # exactly when their rows are equal: a class is a distinct row
    rep.add(
        "colimit-comparison",
        witness is None,
        witness or {"classes": len(set(reach)), "atlas": nerve.x},
        anchor="cech-codescent",
    )
    return rep


def extended_shriek_map(push: dict, hc: Hypercover) -> LatticeMap:
    """The map induced on codescent quotients by a hypercover's level maps.

    The codescent precondition on both nerves is the caller's to check
    (`extend_system_E` checks each atlas's nerve once)."""
    push_x = _push(push, hc.src_nerve.aug[0])
    push_y = _push(push, hc.dst_nerve.aug[0])
    level0 = _push(push, hc.levels[0]).targets
    LA = push_x.dst
    # each position of LA with the images of the positions push_x sends to it
    images: list = [set() for _ in LA.elements]
    for a, l in enumerate(push_x.targets):
        images[l].add(push_y.targets[level0[a]])
    for l, vals in zip(LA.elements, images):
        if len(vals) != 1:
            raise MalformedInputError(f"extension along {hc.f!r} not well defined at {l!r}")
    return LatticeMap(LA, push_y.dst, tuple(vals.pop() for vals in images))


def extend_system_E(pd: PairDeclaration, push: dict) -> dict:
    """Exceptional maps for every ambient exceptional morphism, each induced
    on colimits from the first hypercover the level-one search finds.

    The search is the memoized `find_hypercovers`.  The codescent
    precondition is checked here, once per atlas in order of first use,
    before any map is built."""
    if pd.kind != "exceptional":
        raise MalformedInputError("extension of exceptional maps needs an exceptional pair")
    chosen = {}
    for f in sorted(pd.big.e.members):
        hc, limited = find_hypercovers(pd, f)
        if hc is None:
            if limited:
                raise ResourceLimitError(f"hypercover search for {f!r} exhausted the carrier")
            raise MalformedInputError(f"no hypercover matches {f!r}")
        chosen[f] = hc
    gated = set()
    for hc in chosen.values():
        # every nerve here is the level-one nerve of its atlas on pd.big
        for nerve in (hc.src_nerve, hc.dst_nerve):
            if nerve.x in gated:
                continue
            gated.add(nerve.x)
            gate = check_codescent(push, nerve)
            if not gate.passed:
                raise MalformedInputError(
                    f"codescent precondition fails for atlas {nerve.x!r}: "
                    f"{gate.first_failure().witness}"
                )
    return {f: extended_shriek_map(push, hc) for f, hc in chosen.items()}


# -- localization premises -------------------------------------------------


class LocalizationProblem:
    """A functor together with the class it is meant to invert.

    The precondition that the class lands in isomorphisms is recomputed."""

    def __init__(self, p: FunctorData, r: frozenset):
        self.p, self.r = p, r
        src = self.p.source
        self.r = frozenset(self.r)
        unknown = sorted(self.r - set(src.morphism_ids))
        if unknown:
            raise MalformedInputError(f"unknown morphisms in class: {unknown[:3]}")
        for m in sorted(self.r):
            if self.p.on_mor(m) not in self.p.target.iso_ids:
                raise MalformedInputError(f"{m!r} is not sent to an isomorphism")


def fiber_category(lp: LocalizationProblem, d: str) -> FinCategory:
    """Objects over d and morphisms over its identity."""
    over = full_subcategory(lp.p.source, [x for x in lp.p.source.objects if lp.p.on_obj(x) == d])
    return wide_subcategory(over, {m for m in over.morphism_ids if lp.p.on_mor(m) == lp.p.target.identity[d]})


def check_localization_premises(lp: LocalizationProblem) -> VerificationReport:
    """Surjectivity of the functor on nerve cells up to dimension two, and
    binary products in every fiber with projections in the inverted class
    (identities allowed)."""
    rep = VerificationReport("localization-premises")
    src, dst = lp.p.source, lp.p.target

    images = (
        lambda: {lp.p.on_obj(x) for x in src.objects},
        lambda: {lp.p.on_mor(m) for m in src.morphism_ids},
        lambda: {(lp.p.on_mor(g), lp.p.on_mor(f)) for g, f in src.composable_pairs},
    )
    cells = (sorted(dst.objects), sorted(dst.morphism_ids), dst.composable_pairs)

    def missed(case):
        n, cell, image = case
        if cell not in image:
            return {"dimension": n, "simplex": list(cell) if n == 2 else cell}

    # a dimension's image is built once the cells below it are all hit
    cases = ((n, cell, image) for n in range(3) for image in (images[n](),) for cell in cells[n])
    counts = {"objects": len(dst.objects), "morphisms": len(dst.morphism_ids)}
    rep.sweep("nerve-surjectivity", cases, missed, anchor="localization-premise-nerve", counts=counts)

    def no_product(case):
        d, fib, c1, c2 = case
        if not _fiber_product_exists(lp, fib, c1, c2):
            return {"object": d, "pair": [c1, c2]}

    fibers = ((d, fiber_category(lp, d)) for d in dst.objects)
    pairs = ((d, fib, c1, c2) for d, fib in fibers for c1 in fib.objects for c2 in fib.objects)
    rep.sweep(
        "fiber-products", pairs, no_product, anchor="localization-premise-products", counts=lambda n, _: {"pairs": n}
    )
    return rep


def _fiber_product_exists(lp: LocalizationProblem, fib: FinCategory, c1: str, c2: str) -> bool:
    for apex in fib.objects:
        for l1 in fib.hom(apex, c1):
            if l1 not in lp.r and not fib.is_identity(l1):
                continue
            for l2 in fib.hom(apex, c2):
                if l2 not in lp.r and not fib.is_identity(l2):
                    continue
                if verify_product(fib, apex, (l1, l2), (c1, c2)):
                    return True
    return False
