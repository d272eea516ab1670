"""The descent layer on positions against the name-level routines it
replaced, transcribed here: maps read through their tables, orders through
`leq`, and the codescent congruence closed by a boolean Floyd-Warshall.
The first-match hypercover search is checked against the exhaustive
level-one search it replaced, transcribed as a scan of both hom-sets.

Inputs are drawn so that the routines fail as well as pass: frame systems
on small all-function carriers under drawn atlases, with a tensor that need
not restrict to descent data; drawn systems on small posets, where
restriction need not glue; and exceptional maps swapped for other maps of
the same type.  `test_every_witness_is_reached` pins one input per witness.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from corrkit.descent import (
    Atlas,
    CechDiagram,
    Hypercover,
    PairDeclaration,
    _push,
    _search_hypercovers,
    best_nerve,
    cech_nerve,
    check_codescent,
    check_descent,
    codescent_classes,
    compare_atlases,
    descent_lattice,
    extend_system_C,
    extended_shriek_map,
    find_hypercovers,
)
from corrkit.fincat import finset_category, finset_skeleton, injections, poset_category, surjections
from corrkit.lattices import (
    CoefficientSystem,
    FiniteLattice,
    LatticeMap,
    chain_lattice,
    frame_system,
    left_adjoint,
    monotone_maps_between,
    power_lattice,
)
from corrkit.report import MalformedInputError, ResourceLimitError, VerificationReport
from corrkit.setups import EdgeClass, GeometricSetup, NagataSetup, all_class, iso_class
from corrkit.shriek import ShriekAssignment, _sharp, _star, build_shriek, check_independence, factorizations

from test_lattice import named_map

DRAWN = settings(max_examples=40, deadline=None, derandomize=True)


# -- the name-level routines -------------------------------------------------


def _le(L):
    return lambda a, b: (a, b) in L.leq


def _old_descent_elements(sys, nerve):
    if nerve.m < 1:
        raise MalformedInputError("descent needs at least the overlap level")
    p0 = sys.pull(nerve.faces[(1, 0)]).table
    p1 = sys.pull(nerve.faces[(1, 1)]).table
    return [l for l in sys.lattice(nerve.objects[0]).elements if p0[l] == p1[l]]


def _old_descent_lattice(sys, nerve):
    base = sys.lattice(nerve.objects[0])
    els = _old_descent_elements(sys, nerve)
    keep = set(els)
    leq = frozenset(p for p in base.leq if p[0] in keep and p[1] in keep)
    tensor = None
    if base.tensor_table is not None:
        tensor = {}
        for a in els:
            for b in els:
                t = base.tensor_table[(a, b)]
                if t not in keep:
                    raise MalformedInputError(f"tensor does not restrict to descent data at ({a!r}, {b!r})")
                tensor[(a, b)] = t
    return FiniteLattice(tuple(els), leq, tensor)


def _old_order_mismatch(elements, le, le_image, image):
    for a in elements:
        for b in elements:
            if le(a, b) != le_image(image(a), image(b)):
                return [a, b]
    return None


def _old_check_descent(setup, sys, atlas):
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
    dd = _old_descent_elements(sys, nerve)
    witness = None
    if nerve.m >= 2:
        c = setup.category
        vertex = (
            c.comp(nerve.faces[(1, 1)], nerve.faces[(2, 2)]),
            c.comp(nerve.faces[(1, 0)], nerve.faces[(2, 2)]),
            c.comp(nerve.faces[(1, 0)], nerve.faces[(2, 0)]),
        )
        pulls = [sys.pull(v).table for v in vertex]
        for l in dd:
            vals = {p[l] for p in pulls}
            if len(vals) != 1:
                witness = {"element": l, "values": sorted(vals)}
                break
    vacuous = {"level": nerve.m, "vacuous": nerve.m < 2}
    rep.add("cocycle-condition", witness is None, witness or vacuous, anchor="cech-cocycle")
    x = atlas.x
    base = sys.lattice(atlas.target)
    px = sys.pull(x).table
    image = {px[l] for l in base.elements}
    witness = None
    if len(image) != len(base.elements):
        witness = {"reason": "restriction not injective"}
    elif image != set(dd):
        diff = sorted(image ^ set(dd))
        witness = {"reason": "image differs from descent data", "element": diff[0]}
    else:
        pair = _old_order_mismatch(base.elements, _le(base), _le(sys.lattice(nerve.objects[0])), px.__getitem__)
        if pair:
            witness = {"reason": "order not reflected", "pair": pair}
    matched = {"atlas": x, "matched": len(dd), "level": nerve.m}
    rep.add("descent-comparison", witness is None, witness or matched, anchor="cech-descent")
    return rep


def _old_compare_atlases(pd, sys, a1, a2):
    c = pd.big.category
    if c.dst(a1.x) != c.dst(a2.x):
        raise MalformedInputError("atlases cover different objects")
    rep = VerificationReport("atlas-independence")
    try:
        n1 = best_nerve(pd.big, a1)
        n2 = best_nerve(pd.big, a2)
        apex, r1, r2 = pd.big.pullback(a1.x, a2.x)
    except ResourceLimitError:
        rep.add_limit(
            "comparison-unique",
            {"atlases": [a1.x, a2.x], "reason": "product atlas outside the carrier"},
            anchor="atlas-independence-zigzag",
        )
        return rep
    dd1 = _old_descent_elements(sys, n1)
    dd2 = _old_descent_elements(sys, n2)
    p1, p2 = sys.pull(r1).table, sys.pull(r2).table
    table = {}
    witness = None
    for l1 in dd1:
        cands = [l2 for l2 in dd2 if p1[l1] == p2[l2]]
        if len(cands) != 1:
            witness = {"element": l1, "candidates": len(cands)}
            break
        table[l1] = cands[0]
    rep.add("comparison-unique", witness is None, witness or {"size": len(dd1)}, anchor="atlas-independence-zigzag")
    if witness is not None:
        return rep
    L1 = _old_descent_lattice(sys, n1)
    L2 = _old_descent_lattice(sys, n2)
    witness = None
    if len(set(table.values())) != len(dd2):
        witness = {"reason": "comparison not bijective"}
    else:
        pair = _old_order_mismatch(dd1, _le(L1), _le(L2), table.__getitem__)
        if pair:
            witness = {"reason": "order not preserved", "pair": pair}
    rep.add("comparison-order-iso", witness is None, witness or {"size": len(dd1)}, anchor="atlas-independence-zigzag")
    return rep


def _old_transport_atlas(pd, chosen, obj):
    if obj in chosen:
        return chosen[obj].x
    return pd.big.category.identity[obj]


def _old_transport_pull(pd, sys, lattices, chosen, f):
    c = pd.big.category
    src_o, dst_o = c.morphisms[f]
    xa = _old_transport_atlas(pd, chosen, src_o)
    xb = _old_transport_atlas(pd, chosen, dst_o)
    apex, a_leg, b_leg = pd.big.pullback(c.comp(f, xa), xb)
    if a_leg not in sys.restriction or b_leg not in sys.restriction:
        raise MalformedInputError(f"transport overlap for {f!r} lies outside the declared sub-setup")
    pa, pb = sys.pull(a_leg).table, sys.pull(b_leg).table
    table = {}
    for l in lattices[dst_o].elements:
        want = pb[l]
        cands = [mm for mm in lattices[src_o].elements if pa[mm] == want]
        if len(cands) != 1:
            raise MalformedInputError(f"restriction along {f!r} not determined by descent at {l!r}")
        table[l] = cands[0]
    return named_map(lattices[dst_o], lattices[src_o], table)


def _old_extend_system_C(pd, sys):
    c = pd.big.category
    small = set(pd.small_objects)
    lattices, chosen = {}, {}
    for obj in c.objects:
        if obj in small:
            lattices[obj] = sys.lattice(obj)
        else:
            a = pd.atlases[obj][0]
            chosen[obj] = a
            lattices[obj] = _old_descent_lattice(sys, best_nerve(pd.big, a))
    restriction = {}
    for f in c.morphism_ids:
        src_o, dst_o = c.morphisms[f]
        if src_o in small and dst_o in small:
            restriction[f] = sys.pull(f)
        else:
            restriction[f] = _old_transport_pull(pd, sys, lattices, chosen, f)
    return CoefficientSystem(c, lattices, restriction)


def _old_codescent_classes(sa, nerve):
    if nerve.m < 1:
        raise MalformedInputError("codescent needs at least the overlap level")
    sys = sa.sys
    L0 = sys.lattice(nerve.objects[0])
    L1 = sys.lattice(nerve.objects[1])
    e0 = _push(sa, nerve.faces[(1, 0)]).table
    e1 = _push(sa, nerve.faces[(1, 1)]).table
    els = list(L0.elements)
    idx = {a: i for i, a in enumerate(els)}
    n = len(els)
    reach = [[False] * n for _ in range(n)]
    for a, b in L0.leq:
        reach[idx[a]][idx[b]] = True
    for m in L1.elements:
        i, j = idx[e0[m]], idx[e1[m]]
        reach[i][j] = True
        reach[j][i] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    class_of = {}
    for i, a in enumerate(els):
        class_of[a] = next(b for j, b in enumerate(els) if reach[i][j] and reach[j][i])
    return els, reach, class_of


def _old_check_codescent(sa, nerve):
    rep = VerificationReport("codescent")
    els, reach, class_of = _old_codescent_classes(sa, nerve)
    push_x = _push(sa, nerve.aug[0]).table
    target = sa.sys.lattice(sa.sys.category.dst(nerve.aug[0]))
    idx = {a: i for i, a in enumerate(els)}
    witness = None
    pair = _old_order_mismatch(els, lambda a, b: reach[idx[a]][idx[b]], _le(target), push_x.__getitem__)
    if pair:
        witness = {"pair": pair, "reason": "order mismatch"}
    else:
        hit = {push_x[a] for a in els}
        if hit != set(target.elements):
            witness = {"reason": "not surjective", "element": sorted(set(target.elements) - hit)[0]}
    rep.add(
        "colimit-comparison",
        witness is None,
        witness or {"classes": len(set(class_of.values())), "atlas": nerve.x},
        anchor="cech-codescent",
    )
    return rep


def _old_extended_shriek_map(pd, sa, hc):
    c = pd.big.category
    sys = sa.sys
    src_o, dst_o = c.morphisms[hc.f]
    push_x = _push(sa, hc.src_nerve.aug[0]).table
    push_y = _push(sa, hc.dst_nerve.aug[0]).table
    level0 = _push(sa, hc.levels[0]).table
    LA, LB, LX = sys.lattice(src_o), sys.lattice(dst_o), sys.lattice(hc.src_nerve.objects[0])
    images = {l: set() for l in LA.elements}
    for a in LX.elements:
        images[push_x[a]].add(push_y[level0[a]])
    for l, vals in images.items():
        if len(vals) != 1:
            raise MalformedInputError(f"extension along {hc.f!r} not well defined at {l!r}")
    return named_map(LA, LB, {l: vals.pop() for l, vals in images.items()})


def _old_search_hypercovers(pd, f):
    """Every level-one hypercover of f, by a scan of both hom-sets, and
    whether some atlas pair's overlap lies outside the carrier."""
    c = pd.big.category
    out, limited = [], False
    for xa in pd.atlases.get(c.src(f), ()):
        for ya in pd.atlases.get(c.dst(f), ()):
            try:
                nx, ny = cech_nerve(pd.big, xa, 1), cech_nerve(pd.big, ya, 1)
            except ResourceLimitError:
                limited = True
                continue
            for f0 in c.hom(nx.objects[0], ny.objects[0]):
                if f0 not in pd.e_small or c.comp(ya.x, f0) != c.comp(f, xa.x):
                    continue
                for f1 in c.hom(nx.objects[1], ny.objects[1]):
                    if f1 not in pd.e_small:
                        continue
                    if any(c.comp(ny.faces[(1, i)], f1) != c.comp(f0, nx.faces[(1, i)]) for i in (0, 1)):
                        continue
                    if c.comp(ny.degeneracies[(0, 0)], f0) == c.comp(f1, nx.degeneracies[(0, 0)]):
                        out.append(Hypercover(f, nx, ny, (f0, f1)))
    return out, limited


def _old_check_independence(ns, sys, f):
    rep = VerificationReport("shriek-independence")
    facts = factorizations(ns, f)
    if not facts:
        raise MalformedInputError(f"no factorization for {f!r}")
    _, j, p = facts[0]
    star, sharp = _star(sys, p).table, _sharp(sys, j).table
    canonical = {e: star[sharp[e]] for e in sharp}
    witness = None
    for k, j, p in facts[1:]:
        star, sharp = _star(sys, p).table, _sharp(sys, j).table
        for e, want in canonical.items():
            got = star[sharp[e]]
            if got != want:
                witness = {"factorization": [k, j, p], "element": e, "canonical": want, "candidate": got}
                break
        if witness:
            break
    count = {"factorizations": len(facts)}
    rep.add("factorization-independence", witness is None, witness or count, anchor="exceptional-map-well-defined")
    return rep


# -- comparing outcomes ------------------------------------------------------


def _outcome(build, read):
    """What a call returns, read through `read`, or the error it raises."""
    try:
        return "ok", read(build())
    except (MalformedInputError, ResourceLimitError) as exc:
        return type(exc).__name__, str(exc)


def _lattice(L):
    return L.elements, L.leq, L.tensor_table


def _map(m):
    return _lattice(m.src), _lattice(m.dst), m.table


def _system(sys):
    return {x: _lattice(L) for x, L in sys.lattices.items()}, {f: m.table for f, m in sys.restriction.items()}


def _checks(rep):
    return rep.checks


def _agree(new, old, read, *args) -> tuple:
    """The outcome of new(*args), asserted to be that of old(*args)."""
    got = _outcome(lambda: new(*args), read)
    assert got == _outcome(lambda: old(*args), read)
    return got


# -- drawn inputs --------------------------------------------------------------


def _retensored(sys, x, c):
    """sys with the tensor of D(x) replaced by (a tensor b) join c: still
    monotone in each slot, but closed on descent data only when c is."""
    L = sys.lattice(x)
    els, rows = L.elements, L._tensor_rows
    table = {(els[a], els[b]): els[L._joins[L._up[t] & L._up[c]]] for a, row in enumerate(rows) for b, t in enumerate(row)}
    lattices = {**sys.lattices, x: FiniteLattice(els, L.leq, table)}
    cat = sys.category
    restriction = {
        m: LatticeMap(lattices[cat.dst(m)], lattices[cat.src(m)], r.targets) if x in cat.morphisms[m] else r
        for m, r in sys.restriction.items()
    }
    return CoefficientSystem(sys.category, lattices, restriction)


LATTICES = {"chain1": chain_lattice(1), "chain2": chain_lattice(2)}


@lru_cache(maxsize=None)
def _cover_setup():
    # the smallest all-function carrier holding the overlap of a 2-to-1 map
    c = finset_category({"1": 1, "2": 2, "4": 4})
    return GeometricSetup(c, all_class(c))


@lru_cache(maxsize=None)
def _frame(lattice, retensor=None):
    sys = frame_system(_cover_setup(), LATTICES[lattice])
    return sys if retensor is None else _retensored(sys, *retensor)


@st.composite
def frame_systems(draw):
    """A frame system on the cover carrier, its tensor perhaps moved off
    descent data at one object."""
    lattice = draw(st.sampled_from(sorted(LATTICES)))
    retensor = None
    if draw(st.booleans()):
        x = draw(st.sampled_from(["1", "2"]))
        retensor = (x, draw(st.integers(0, len(_frame(lattice).lattice(x).elements) - 1)))
    return _frame(lattice, retensor)


def _atlas(setup, x):
    return Atlas(setup, x, EdgeClass(setup.category, frozenset()), setup.category.objects)


def cover_atlases(target=None):
    """Maps out of sets of size at most 2, whose overlaps the carrier
    mostly holds, and two out of the 4-element set."""
    c = _cover_setup().category
    ids = [m for m in c.morphism_ids if c.src(m) != "4"] + ["4>1:0.0.0.0", "4>4:0.1.2.3"]
    return st.sampled_from([m for m in ids if target in (None, c.dst(m))])


@lru_cache(maxsize=None)
def _diamond():
    # m below a and b below t: the meet of a and b is m
    order = {("m", "a"), ("m", "b"), ("a", "t"), ("b", "t"), ("m", "t")}
    c = poset_category(("m", "a", "b", "t"), lambda x, y: x == y or (x, y) in order)
    return GeometricSetup(c, EdgeClass(c, frozenset()))


SMALL_LATTICES = (chain_lattice(0), chain_lattice(1), chain_lattice(2), chain_lattice(3), power_lattice(chain_lattice(1), 2))


@lru_cache(maxsize=None)
def _top_preserving(i, j):
    L, M = SMALL_LATTICES[i], SMALL_LATTICES[j]
    return [m for m in monotone_maps_between(L, M) if m.targets[L._top] == M._top]


def _diamond_system(lattices, targets):
    """A system on the diamond: restriction along x <= y given by
    targets[(x, y)], the identity where none is given."""
    setup = _diamond()
    restriction = {}
    for f, (x, y) in setup.category.morphisms.items():
        identity = tuple(range(len(lattices[x].elements)))
        restriction[f] = LatticeMap(lattices[y], lattices[x], targets.get((x, y), identity))
    return CoefficientSystem(setup.category, lattices, restriction)


@st.composite
def diamond_systems(draw):
    """A lattice per object of the diamond and drawn top-preserving
    restrictions; the one along m <= b is drawn among those that make the
    square commute, or else every map into m sends everything to its top."""
    pick = {x: draw(st.integers(0, len(SMALL_LATTICES) - 1)) for x in _diamond().category.objects}
    lattices = {x: SMALL_LATTICES[i] for x, i in pick.items()}
    edge = {}
    for x, y in (("a", "t"), ("b", "t"), ("m", "a")):
        edge[(x, y)] = draw(st.sampled_from(_top_preserving(pick[y], pick[x]))).targets
    edge[("m", "t")] = tuple(edge[("m", "a")][t] for t in edge[("a", "t")])
    fits = [
        g.targets
        for g in _top_preserving(pick["b"], pick["m"])
        if tuple(g.targets[t] for t in edge[("b", "t")]) == edge[("m", "t")]
    ]
    if fits:
        edge[("m", "b")] = draw(st.sampled_from(fits))
    else:
        for y in ("a", "b", "t"):
            edge[("m", y)] = (lattices["m"]._top,) * len(lattices[y].elements)
    return _diamond_system(lattices, edge)


# -- descent -------------------------------------------------------------------


@DRAWN
@given(frame_systems(), st.data())
def test_descent_on_frame_systems_matches_the_routines_by_names(sys, data):
    setup = _cover_setup()
    atlas = _atlas(setup, data.draw(cover_atlases()))
    _agree(check_descent, _old_check_descent, _checks, setup, sys, atlas)
    try:
        nerve = best_nerve(setup, atlas)
    except ResourceLimitError:
        return
    _agree(descent_lattice, _old_descent_lattice, _lattice, sys, nerve)
    target = setup.category.dst(atlas.x)
    other = _atlas(setup, data.draw(cover_atlases(target)))
    pd = PairDeclaration("nice", setup, setup.category.objects, frozenset(), frozenset(), frozenset(), {})
    _agree(compare_atlases, _old_compare_atlases, _checks, pd, sys, atlas, other)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(diamond_systems(), st.data())
def test_descent_on_poset_systems_matches_the_routines_by_names(sys, data):
    setup = _diamond()
    c = setup.category
    x = data.draw(st.sampled_from(c.morphism_ids))
    atlas = _atlas(setup, x)
    _agree(check_descent, _old_check_descent, _checks, setup, sys, atlas)
    other = _atlas(setup, data.draw(st.sampled_from([m for m in c.morphism_ids if c.dst(m) == c.dst(x)])))
    pd = PairDeclaration("nice", setup, c.objects, frozenset(), frozenset(), frozenset(), {})
    _agree(compare_atlases, _old_compare_atlases, _checks, pd, sys, atlas, other)


@lru_cache(maxsize=None)
def _transport_setup():
    # X and Y are presented through atlases out of the small objects
    c = finset_category({"0": 0, "1": 1, "2": 2, "4": 4, "X": 1, "Y": 2})
    return GeometricSetup(c, all_class(c))


SMALL = ("0", "1", "2", "4")


def _transport_pair(x_atlas, y_atlas):
    s = _transport_setup()
    c = s.category
    small_m = frozenset(m for m in c.morphism_ids if c.src(m) in SMALL and c.dst(m) in SMALL)
    atlases = {"X": (x_atlas,), "Y": (y_atlas,)}
    return PairDeclaration("nice", s, SMALL, frozenset(), frozenset(), small_m, atlases)


@lru_cache(maxsize=None)
def _small_frame(lattice, retensor=None):
    pd = _transport_pair("1>X:0", "2>Y:0.1")
    sys = frame_system(pd.small_setup(pd.e_small), LATTICES[lattice])
    return sys if retensor is None else _retensored(sys, *retensor)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_extension_of_restrictions_matches_the_routines_by_names(data):
    c = _transport_setup().category
    into = {y: [m for m in c.morphism_ids if c.dst(m) == y and c.src(m) in ("0", "1", "2")] for y in ("X", "Y")}
    pd = _transport_pair(data.draw(st.sampled_from(into["X"])), data.draw(st.sampled_from(into["Y"])))
    lattice = data.draw(st.sampled_from(sorted(LATTICES)))
    retensor = None
    if data.draw(st.booleans()):
        retensor = ("2", data.draw(st.integers(0, len(LATTICES[lattice].elements) ** 2 - 1)))
    sys = _small_frame(lattice, retensor)
    _agree(extend_system_C, _old_extend_system_C, _system, pd, sys)


# -- codescent -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _shriek(lattice):
    setup = _cover_setup()
    c = setup.category
    return build_shriek(NagataSetup(setup, all_class(c), iso_class(c)), _frame(lattice))


@st.composite
def perturbed_shrieks(draw):
    """The constructed exceptional maps of the cover carrier, a drawn few of
    them swapped for the left adjoint of the pullback, a constant, or the
    map of another morphism with the same ends."""
    sa = _shriek(draw(st.sampled_from(sorted(LATTICES))))
    c = sa.ns.setup.category
    shriek = dict(sa.shriek)
    for f in draw(st.lists(st.sampled_from(sorted(m for m in shriek if c.src(m) != "4")), max_size=4)):
        m = shriek[f]
        kind = draw(st.sampled_from(("sharp", "top", "bottom", "other")))
        if kind == "sharp":
            shriek[f] = left_adjoint(sa.sys.pull(f))
        elif kind == "other":
            shriek[f] = shriek[draw(st.sampled_from(c.hom(*c.morphisms[f])))]
        else:
            value = m.dst._top if kind == "top" else m.dst._bot
            shriek[f] = LatticeMap(m.src, m.dst, (value,) * len(m.targets))
    return ShriekAssignment(sa.ns, sa.sys, shriek)


@DRAWN
@given(perturbed_shrieks(), st.data())
def test_codescent_matches_the_boolean_closure(sa, data):
    setup = _cover_setup()
    try:
        nerve = best_nerve(setup, _atlas(setup, data.draw(cover_atlases())))
    except ResourceLimitError:
        return
    els, reach, class_of = _old_codescent_classes(sa, nerve)
    rows = codescent_classes(sa, nerve)
    assert [[bool(r >> j & 1) for j in range(len(els))] for r in rows] == reach
    assert len(set(rows)) == len(set(class_of.values()))
    _agree(check_codescent, _old_check_codescent, _checks, sa, nerve)


def _exceptional_pair(extra):
    setup = _cover_setup()
    c = setup.category
    atlases = {o: (c.identity[o],) for o in c.objects}
    for x in extra:
        atlases[c.dst(x)] += (x,)
    return PairDeclaration(
        "exceptional",
        setup,
        c.objects,
        frozenset(),
        frozenset(surjections(c)),
        frozenset(c.morphism_ids),
        atlases,
    )


@DRAWN
@given(perturbed_shrieks(), st.data())
def test_extended_exceptional_maps_match_the_routine_by_names(sa, data):
    c = sa.ns.setup.category
    pd = _exceptional_pair(data.draw(st.lists(st.sampled_from(["2>1:0.0", "2>2:0.0", "1>2:0", "2>2:1.0"]), max_size=2)))
    f = data.draw(st.sampled_from(sorted(m for m in c.morphism_ids if c.src(m) != "4")))
    found = [hc for hc in _search_hypercovers(pd, f) if hc is not None]
    for hc in found[:4]:
        _agree(extended_shriek_map, _old_extended_shriek_map, _map, pd, sa, hc)


def _hypercover(hc):
    return hc.f, hc.src_nerve.x, hc.dst_nerve.x, hc.levels


@st.composite
def hypercover_pairs(draw):
    """Exceptional pairs on a fresh copy of the cover carrier: each object
    with its identity atlas and drawn ones among 2 -> 1, 2 -> 2, 1 -> 2
    and 4 -> 1 (whose overlap needs 16 points), in a drawn order, and
    E_small every map, the surjections or the isomorphisms, sometimes with
    a drawn set of maps removed.  In these classes a level-one map forces
    its level-zero map in (the faces are split surjections), so only a
    removal tests the level-zero filter on its own.

    A Čech nerve's overlap is a pullback, so its faces determine a level-one
    map and the degeneracy condition follows from them.  To reach that
    condition, the identity atlas of 2 is sometimes presented instead by a
    truncated simplicial object whose faces are one retraction r of a
    section s0: 2 -> 4, stored in the carrier's nerve memo."""
    c = finset_category({"1": 1, "2": 2, "4": 4})
    setup = GeometricSetup(c, all_class(c))
    extra = draw(st.lists(st.sampled_from(["2>1:0.0", "2>2:0.0", "1>2:0", "2>2:1.0", "4>1:0.0.0.0"]), unique=True))
    atlases = {}
    for o in c.objects:
        lst = [c.identity[o]] + [x for x in extra if c.dst(x) == o]
        atlases[o] = tuple(draw(st.permutations(lst)))
    e_small = draw(st.sampled_from([frozenset(c.morphism_ids), surjections(c), c.iso_ids]))
    if draw(st.booleans()):
        e_small -= draw(st.frozensets(st.sampled_from(sorted(e_small))))
    if draw(st.booleans()):
        s0 = draw(st.sampled_from(sorted(injections(c) & set(c.hom("2", "4")))))
        r = draw(st.sampled_from([r for r in c.hom("4", "2") if c.comp(r, s0) == c.identity["2"]]))
        ident = c.identity["2"]
        c._nerves[(ident, 1)] = CechDiagram(c, ident, 1, ("2", "4"), {(1, 0): r, (1, 1): r}, {(0, 0): s0}, (ident, r))
    return PairDeclaration("exceptional", setup, c.objects, frozenset(), frozenset(), e_small, atlases)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(hypercover_pairs())
def test_the_first_match_search_matches_the_exhaustive_search(pd):
    for f in sorted(pd.big.e.members):
        old, old_limited = _old_search_hypercovers(pd, f)
        items = list(_search_hypercovers(pd, f))
        assert [_hypercover(hc) for hc in items if hc is not None] == [_hypercover(hc) for hc in old], f
        assert (None in items) == old_limited, f
        hc, limited = find_hypercovers(pd, f)
        if old:
            assert _hypercover(hc) == _hypercover(old[0]), f
        else:
            assert hc is None and limited == old_limited, f


# -- independence of the factorization -----------------------------------------


@lru_cache(maxsize=None)
def _skeleton3():
    c = finset_skeleton(3)
    return c, {"all": all_class(c).members, "iso": c.iso_ids, "inj": injections(c), "surj": surjections(c)}


@DRAWN
@given(st.data())
def test_independence_matches_the_routine_by_names(data):
    c, classes = _skeleton3()
    i_class, p_class = (frozenset(classes[data.draw(st.sampled_from(sorted(classes)))]) for _ in range(2))
    setup = GeometricSetup(c, EdgeClass(c, i_class | p_class))
    ns = NagataSetup(setup, EdgeClass(c, i_class), EdgeClass(c, p_class))
    sys = frame_system(setup, LATTICES[data.draw(st.sampled_from(sorted(LATTICES)))])
    f = data.draw(st.sampled_from(c.morphism_ids))
    _agree(check_independence, _old_check_independence, _checks, ns, sys, f)


# -- every witness, reached ------------------------------------------------------


def _chain_system(upper, lower, targets):
    """D(1) = upper and D(0) = lower on the chain 0 <= 1, restriction along
    0 <= 1 given by target positions."""
    c = poset_category(("0", "1"), lambda x, y: x <= y)
    lattices = {"0": lower, "1": upper}
    restriction = {
        "0<=0": LatticeMap(lower, lower, tuple(range(len(lower.elements)))),
        "1<=1": LatticeMap(upper, upper, tuple(range(len(upper.elements)))),
        "0<=1": LatticeMap(upper, lower, targets),
    }
    return CoefficientSystem(c, lattices, restriction)


@lru_cache(maxsize=None)
def _witness_cases():
    chain1, chain2, chain3, square = chain_lattice(1), chain_lattice(2), chain_lattice(3), power_lattice(chain_lattice(1), 2)
    cases = {}

    def setup(sys):
        return GeometricSetup(sys.category, EdgeClass(sys.category, frozenset()))

    def descent(sys, x):
        return check_descent, _old_check_descent, _checks, setup(sys), sys, _atlas(setup(sys), x)

    def atlases(sys, x1, x2):
        pd = PairDeclaration(
            "nice", setup(sys), sys.category.objects, frozenset(), frozenset(), frozenset(), {}
        )
        return compare_atlases, _old_compare_atlases, _checks, pd, sys, _atlas(pd.big, x1), _atlas(pd.big, x2)

    cases["restriction not injective"] = descent(_chain_system(chain2, chain1, (0, 1, 1)), "0<=1")
    cases["image differs from descent data"] = descent(_chain_system(chain1, chain2, (0, 2)), "0<=1")
    # a monotone bijection from the square onto the 4-chain
    cases["order not reflected"] = descent(_chain_system(square, chain3, (0, 1, 2, 3)), "0<=1")
    # D(a) and D(b) meet in D(m) only at the top, or D(b) has two elements
    # over one of D(a), or one element of D(b) is over none of D(a), or
    # D(a) is the square and D(b) a chain
    def diamond(m, a, b, to_m, top):
        """D(m), D(a), D(b) over a point at t; to_m gives the maps from D(a)
        and D(b) into D(m), top the positions of the tops."""
        lattices = {"m": m, "a": a, "b": b, "t": chain_lattice(0)}
        targets = {("m", "a"): to_m[0], ("m", "b"): to_m[1], ("a", "t"): (top[0],), ("b", "t"): (top[1],)}
        sys = _diamond_system(lattices, {**targets, ("m", "t"): (m._top,)})
        return atlases(sys, "a<=t", "b<=t")

    cases["'candidates': 0"] = diamond(chain2, chain1, chain1, ((0, 2), (1, 2)), (1, 1))
    cases["'candidates': 2"] = diamond(chain1, chain1, chain2, ((0, 1), (0, 0, 1)), (1, 2))
    cases["comparison not bijective"] = diamond(chain2, chain1, chain2, ((0, 2), (0, 1, 2)), (1, 2))
    cases["order not preserved"] = diamond(chain3, square, chain3, ((0, 1, 2, 3), (0, 1, 2, 3)), (3, 3))

    # 2 -> 1 presents D(1) by the diagonal of D(2); a tensor joining (0,1)
    # leaves it
    sys = _frame("chain1", ("2", 1))
    nerve = best_nerve(_cover_setup(), _atlas(_cover_setup(), "2>1:0.0"))
    cases["tensor does not restrict"] = (descent_lattice, _old_descent_lattice, _lattice, sys, nerve)
    # a point presents Y, so a point of Y off it has two candidates at each
    # element
    pd, sys = _transport_pair("1>X:0", "1>Y:0"), _small_frame("chain1")
    cases["not determined by descent"] = (extend_system_C, _old_extend_system_C, _system, pd, sys)

    sa = _shriek("chain1")
    setup = _cover_setup()
    nerve = best_nerve(setup, _atlas(setup, "2>1:0.0"))
    bottom = LatticeMap(sa.shriek["2>1:0.0"].src, sa.shriek["2>1:0.0"].dst, (0,) * 4)
    broken = ShriekAssignment(sa.ns, sa.sys, {**sa.shriek, "2>1:0.0": bottom})
    cases["order mismatch"] = (check_codescent, _old_check_codescent, _checks, broken, nerve)
    # one face sends everything to the top, so the quotient is one class,
    # which a constant pushforward along the atlas matches in order
    face = nerve.faces[(1, 1)]
    top = {g: sa.shriek[g] for g in (face, "2>1:0.0")}
    top = {g: LatticeMap(m.src, m.dst, (m.dst._top,) * len(m.targets)) for g, m in top.items()}
    broken = ShriekAssignment(sa.ns, sa.sys, {**sa.shriek, **top})
    cases["not surjective"] = (check_codescent, _old_check_codescent, _checks, broken, nerve)
    pd = _exceptional_pair(["2>1:0.0"])
    hc = next(h for h in _search_hypercovers(pd, "1>1:0") if h.src_nerve.x == "2>1:0.0")
    broken = ShriekAssignment(sa.ns, sa.sys, {**sa.shriek, "2>1:0.0": LatticeMap(bottom.src, bottom.dst, (1,) * 4)})
    cases["not well defined"] = (extended_shriek_map, _old_extended_shriek_map, _map, pd, broken, hc)

    c, classes = _skeleton3()
    setup = GeometricSetup(c, EdgeClass(c, classes["inj"] | classes["surj"]))
    ns = NagataSetup(setup, EdgeClass(c, classes["inj"]), EdgeClass(c, classes["surj"]))
    sys = frame_system(setup, chain_lattice(1))
    cases["'candidate'"] = (check_independence, _old_check_independence, _checks, ns, sys, "1>2:0")
    return cases


WITNESSES = (
    "restriction not injective",
    "image differs from descent data",
    "order not reflected",
    "'candidates': 0",
    "'candidates': 2",
    "comparison not bijective",
    "order not preserved",
    "tensor does not restrict",
    "not determined by descent",
    "order mismatch",
    "not surjective",
    "not well defined",
    "'candidate'",
)


@pytest.mark.parametrize("witness", WITNESSES)
def test_every_witness_is_reached(witness):
    assert sorted(_witness_cases()) == sorted(WITNESSES)
    assert witness in str(_agree(*_witness_cases()[witness]))
