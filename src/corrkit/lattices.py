"""Finite lattices as coefficient values and Galois connections as adjoints.

All natural-transformation language collapses to elementwise equality of
monotone map tables, so adjointability, projection formulas, and the
external-product identity are decided by finite sweeps with witnesses.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property

from .fincat import FinCategory, canonical_product, fn_values
from .report import MalformedInputError, VerificationReport
from .setups import GeometricSetup


@dataclass
class FiniteLattice:
    """Elements with a partial order closed into meet/join tables.

    `tensor` defaults to meet; a non-meet table (still monotone in each
    slot) is allowed and exists to exercise failure paths downstream.
    """

    elements: tuple[str, ...]
    leq: frozenset
    tensor_table: dict | None = None

    def __post_init__(self):
        self.elements = tuple(self.elements)
        self.leq = frozenset(self.leq)
        index: dict = {}
        for i, x in enumerate(self.elements):
            index.setdefault(x, i)
        unknown = [(a, b) for a, b in self.leq if a not in index or b not in index]
        if unknown:
            a, b = min(unknown, key=repr)
            raise MalformedInputError(f"order mentions unknown element ({a!r}, {b!r})")
        for a in self.elements:
            if (a, a) not in self.leq:
                raise MalformedInputError(f"order not reflexive at {a!r}")
        # up-sets and down-sets as bitmasks over first positions (Ait-Kaci
        # et al., TOPLAS 1989); every scan below runs in `elements` order so
        # the first witness does not depend on set iteration order
        up = dict.fromkeys(index, 0)
        down = dict.fromkeys(index, 0)
        for a, b in self.leq:
            up[a] |= 1 << index[b]
            down[b] |= 1 << index[a]
        above = {a: tuple(b for b in index if up[a] >> index[b] & 1) for a in index}
        below = {a: tuple(b for b in index if down[a] >> index[b] & 1) for a in index}
        for a in self.elements:
            for b in above[a]:
                if a != b and up[b] >> index[a] & 1:
                    raise MalformedInputError(f"order not antisymmetric on ({a!r}, {b!r})")
                if up[b] & ~up[a]:
                    raise MalformedInputError(f"order not transitive via {b!r}")
        self._index = index
        self._above = above
        self._below = below
        # x is the meet of a and b iff down[x] == down[a] & down[b]; a
        # repeated element is never a unique meet or join
        repeated = {x for i, x in enumerate(self.elements) if index[x] != i}
        by_down = {down[x]: x for x in index}
        by_up = {up[x]: x for x in index}
        self._meet = {}
        self._join = {}
        for a in self.elements:
            for b in self.elements:
                m = by_down.get(down[a] & down[b])
                if m is None or m in repeated:
                    raise MalformedInputError(f"no meet for ({a!r}, {b!r})")
                self._meet[(a, b)] = m
                j = by_up.get(up[a] & up[b])
                if j is None or j in repeated:
                    raise MalformedInputError(f"no join for ({a!r}, {b!r})")
                self._join[(a, b)] = j
        # no element repeats past the meet loop, so positions are indices
        full = (1 << len(self.elements)) - 1
        if full not in by_up or full not in by_down:
            raise MalformedInputError("lattice must be bounded")
        self.bot, self.top = by_up[full], by_down[full]
        self._tensor = self._meet if self.tensor_table is None else self.tensor_table
        if self.tensor_table is not None:
            t = self.tensor_table
            for a in self.elements:
                for b in self.elements:
                    if (a, b) not in t:
                        raise MalformedInputError(f"tensor table missing ({a!r}, {b!r})")
            if len(t) != len(index) ** 2:
                extra = sorted((p for p in t if p[0] not in index or p[1] not in index), key=repr)
                raise MalformedInputError(f"tensor table defined outside the lattice: {extra[:3]}")
            for a in self.elements:
                for b in self.elements:
                    if t[(a, b)] not in index:
                        raise MalformedInputError(f"tensor value {t[(a, b)]!r} outside the lattice")
            # the order is transitive, so every b <= b2 is a chain of covers
            # and monotone along covers is monotone; a failing cover sends
            # the scan back over all pairs for the first witness
            if self._tensor_failure(self._covers(up)) is not None:
                pairs = [(b, b2) for b in self.elements for b2 in above[b]]
                raise MalformedInputError(self._tensor_failure(pairs))

    def _covers(self, up: dict) -> list[tuple[str, str]]:
        """Pairs b < b2 with nothing strictly between, in `elements` order."""
        index = self._index
        strict = {b: up[b] & ~(1 << index[b]) for b in index}
        out = []
        for b in self.elements:
            beyond = 0
            for c in self._above[b]:
                if c != b:
                    beyond |= strict[c]
            cover = strict[b] & ~beyond
            out.extend((b, c) for c in self._above[b] if cover >> index[c] & 1)
        return out

    def _tensor_failure(self, pairs) -> str | None:
        """The first slot, over a and then pairs b <= b2 in order, in which
        the tensor fails to be monotone; None if it is monotone along all."""
        t, leq = self.tensor_table, self.leq
        for a in self.elements:
            for b, b2 in pairs:
                if (t[(a, b)], t[(a, b2)]) not in leq:
                    return "tensor not monotone in second slot"
                if (t[(b, a)], t[(b2, a)]) not in leq:
                    return "tensor not monotone in first slot"
        return None

    def le(self, a: str, b: str) -> bool:
        return (a, b) in self.leq

    def meet(self, a: str, b: str) -> str:
        return self._meet[(a, b)]

    def join(self, a: str, b: str) -> str:
        return self._join[(a, b)]

    def tensor(self, a: str, b: str) -> str:
        return self._tensor[(a, b)]

    def join_all(self, xs) -> str:
        out = self.bot
        for x in xs:
            out = self.join(out, x)
        return out

    def meet_all(self, xs) -> str:
        out = self.top
        for x in xs:
            out = self.meet(out, x)
        return out

    @cached_property
    def is_frame(self) -> bool:
        # finite frames are exactly the distributive bounded lattices
        return all(
            self.meet(a, self.join(b, c)) == self.join(self.meet(a, b), self.meet(a, c))
            for a in self.elements
            for b in self.elements
            for c in self.elements
        )


@dataclass
class LatticeMap:
    src: FiniteLattice
    dst: FiniteLattice
    table: dict
    # "left"/"right" -> the adjoint or None, filled by left_/right_adjoint
    _adjoints: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        src, dst, t = self.src, self.dst, self.table
        missing = [x for x in src.elements if x not in t]
        if missing:
            raise MalformedInputError(f"map not total: {missing[:3]}")
        if len(t) != len(src.elements):
            extra = sorted((x for x in t if x not in src._index), key=repr)
            raise MalformedInputError(f"map defined outside its domain: {extra[:3]}")
        for x in src.elements:
            if t[x] not in dst._index:
                raise MalformedInputError(f"value {t[x]!r} outside codomain")
        for a in src.elements:
            ta = t[a]
            for b in src._above[a]:
                if (ta, t[b]) not in dst.leq:
                    raise MalformedInputError(f"not monotone on ({a!r}, {b!r})")

    def __call__(self, x: str) -> str:
        return self.table[x]

    def same_table(self, other: "LatticeMap") -> bool:
        return self.table == other.table


def identity_map(L: FiniteLattice) -> LatticeMap:
    return LatticeMap(L, L, {x: x for x in L.elements})


def compose_maps(g: LatticeMap, f: LatticeMap) -> LatticeMap:
    if g.src is not f.dst and g.src != f.dst:
        raise MalformedInputError("maps not composable")
    return LatticeMap(f.src, g.dst, {x: g(f(x)) for x in f.src.elements})


def _unit_counit(lower: LatticeMap, upper: LatticeMap) -> bool:
    """lower -| upper, for monotone lower: A -> B and upper: B -> A: the
    unit x <= upper(lower(x)) on A and the counit lower(upper(y)) <= y on
    B (Davey and Priestley, Introduction to Lattices and Order, ch. 7)."""
    lo, up = lower.table, upper.table
    a_leq, b_leq = lower.src.leq, lower.dst.leq
    return all((x, up[lo[x]]) in a_leq for x in lo) and all((lo[up[y]], y) in b_leq for y in up)


def _fibers(m: LatticeMap, cone: dict) -> dict:
    """x -> the y with x in cone[m(y)], for x in the codomain."""
    out: dict = {x: [] for x in m.dst.elements}
    for y in m.src.elements:
        for x in cone[m.table[y]]:
            out[x].append(y)
    return out


def left_adjoint(m: LatticeMap) -> LatticeMap | None:
    """The adjoint by the meet formula, or None; computed once per map."""
    if "left" not in m._adjoints:
        L, M = m.src, m.dst
        # {y : x <= m(y)}, gathered from the down-set of each value
        fibers = _fibers(m, M._below)
        cand = LatticeMap(M, L, {x: L.meet_all(ys) for x, ys in fibers.items()})
        m._adjoints["left"] = cand if _unit_counit(cand, m) else None
    return m._adjoints["left"]


def right_adjoint(m: LatticeMap) -> LatticeMap | None:
    """The adjoint by the join formula, or None; computed once per map."""
    if "right" not in m._adjoints:
        L, M = m.src, m.dst
        # {y : m(y) <= x}, gathered from the up-set of each value
        fibers = _fibers(m, M._above)
        cand = LatticeMap(M, L, {x: L.join_all(ys) for x, ys in fibers.items()})
        m._adjoints["right"] = cand if _unit_counit(m, cand) else None
    return m._adjoints["right"]


def monotone_maps_between(L: FiniteLattice, M: FiniteLattice):
    """All monotone maps L -> M; exhaustive, for small lattices only."""
    for values in itertools.product(M.elements, repeat=len(L.elements)):
        table = dict(zip(L.elements, values))
        if all(
            M.le(table[a], table[b])
            for a in L.elements
            for b in L.elements
            if L.le(a, b)
        ):
            yield LatticeMap(L, M, table)


class GaloisMap:
    """A pullback map with its adjoints, read from the map's own memo."""

    def __init__(self, pullback: LatticeMap):
        self.pullback = pullback

    @property
    def sharp(self) -> LatticeMap | None:
        return left_adjoint(self.pullback)

    @property
    def star(self) -> LatticeMap | None:
        return right_adjoint(self.pullback)


def check_triangles(g: GaloisMap) -> VerificationReport:
    """adj . pull . adj == adj and pull . adj . pull == pull, compared on
    the tables: a composite map would only re-prove monotonicity."""
    rep = VerificationReport("galois-triangles")
    pull = g.pullback.table
    for name, adj in (("sharp", g.sharp), ("star", g.star)):
        if adj is None:
            continue
        a = adj.table
        one = all(a[pull[a[x]]] == a[x] for x in a)
        two = all(pull[a[pull[y]]] == pull[y] for y in pull)
        rep.add(f"triangle-{name}-outer", one, {} if one else {"side": name}, anchor="galois-triangle")
        rep.add(f"triangle-{name}-inner", two, {} if two else {"side": name}, anchor="galois-triangle")
    return rep


# -- adjointable squares and mates ----------------------------------------


@dataclass
class SquareData:
    """Commuting square of monotone maps:

        A --p--> B
        |        |
        u        v
        |        |
        C --q--> D

    with v(p(a)) == q(u(a)) for every a."""

    p: LatticeMap
    u: LatticeMap
    v: LatticeMap
    q: LatticeMap

    def __post_init__(self):
        if self.p.src != self.u.src or self.p.dst != self.v.src:
            raise MalformedInputError("square corners mistyped")
        if self.u.dst != self.q.src or self.v.dst != self.q.dst:
            raise MalformedInputError("square corners mistyped")
        for a in self.p.src.elements:
            if self.v(self.p(a)) != self.q(self.u(a)):
                raise MalformedInputError(f"square does not commute at {a!r}")


def check_adjointable(sq: SquareData, side: str) -> VerificationReport:
    """Mate equality.  Right case: u . radj(p) versus radj(q) . v, as maps
    B -> C; left case: u . ladj(p) versus ladj(q) . v.  Posets make the
    mate an equivalence exactly when the two tables agree."""
    rep = VerificationReport(f"adjointable-{side}")
    if side == "right":
        ap, aq = right_adjoint(sq.p), right_adjoint(sq.q)
    elif side == "left":
        ap, aq = left_adjoint(sq.p), left_adjoint(sq.q)
    else:
        raise MalformedInputError(f"side must be left or right, got {side!r}")
    if ap is None or aq is None:
        raise MalformedInputError(f"missing {side} adjoint on a horizontal map")
    # u . ap and aq . v, read off the tables in the order of B's elements
    u, v, ap, aq = sq.u.table, sq.v.table, ap.table, aq.table
    witness = None
    for b in sq.p.dst.elements:
        down, across = u[ap[b]], aq[v[b]]
        if down != across:
            witness = {"element": b, "via-adjoint-then-down": down, "via-down-then-adjoint": across}
            break
    rep.add("mate-is-identity", witness is None, witness or {}, anchor=f"{side}-adjointable-square")
    return rep


def paste_squares(left_sq: SquareData, right_sq: SquareData) -> SquareData:
    """Horizontal pasting: the right square's vertical left edge must be the
    left square's right edge."""
    if not left_sq.v.same_table(right_sq.u) or left_sq.v.src != right_sq.u.src:
        raise MalformedInputError("squares do not share the middle edge")
    return SquareData(
        p=compose_maps(right_sq.p, left_sq.p),
        u=left_sq.u,
        v=right_sq.v,
        q=compose_maps(right_sq.q, left_sq.q),
    )


# -- lattice grids and partial adjoints -----------------------------------


@dataclass
class LatticeGrid:
    """Lattices on the (n+1)^k grid with a monotone map per unit edge;
    every unit square commutes elementwise."""

    k: int
    n: int
    lattices: dict
    maps: dict

    def __post_init__(self):
        from .grid import _bump

        for v, L in self.lattices.items():
            for d in range(self.k):
                if v[d] < self.n:
                    m = self.maps.get((v, d))
                    if m is None or m.src != L or m.dst != self.lattices[_bump(v, d)]:
                        raise MalformedInputError(f"edge ({v}, {d}) missing or mistyped")
        for v in self.lattices:
            for a in range(self.k):
                for b in range(a + 1, self.k):
                    if v[a] < self.n and v[b] < self.n:
                        one = compose_maps(self.maps[(_bump(v, a), b)], self.maps[(v, a)])
                        two = compose_maps(self.maps[(_bump(v, b), a)], self.maps[(v, b)])
                        if not one.same_table(two):
                            raise MalformedInputError(f"square at {v} ({a},{b}) does not commute")

    def flip(self, v: tuple[int, ...], J) -> tuple[int, ...]:
        return tuple(self.n - x if d in J else x for d, x in enumerate(v))


def partial_adjoint_grid(F: LatticeGrid, J) -> LatticeGrid:
    """Reverse the J directions through right adjoints.

    Preconditions, checked first with named offenders: every J-edge has a
    right adjoint; every mixed square (one J direction, one not) is right
    adjointable.  The output grid is indexed with the J coordinates flipped
    so that it is again a genuine commuting grid; non-J maps are untouched.
    """
    from .grid import _bump

    J = frozenset(J)
    if not J <= set(range(F.k)):
        raise MalformedInputError("J must name grid directions")
    adjoints = {}
    for (v, d), m in F.maps.items():
        if d in J:
            adj = right_adjoint(m)
            if adj is None:
                raise MalformedInputError(f"edge ({v}, {d}) has no right adjoint")
            adjoints[(v, d)] = adj
    for v in F.lattices:
        for a in range(F.k):
            for b in range(F.k):
                if a == b or v[a] >= F.n or v[b] >= F.n:
                    continue
                if a not in J and b in J:
                    sq = SquareData(
                        p=F.maps[(v, b)],
                        u=F.maps[(v, a)],
                        v=F.maps[(_bump(v, b), a)],
                        q=F.maps[(_bump(v, a), b)],
                    )
                    if not check_adjointable(sq, "right").passed:
                        raise MalformedInputError(
                            f"mixed square at {v} ({a},{b}) is not right adjointable"
                        )
    lattices = {F.flip(v, J): L for v, L in F.lattices.items()}
    maps = {}
    for (v, d), m in F.maps.items():
        if d in J:
            # the reversed edge starts at the flipped image of v + e_d
            maps[(F.flip(_bump(v, d), J), d)] = adjoints[(v, d)]
        else:
            maps[(F.flip(v, J), d)] = m
    return LatticeGrid(F.k, F.n, lattices, maps)


# -- coefficient systems --------------------------------------------------


@dataclass
class CoefficientSystem:
    """A lattice per object and a pullback map per morphism, strictly
    functorial on the nose and top-preserving."""

    setup: GeometricSetup
    lattices: dict
    restriction: dict

    def __post_init__(self):
        c = self.setup.category
        for x in c.objects:
            if x not in self.lattices:
                raise MalformedInputError(f"no lattice for object {x!r}")
        for m in c.morphism_ids:
            r = self.restriction.get(m)
            if r is None:
                raise MalformedInputError(f"no restriction map for {m!r}")
            if r.src != self.lattices[c.dst(m)] or r.dst != self.lattices[c.src(m)]:
                raise MalformedInputError(f"restriction for {m!r} mistyped")
            if r(r.src.top) != r.dst.top:
                raise MalformedInputError(f"restriction for {m!r} drops the unit")
        # tables are compared directly: a composite LatticeMap would only
        # re-prove the monotonicity its factors already have
        for x in c.objects:
            if self.restriction[c.identity[x]].table != {u: u for u in self.lattices[x].elements}:
                raise MalformedInputError(f"identity restriction at {x!r} is not the identity")
        # with `object_size` set the table is function composition, hence
        # associative, and {a : the law holds on (g, a) for every g} is then
        # closed under composition: sweeping a over the generators decides
        # every pair.  A failed sweep rescans for the first pair in order.
        if c.object_size is not None:
            sweep = [
                (g, a) for a in c.generators for g in c.morphism_ids if c.morphisms[g][0] == c.morphisms[a][1]
            ]
        else:
            sweep = c.composable_pairs
        if self._nonfunctorial_pair(sweep) is not None:
            g, f = self._nonfunctorial_pair(c.composable_pairs)
            raise MalformedInputError(f"restriction not functorial on ({g!r}, {f!r})")

    def _nonfunctorial_pair(self, pairs) -> tuple[str, str] | None:
        """The first (g, f) whose restriction along g.f is not the
        restriction along g followed by the one along f."""
        compose, restriction = self.setup.category.compose, self.restriction
        for g, f in pairs:
            rf = restriction[f].table
            expected = {u: rf[v] for u, v in restriction[g].table.items()}
            if restriction[compose[(g, f)]].table != expected:
                return g, f
        return None

    def lattice(self, x: str) -> FiniteLattice:
        return self.lattices[x]

    def pull(self, f: str) -> LatticeMap:
        return self.restriction[f]

    def galois(self, f: str) -> GaloisMap:
        return GaloisMap(self.restriction[f])


# -- builders -------------------------------------------------------------


def chain_lattice(n: int) -> FiniteLattice:
    els = [str(i) for i in range(n + 1)]
    leq = {(a, b) for a in els for b in els if int(a) <= int(b)}
    return FiniteLattice(tuple(els), frozenset(leq))


def n5_lattice(tensor: str = "meet") -> FiniteLattice:
    """The pentagon: bot < a < c < top, bot < b < top, b incomparable to
    both a and c.  Not distributive.  tensor='join' installs the join as
    the tensor product."""
    els = ("0", "a", "b", "c", "1")
    pairs = {(x, x) for x in els}
    pairs |= {("0", x) for x in els}
    pairs |= {(x, "1") for x in els}
    pairs |= {("a", "c")}
    L = FiniteLattice(els, frozenset(pairs))
    if tensor == "join":
        table = {(x, y): L.join(x, y) for x in els for y in els}
        return FiniteLattice(els, frozenset(pairs), table)
    if tensor != "meet":
        raise MalformedInputError("tensor must be meet or join")
    return L


def tuple_name(values) -> str:
    return "(" + ",".join(values) + ")"


def power_lattice(L: FiniteLattice, size: int) -> FiniteLattice:
    """L^size with the pointwise order; elements are value tuples by name."""
    tuples = list(itertools.product(L.elements, repeat=size))
    name = {t: tuple_name(t) for t in tuples}
    els = tuple(name.values())
    # s <= t pointwise: one pair of L's order per coordinate
    leq = {
        (name[tuple(a for a, _ in pairs)], name[tuple(b for _, b in pairs)])
        for pairs in itertools.product(L.leq, repeat=size)
    }
    tensor = None
    if L.tensor_table is not None:
        pointwise = L.tensor_table.__getitem__
        tensor = {
            (name[s], name[t]): name[tuple(map(pointwise, zip(s, t)))]
            for s in tuples
            for t in tuples
        }
    return FiniteLattice(els, frozenset(leq), tensor)


def tuple_values(name: str) -> tuple[str, ...]:
    inner = name[1:-1]
    return tuple(inner.split(",")) if inner else ()


def precompose_map(f_values: tuple[int, ...], big_src: FiniteLattice, big_dst: FiniteLattice) -> LatticeMap:
    """The pullback map L^dst -> L^src along a function given by values."""
    table = {}
    for name in big_src.elements:
        vals = tuple_values(name)
        table[name] = tuple_name(tuple(vals[v] for v in f_values))
    return LatticeMap(big_src, big_dst, table)


def frame_system(setup: GeometricSetup, L: FiniteLattice) -> CoefficientSystem:
    """D(X) = L^|X| over an all-function carrier, f^* by precomposition.

    Built and validated once per setup and lattice value, so every suite
    over one setup shares the system and the adjoints memoized on its
    maps; callers read it and never mutate it."""
    c = setup.category
    if c.object_size is None:
        raise MalformedInputError("frame systems need a carrier with cardinalities")
    key = (L.elements, L.leq, None if L.tensor_table is None else frozenset(L.tensor_table.items()))
    if key not in setup._systems:
        lattices = {x: power_lattice(L, c.object_size[x]) for x in c.objects}
        restriction = {}
        for m, vals in c.function_values.items():
            x, y = c.morphisms[m]
            restriction[m] = precompose_map(vals, lattices[y], lattices[x])
        setup._systems[key] = CoefficientSystem(setup, lattices, restriction)
    return setup._systems[key]


def fiberwise_join_map(f: str, big_src: FiniteLattice, big_dst: FiniteLattice, L: FiniteLattice) -> LatticeMap:
    """Independent oracle for the left adjoint of precomposition."""
    vals = fn_values(f)
    target_size = len(tuple_values(big_dst.elements[0]))
    table = {}
    for name in big_src.elements:
        s = tuple_values(name)
        out = []
        for ypt in range(target_size):
            out.append(L.join_all(s[i] for i in range(len(vals)) if vals[i] == ypt))
        table[name] = tuple_name(tuple(out))
    return LatticeMap(big_src, big_dst, table)


def fiberwise_meet_map(f: str, big_src: FiniteLattice, big_dst: FiniteLattice, L: FiniteLattice) -> LatticeMap:
    vals = fn_values(f)
    target_size = len(tuple_values(big_dst.elements[0]))
    table = {}
    for name in big_src.elements:
        s = tuple_values(name)
        out = []
        for ypt in range(target_size):
            out.append(L.meet_all(s[i] for i in range(len(vals)) if vals[i] == ypt))
        table[name] = tuple_name(tuple(out))
    return LatticeMap(big_src, big_dst, table)


# -- projection formulas and the external product -------------------------


def projection_witness(sys: CoefficientSystem, f: str, push: LatticeMap, relation: str) -> dict | None:
    """The first (E, B), in element order, at which push(E tensor pull(B))
    and push(E) tensor B are not related by `relation`: "==", "<=" (the
    pushed tensor below) or ">=".  One sweep over all pairs, on the tables."""
    c = sys.setup.category
    x, y = c.morphisms[f]
    DX, DY = sys.lattice(x), sys.lattice(y)
    pull, pushed_of = sys.pull(f).table, push.table
    tx, ty, leq = DX._tensor, DY._tensor, DY.leq
    holds = {
        "==": operator.eq,
        "<=": lambda a, b: (a, b) in leq,
        ">=": lambda a, b: (b, a) in leq,
    }.get(relation)
    if holds is None:
        raise MalformedInputError(f"relation must be ==, <= or >=, got {relation!r}")
    for E in DX.elements:
        pushed_E = pushed_of[E]
        for B in DY.elements:
            pushed = pushed_of[tx[(E, pull[B])]]
            tensored = ty[(pushed_E, B)]
            if not holds(pushed, tensored):
                return {"E": E, "B": B, "pushed-tensor": pushed, "tensor-pushed": tensored}
    return None


def check_projection_formula(sys: CoefficientSystem, f: str, flavor: str) -> VerificationReport:
    """sharp: push(E tensor pull(B)) == push(E) tensor B with push the left
    adjoint; star: push(E) tensor B == push(E tensor pull(B)) with the right
    adjoint.  Exhaustive over all pairs."""
    rep = VerificationReport(f"projection-formula-{flavor}")
    if flavor not in ("sharp", "star"):
        raise MalformedInputError(f"flavor must be sharp or star, got {flavor!r}")
    pull = sys.pull(f)
    push = left_adjoint(pull) if flavor == "sharp" else right_adjoint(pull)
    if push is None:
        raise MalformedInputError(f"{flavor} adjoint missing for {f!r}")
    witness = projection_witness(sys, f, push, "==")
    x, y = sys.setup.category.morphisms[f]
    rep.add(
        "projection-formula",
        witness is None,
        witness or {"pairs": len(sys.lattice(x).elements) * len(sys.lattice(y).elements)},
        anchor=f"projection-formula-{flavor}",
    )
    return rep


def _unique_cross_map(c: FinCategory, f1: str, f2: str):
    """The product map f1 x f2 between canonical products, with projections."""
    x1, y1 = c.morphisms[f1]
    x2, y2 = c.morphisms[f2]
    px = canonical_product(c, [x1, x2])
    py = canonical_product(c, [y1, y2])
    if px is None or py is None:
        return None
    (p_obj, (p1, p2)) = px
    (q_obj, (q1, q2)) = py
    cands = [
        m
        for m in c.hom(p_obj, q_obj)
        if c.comp(q1, m) == c.comp(f1, p1) and c.comp(q2, m) == c.comp(f2, p2)
    ]
    if len(cands) != 1:
        return None
    return p_obj, (p1, p2), q_obj, (q1, q2), cands[0]


def check_kunneth(sys: CoefficientSystem, f1: str, f2: str) -> VerificationReport:
    """(f1 x f2)_* of an external product equals the external product of the
    starred factors, elementwise over all argument pairs.  The external
    product M box N is pull(p1)(M) tensor pull(p2)(N)."""
    rep = VerificationReport("kunneth")
    c = sys.setup.category
    cross = _unique_cross_map(c, f1, f2)
    rep.add("products-available", cross is not None, {} if cross else {"pair": [f1, f2]}, anchor="kunneth-products")
    if cross is None:
        return rep
    p_obj, (p1, p2), q_obj, (q1, q2), f12 = cross
    x1, y1 = c.morphisms[f1]
    x2, y2 = c.morphisms[f2]
    DP, DQ = sys.lattice(p_obj), sys.lattice(q_obj)
    star1 = sys.galois(f1).star
    star2 = sys.galois(f2).star
    star12 = sys.galois(f12).star
    if star1 is None or star2 is None or star12 is None:
        raise MalformedInputError("a star adjoint is missing")
    witness = None
    for M in sys.lattice(x1).elements:
        for N in sys.lattice(x2).elements:
            box = DP.tensor(sys.pull(p1)(M), sys.pull(p2)(N))
            lhs = star12(box)
            rhs = DQ.tensor(sys.pull(q1)(star1(M)), sys.pull(q2)(star2(N)))
            if lhs != rhs:
                witness = {"M": M, "N": N, "starred-box": lhs, "box-of-starred": rhs}
                break
        if witness:
            break
    rep.add("kunneth-identity", witness is None, witness or {}, anchor="kunneth-external-product")
    return rep
