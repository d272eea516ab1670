"""Finite lattices as coefficient values and Galois connections as adjoints.

All natural-transformation language collapses to elementwise equality of
monotone map tables, so adjointability, projection formulas, and the
external-product identity are decided by finite sweeps with witnesses.

An element is its position in `elements` and a map is the tuple of its
target positions, here and in every layer that reads lattices.  Names are
read only where a lattice is built from them and spelled again only where
a caller reads them (`table`, `leq`, `tensor_table`, `join`) or a witness
reports them.  Every sweep runs in element order, so it finds the first
witness a sweep over names would find.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property, reduce

from .fincat import FinCategory, canonical_product, fn_values, mediators
from .report import MalformedInputError, VerificationReport
from .setups import GeometricSetup


def _bits(mask: int) -> tuple[int, ...]:
    """The positions set in a bitmask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _monotone_along(pairs, targets, up) -> bool:
    """targets[b] <= targets[c] for every (b, c) in pairs, read off the
    up-set masks of the targets' lattice."""
    return all(up[targets[b]] >> targets[c] & 1 for b, c in pairs)


def _compose(outer: tuple, inner: tuple) -> tuple:
    """outer[inner[i]] for each i, in one C-level call: the table of a
    composite of maps given by target positions."""
    if len(inner) == 1:
        return (outer[inner[0]],)
    return operator.itemgetter(*inner)(outer)


def _rows(masks, bound) -> tuple[tuple[int, ...], ...]:
    """The meets (down-set masks and `_meets`) or joins (up-set masks and
    `_joins`) of every pair, one row of positions per position."""
    return tuple(tuple([bound[m & x] for x in masks]) for m in masks)


def _first_difference(xs, ys) -> int:
    return next(i for i, (x, y) in enumerate(zip(xs, ys)) if x != y)


class FiniteLattice:
    """Elements with a partial order in which every pair has a meet and a
    join, with a bottom and a top.

    The order is one up-set and one down-set bitmask per position (Ait-Kaci
    et al., TOPLAS 1989): bit j of `_up[i]` is set iff element i is below
    element j.  The meet of i and j is the element whose down-set is
    `_down[i] & _down[j]`, the join the one whose up-set is `_up[i] &
    _up[j]`.  The tensor defaults to meet; a non-meet table (still monotone
    in each slot) is allowed and exists to exercise failure paths
    downstream.  It is kept as one row of positions per position.
    """

    def __init__(self, elements, leq, tensor_table=None):
        self.elements = tuple(elements)
        self._given = (leq, tensor_table)
        self.__post_init__()

    @classmethod
    def _at_positions(cls, elements, up: tuple[int, ...], tensor: tuple | None) -> FiniteLattice:
        """A lattice given by distinct names, up-set masks and tensor rows,
        validated as one read from names is."""
        L = cls.__new__(cls)
        L.elements, L._given = tuple(elements), None
        L._index = {x: i for i, x in enumerate(L.elements)}
        L._up, L._tensor = up, tensor
        L.__post_init__()
        return L

    # a method of its own because perfbench/tracer.py times it by name
    def __post_init__(self):
        leq, tensor_table = self._given or (None, None)
        self._given = None
        repeated = self._read_order(leq) if leq is not None else frozenset()
        names, up = self.elements, self._up
        n = len(up)
        for a in range(n):
            if not up[a] >> a & 1:
                raise MalformedInputError(f"order not reflexive at {names[a]!r}")
        self._above = above = tuple(map(_bits, up))
        for a in range(n):
            for b in above[a]:
                if a != b and up[b] >> a & 1:
                    raise MalformedInputError(f"order not antisymmetric on ({names[a]!r}, {names[b]!r})")
                if up[b] & ~up[a]:
                    raise MalformedInputError(f"order not transitive via {names[b]!r}")
        down = [0] * n
        for a in range(n):
            for b in above[a]:
                down[b] |= 1 << a
        self._down = down = tuple(down)
        # x is the meet of a and b iff down[x] == down[a] & down[b]; the
        # masks of distinct elements differ once the order is antisymmetric,
        # and a repeated name is never a unique meet or join
        meets = {down[x]: x for x in range(n) if x not in repeated}
        joins = {up[x]: x for x in range(n) if x not in repeated}
        for a in range(n):
            da, ua = down[a], up[a]
            if meets.keys() >= {da & d for d in down} and joins.keys() >= {ua & u for u in up}:
                continue
            for b in range(n):
                if da & down[b] not in meets:
                    raise MalformedInputError(f"no meet for ({names[a]!r}, {names[b]!r})")
                if ua & up[b] not in joins:
                    raise MalformedInputError(f"no join for ({names[a]!r}, {names[b]!r})")
        # no name repeats past the meet loop
        self._meets, self._joins = meets, joins
        full = (1 << n) - 1
        if full not in joins or full not in meets:
            raise MalformedInputError("lattice must be bounded")
        self._bot, self._top = joins[full], meets[full]
        self.bot, self.top = names[self._bot], names[self._top]
        if tensor_table is not None:
            self._tensor = self._read_tensor(tensor_table)
        T = self._tensor
        if T is not None:
            # the order is transitive, so every b <= b2 is a chain of covers,
            # and monotone along covers in each row and each column is
            # monotone; a symmetric table's columns are its rows.  A failing
            # cover sends the scan back over all pairs for the first witness
            columns = tuple(zip(*T))
            lines = T if columns == T else T + columns
            if not all(_monotone_along(self._covers, line, up) for line in lines):
                raise MalformedInputError(self._tensor_failure([(b, b2) for b in range(n) for b2 in above[b]]))

    def _read_order(self, leq) -> frozenset[int]:
        """The up-set masks of `leq` over the distinct names, in order of
        first appearance; returns the positions of repeated names, which
        validation rejects at the meet loop."""
        index: dict = {}
        for x in self.elements:
            index.setdefault(x, len(index))
        up = [0] * len(index)
        unknown = []
        for a, b in leq:
            if a in index and b in index:
                up[index[a]] |= 1 << index[b]
            else:
                unknown.append((a, b))
        if unknown:
            a, b = min(unknown, key=repr)
            raise MalformedInputError(f"order mentions unknown element ({a!r}, {b!r})")
        repeated = frozenset(index[x] for i, x in enumerate(self.elements) if index[x] != i)
        self.elements, self._index, self._up, self._tensor = tuple(index), index, tuple(up), None
        return repeated

    def _read_tensor(self, t: dict) -> tuple[tuple[int, ...], ...]:
        """The tensor rows of a table keyed by name pairs."""
        els, index = self.elements, self._index
        for a in els:
            for b in els:
                if (a, b) not in t:
                    raise MalformedInputError(f"tensor table missing ({a!r}, {b!r})")
        if len(t) != len(els) ** 2:
            extra = sorted((p for p in t if p[0] not in index or p[1] not in index), key=repr)
            raise MalformedInputError(f"tensor table defined outside the lattice: {extra[:3]}")
        for a in els:
            for b in els:
                if t[(a, b)] not in index:
                    raise MalformedInputError(f"tensor value {t[(a, b)]!r} outside the lattice")
        return tuple(tuple(index[t[(a, b)]] for b in els) for a in els)

    @cached_property
    def _covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs b < c with nothing strictly between, in element order."""
        strict = [m & ~(1 << b) for b, m in enumerate(self._up)]
        out = []
        for b, m in enumerate(strict):
            beyond = 0
            for c in _bits(m):
                beyond |= strict[c]
            out.extend((b, c) for c in _bits(m & ~beyond))
        return tuple(out)

    @cached_property
    def _below(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(_bits, self._down))

    def _tensor_failure(self, pairs) -> str | None:
        """The first slot, over a and then pairs b <= b2 in order, in which
        the tensor fails to be monotone; None if it is monotone along all."""
        T, up = self._tensor, self._up
        for a in range(len(T)):
            row = T[a]
            for b, b2 in pairs:
                if not up[row[b]] >> row[b2] & 1:
                    return "tensor not monotone in second slot"
                if not up[T[b][a]] >> T[b2][a] & 1:
                    return "tensor not monotone in first slot"
        return None

    @cached_property
    def _tensor_rows(self) -> tuple[tuple[int, ...], ...]:
        """tensor(a, b) at [a][b], by positions; the meet rows are read off
        the down-set masks when the tensor is first swept."""
        if self._tensor is not None:
            return self._tensor
        return _rows(self._down, self._meets)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up and self._tensor == other._tensor

    # -- the name boundary ---------------------------------------------------

    @cached_property
    def leq(self) -> frozenset:
        """The order as pairs of names."""
        els = self.elements
        return frozenset((els[a], els[b]) for a, bs in enumerate(self._above) for b in bs)

    @cached_property
    def tensor_table(self) -> dict | None:
        """The tensor as a table keyed by name pairs; None for the meet."""
        if self._tensor is None:
            return None
        els = self.elements
        return {(a, b): els[t] for a, row in zip(els, self._tensor) for b, t in zip(els, row)}

    def join(self, a: str, b: str) -> str:
        index, up = self._index, self._up
        return self.elements[self._joins[up[index[a]] & up[index[b]]]]

    @cached_property
    def is_frame(self) -> bool:
        # finite frames are exactly the distributive bounded lattices
        meet_rows, join_rows = _rows(self._down, self._meets), _rows(self._up, self._joins)
        return all(
            ma[jb[c]] == join_rows[ma[b]][ma[c]]
            for ma in meet_rows
            for b, jb in enumerate(join_rows)
            for c in range(len(ma))
        )


class LatticeMap:
    """A monotone map, kept as `targets`: the position in `dst` of the
    image of each position of `src`."""

    def __init__(self, src: FiniteLattice, dst: FiniteLattice, targets: tuple[int, ...]):
        self.src, self.dst, self.targets = src, dst, targets
        # "left"/"right" -> the adjoint or None, filled by left_/right_adjoint
        self._adjoints: dict = {}
        self.__post_init__()

    # a method of its own because perfbench/tracer.py times it by name
    def __post_init__(self):
        targets, up = self.targets, self.dst._up
        if not _monotone_along(self.src._covers, targets, up):
            names = self.src.elements
            for a, bs in enumerate(self.src._above):
                for b in bs:
                    if not up[targets[a]] >> targets[b] & 1:
                        raise MalformedInputError(f"not monotone on ({names[a]!r}, {names[b]!r})")

    @cached_property
    def table(self) -> dict:
        """The map as a table keyed by names."""
        names = self.dst.elements
        return dict(zip(self.src.elements, _compose(names, self.targets)))

    def same_table(self, other: LatticeMap) -> bool:
        if self.src.elements == other.src.elements and self.dst.elements == other.dst.elements:
            return self.targets == other.targets
        return self.table == other.table


def identity_map(L: FiniteLattice) -> LatticeMap:
    return LatticeMap(L, L, tuple(range(len(L.elements))))


def compose_maps(g: LatticeMap, f: LatticeMap) -> LatticeMap:
    if g.src is not f.dst and g.src != f.dst:
        raise MalformedInputError("maps not composable")
    return LatticeMap(f.src, g.dst, _compose(g.targets, f.targets))


def _unit_counit(lower: LatticeMap, upper: LatticeMap) -> bool:
    """lower -| upper, for monotone lower: A -> B and upper: B -> A: the
    unit x <= upper(lower(x)) on A and the counit lower(upper(y)) <= y on
    B (Davey and Priestley, Introduction to Lattices and Order, ch. 7)."""
    lo, hi = lower.targets, upper.targets
    a_up, b_down = lower.src._up, lower.dst._down
    return all(a_up[x] >> hi[t] & 1 for x, t in enumerate(lo)) and all(
        b_down[y] >> lo[t] & 1 for y, t in enumerate(hi)
    )


def _bound_over_fibers(m: LatticeMap, cone, masks, bound) -> tuple[int, ...]:
    """For each x of the codomain, the element of the domain whose mask is
    the intersection of `masks[y]` over the y with x in cone[m(y)]: with
    down-set masks the meet of those y, with up-set masks their join."""
    acc = [(1 << len(masks)) - 1] * len(m.dst.elements)
    for y, z in enumerate(m.targets):
        mask = masks[y]
        for x in cone[z]:
            acc[x] &= mask
    return _compose(bound, acc)


def left_adjoint(m: LatticeMap) -> LatticeMap | None:
    """The adjoint by the meet formula, or None; computed once per map."""
    if "left" not in m._adjoints:
        L, M = m.src, m.dst
        # the meet of {y : x <= m(y)}, gathered from the down-set of each value
        cand = LatticeMap(M, L, _bound_over_fibers(m, M._below, L._down, L._meets))
        m._adjoints["left"] = cand if _unit_counit(cand, m) else None
    return m._adjoints["left"]


def right_adjoint(m: LatticeMap) -> LatticeMap | None:
    """The adjoint by the join formula, or None; computed once per map."""
    if "right" not in m._adjoints:
        L, M = m.src, m.dst
        # the join of {y : m(y) <= x}, gathered from the up-set of each value
        cand = LatticeMap(M, L, _bound_over_fibers(m, M._above, L._up, L._joins))
        m._adjoints["right"] = cand if _unit_counit(m, cand) else None
    return m._adjoints["right"]


def monotone_maps_between(L: FiniteLattice, M: FiniteLattice):
    """All monotone maps L -> M; exhaustive, for small lattices only."""
    covers, up = L._covers, M._up
    for targets in itertools.product(range(len(M.elements)), repeat=len(L.elements)):
        if _monotone_along(covers, targets, up):
            yield LatticeMap(L, M, targets)


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
    pull = g.pullback.targets
    for name, adj in (("sharp", g.sharp), ("star", g.star)):
        if adj is None:
            continue
        a = adj.targets
        one = _compose(a, _compose(pull, a)) == a
        two = _compose(pull, _compose(a, pull)) == pull
        rep.add(f"triangle-{name}-outer", one, {} if one else {"side": name}, anchor="galois-triangle")
        rep.add(f"triangle-{name}-inner", two, {} if two else {"side": name}, anchor="galois-triangle")
    return rep


# -- adjointable squares and mates ----------------------------------------


class SquareData:
    """Commuting square of monotone maps:

        A --p--> B
        |        |
        u        v
        |        |
        C --q--> D

    with v(p(a)) == q(u(a)) for every a."""

    def __init__(self, p: LatticeMap, u: LatticeMap, v: LatticeMap, q: LatticeMap):
        self.p, self.u, self.v, self.q = p, u, v, q
        if self.p.src != self.u.src or self.p.dst != self.v.src:
            raise MalformedInputError("square corners mistyped")
        if self.u.dst != self.q.src or self.v.dst != self.q.dst:
            raise MalformedInputError("square corners mistyped")
        p, u, v, q = self.p.targets, self.u.targets, self.v.targets, self.q.targets
        one, two = _compose(v, p), _compose(q, u)
        if one != two:
            a = self.p.src.elements[_first_difference(one, two)]
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
    down, across = _compose(sq.u.targets, ap.targets), _compose(aq.targets, sq.v.targets)
    witness = None
    if down != across:
        b, C = _first_difference(down, across), sq.u.dst.elements
        witness = {
            "element": sq.p.dst.elements[b],
            "via-adjoint-then-down": C[down[b]],
            "via-down-then-adjoint": C[across[b]],
        }
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


class LatticeGrid:
    """Lattices on the (n+1)^k grid with a monotone map per unit edge;
    every unit square commutes elementwise."""

    def __init__(self, k: int, n: int, lattices: dict, maps: dict):
        self.k, self.n, self.lattices, self.maps = k, n, lattices, maps
        from .grid import _bump

        for v, L in self.lattices.items():
            for d in range(self.k):
                if v[d] < self.n:
                    m = self.maps.get((v, d))
                    if m is None or m.src != L or m.dst != self.lattices[_bump(v, d)]:
                        raise MalformedInputError(f"edge ({v}, {d}) missing or mistyped")
        maps = self.maps
        for v in self.lattices:
            for a in range(self.k):
                for b in range(a + 1, self.k):
                    if v[a] < self.n and v[b] < self.n:
                        try:
                            SquareData(p=maps[(v, a)], u=maps[(v, b)], v=maps[(_bump(v, a), b)], q=maps[(_bump(v, b), a)])
                        except MalformedInputError as exc:
                            raise MalformedInputError(f"square at {v} ({a},{b}): {exc}") from None

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


class CoefficientSystem:
    """A lattice per object and a pullback map per morphism, strictly
    functorial on the nose and top-preserving."""

    def __init__(self, category: FinCategory, lattices: dict, restriction: dict):
        self.category, self.lattices, self.restriction = category, lattices, restriction
        self.__post_init__()

    # a method of its own because perfbench/tracer.py times it by name
    def __post_init__(self):
        c = self.category
        for x in c.objects:
            if x not in self.lattices:
                raise MalformedInputError(f"no lattice for object {x!r}")
        for m in c.morphism_ids:
            r = self.restriction.get(m)
            if r is None:
                raise MalformedInputError(f"no restriction map for {m!r}")
            if r.src != self.lattices[c.dst(m)] or r.dst != self.lattices[c.src(m)]:
                raise MalformedInputError(f"restriction for {m!r} mistyped")
            if r.targets[r.src._top] != r.dst._top:
                raise MalformedInputError(f"restriction for {m!r} drops the unit")
        # tables are compared directly: a composite LatticeMap would only
        # re-prove the monotonicity its factors already have
        for x in c.objects:
            if self.restriction[c.identity[x]].targets != tuple(range(len(self.lattices[x].elements))):
                raise MalformedInputError(f"identity restriction at {x!r} is not the identity")
        # with `object_size` set the table is function composition, hence
        # associative, and {a : the law holds on (g, a) for every g} is then
        # closed under composition: sweeping a over the generators decides
        # every pair.  A failed sweep rescans for the first pair in order.
        if c.object_size is not None:
            out = c._out_index
            sweep = ((g, a) for a in c.generators for g in out.get(c.morphisms[a][1], ()))
        else:
            sweep = c.composable_pairs
        if self._nonfunctorial_pair(sweep) is not None:
            g, f = self._nonfunctorial_pair(c.composable_pairs)
            raise MalformedInputError(f"restriction not functorial on ({g!r}, {f!r})")

    def _nonfunctorial_pair(self, pairs) -> tuple[str, str] | None:
        """The first (g, f) whose restriction along g.f is not the
        restriction along g followed by the one along f."""
        composite, restriction = self.category.composite, self.restriction
        for g, f in pairs:
            expected = _compose(restriction[f].targets, restriction[g].targets)
            if restriction[composite(g, f)].targets != expected:
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
    """L^size with the pointwise order; elements are value tuples by name.

    Built by position arithmetic in base n = |L|: the tuple of positions
    (i_0, ..., i_{size-1}) sits at sum i_c * n^(size-1-c), the order of
    `itertools.product`."""
    n, up, block = len(L.elements), (1,), 1
    tensor = None if L._tensor is None else ((0,),)
    for _ in range(size):
        # a leading coordinate i before the rest r sits at i * block + r; r's
        # up-set mask is below 2^block, so spreading it over the blocks of
        # i's up-set is one product
        spread = [sum(1 << j * block for j in above) for above in L._above]
        up = tuple(s * u for s in spread for u in up)
        if tensor is not None:
            tensor = tuple(tuple(t * block + x for t in L._tensor[i] for x in row) for i in range(n) for row in tensor)
        block *= n
    names = tuple(map(tuple_name, itertools.product(L.elements, repeat=size)))
    return FiniteLattice._at_positions(names, up, tensor)


def precompose_map(f_values: tuple[int, ...], n: int, size: int, big_src: FiniteLattice, big_dst: FiniteLattice) -> LatticeMap:
    """The pullback map L^size -> L^len(f_values) along a function given by
    values, for a lattice L of n elements, by position arithmetic."""
    k = len(f_values)
    weights = [(v, n ** (k - 1 - i)) for i, v in enumerate(f_values)]
    targets = tuple(sum(s[v] * w for v, w in weights) for s in itertools.product(range(n), repeat=size))
    return LatticeMap(big_src, big_dst, targets)


def frame_system(setup: GeometricSetup, L: FiniteLattice) -> CoefficientSystem:
    """D(X) = L^|X| over an all-function carrier, f^* by precomposition.

    Built and validated once per carrier and lattice value, so every suite
    over one carrier, whatever the setup's class, shares the system and the
    adjoints memoized on its maps; callers read it and never mutate it."""
    c = setup.category
    if c.object_size is None:
        raise MalformedInputError("frame systems need a carrier with cardinalities")
    key = (L.elements, L._up, L._tensor)
    if key not in c._systems:
        sizes = c.object_size
        lattices = {x: power_lattice(L, sizes[x]) for x in c.objects}
        restriction = {}
        for m, vals in c.function_values.items():
            x, y = c.morphisms[m]
            restriction[m] = precompose_map(vals, len(L.elements), sizes[y], lattices[y], lattices[x])
        c._systems[key] = CoefficientSystem(c, lattices, restriction)
    return c._systems[key]


def _fiberwise_map(f: str, big_src: FiniteLattice, big_dst: FiniteLattice, masks, bound) -> LatticeMap:
    """Coordinate y of the image of s is the element whose mask is the
    intersection of masks[s_i] over the fiber {i : f(i) = y}."""
    vals, n = fn_values(f), len(masks)
    size = 0
    while n**size < len(big_dst.elements):
        size += 1
    fibers = [[i for i, v in enumerate(vals) if v == y] for y in range(size)]
    full = (1 << n) - 1
    targets = []
    for s in itertools.product(range(n), repeat=len(vals)):
        out = 0
        for fiber in fibers:
            out = out * n + bound[reduce(operator.and_, (masks[s[i]] for i in fiber), full)]
        targets.append(out)
    return LatticeMap(big_src, big_dst, tuple(targets))


def fiberwise_join_map(f: str, big_src: FiniteLattice, big_dst: FiniteLattice, L: FiniteLattice) -> LatticeMap:
    """Independent oracle for the left adjoint of precomposition: the join
    over each fiber, coordinate by coordinate."""
    return _fiberwise_map(f, big_src, big_dst, L._up, L._joins)


def fiberwise_meet_map(f: str, big_src: FiniteLattice, big_dst: FiniteLattice, L: FiniteLattice) -> LatticeMap:
    return _fiberwise_map(f, big_src, big_dst, L._down, L._meets)


# -- projection formulas and the external product -------------------------


def projection_witness(sys: CoefficientSystem, f: str, push: LatticeMap, relation: str) -> dict | None:
    """The first (E, B), in element order, at which push(E tensor pull(B))
    and push(E) tensor B are not related by `relation`: "==", "<=" (the
    pushed tensor below) or ">=".  One sweep over all pairs, on the tables,
    a row of B per E; a failing row is rescanned for its first B."""
    c = sys.category
    x, y = c.morphisms[f]
    DX, DY = sys.lattice(x), sys.lattice(y)
    up, down = DY._up, DY._down
    holds = {
        "==": operator.eq,
        "<=": lambda a, b: up[a] >> b & 1,
        ">=": lambda a, b: down[a] >> b & 1,
    }.get(relation)
    if holds is None:
        raise MalformedInputError(f"relation must be ==, <= or >=, got {relation!r}")
    pull, push = sys.pull(f).targets, push.targets
    tx, ty = DX._tensor_rows, DY._tensor_rows
    for E, row in enumerate(tx):
        pushed = _compose(push, _compose(row, pull))
        tensored = ty[push[E]]
        if pushed == tensored or (relation != "==" and all(map(holds, pushed, tensored))):
            continue
        B = next(b for b, (p, t) in enumerate(zip(pushed, tensored)) if not holds(p, t))
        names = DY.elements
        return {"E": DX.elements[E], "B": names[B], "pushed-tensor": names[pushed[B]], "tensor-pushed": names[tensored[B]]}
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
    x, y = sys.category.morphisms[f]
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
    cands = mediators(c, p_obj, q_obj, [(q1, c.comp(f1, p1)), (q2, c.comp(f2, p2))])
    if len(cands) != 1:
        return None
    return p_obj, (p1, p2), q_obj, (q1, q2), cands[0]


def check_kunneth(sys: CoefficientSystem, f1: str, f2: str) -> VerificationReport:
    """(f1 x f2)_* of an external product equals the external product of the
    starred factors, elementwise over all argument pairs.  The external
    product M box N is pull(p1)(M) tensor pull(p2)(N)."""
    rep = VerificationReport("kunneth")
    c = sys.category
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
    # a row of N per M: star12(pull(p1)(M) tensor pull(p2)(N)) against
    # pull(q1)(star1(M)) tensor pull(q2)(star2(N))
    p2_of, q2_of, s12 = sys.pull(p2).targets, sys.pull(q2).targets, star12.targets
    p1_of, q1_of, s1 = sys.pull(p1).targets, sys.pull(q1).targets, star1.targets
    q2_s2 = _compose(q2_of, star2.targets)
    TP, TQ = DP._tensor_rows, DQ._tensor_rows

    def row_differs(M):
        lhs = _compose(s12, _compose(TP[p1_of[M]], p2_of))
        rhs = _compose(TQ[q1_of[s1[M]]], q2_s2)
        if lhs != rhs:
            N, names = _first_difference(lhs, rhs), DQ.elements
            return {
                "M": sys.lattice(x1).elements[M],
                "N": sys.lattice(x2).elements[N],
                "starred-box": names[lhs[N]],
                "box-of-starred": names[rhs[N]],
            }

    rep.sweep("kunneth-identity", range(len(s1)), row_differs, anchor="kunneth-external-product")
    return rep
