"""The staircase poset C(n), its exact squares, and multidirection grids.

C(n) has elements (i, j) with 0 <= i <= j <= n, ordered by (i, j) <= (i', j')
iff i <= i' and j' <= j.  Covering edges split into vertical (j fixed, i up)
and horizontal (i fixed, j down).  Its rectangles are simultaneously
pullbacks and pushouts, which is what routes them to cartesian squares in a
correspondence cell.
"""

from __future__ import annotations

import itertools

from .fincat import FinCategory, mediators, poset_category
from .report import MalformedInputError
from .setups import GeometricSetup


def cposet_elements(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n + 1) for j in range(i, n + 1)]


def cposet_leq(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] <= b[0] and b[1] <= a[1]


def cp_name(e: tuple[int, int]) -> str:
    return f"({e[0]},{e[1]})"


def cp_parse(name: str) -> tuple[int, int]:
    i, j = name.strip("()").split(",")
    return int(i), int(j)


def c_of_simplex(n: int) -> FinCategory:
    """The poset category on the staircase of size n."""
    if not 0 <= n <= 4:
        raise MalformedInputError(f"need 0 <= n <= 4, got {n}")
    names = [cp_name(e) for e in cposet_elements(n)]
    return poset_category(names, lambda a, b: cposet_leq(cp_parse(a), cp_parse(b)))


class ExactSquare:
    """Rectangle in C(n): top-left (i,j), verticals go i -> i', horizontals
    j -> j'.  Corners run (i,j) -> (i',j) and (i,j') -> (i',j').  A value:
    equal, hashed and ordered as the tuple (i, i2, j2, j)."""

    def __init__(self, i: int, i2: int, j2: int, j: int):
        self.i, self.i2, self.j2, self.j = i, i2, j2, j

    def _fields(self) -> tuple[int, int, int, int]:
        return self.i, self.i2, self.j2, self.j

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactSquare):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __lt__(self, other) -> bool:
        if not isinstance(other, ExactSquare):
            return NotImplemented
        return self._fields() < other._fields()

    def corners(self) -> tuple[tuple[int, int], ...]:
        return ((self.i, self.j), (self.i2, self.j), (self.i, self.j2), (self.i2, self.j2))


def exact_squares(n: int) -> list[ExactSquare]:
    """All rectangles of C(n); each is a pullback and pushout in the poset."""
    if n > 4:
        raise MalformedInputError("n <= 4")
    out = []
    for i in range(n + 1):
        for i2 in range(i + 1, n + 1):
            for j2 in range(i2, n + 1):
                for j in range(j2 + 1, n + 1):
                    out.append(ExactSquare(i, i2, j2, j))
    return sorted(out)


def poset_meet(n: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int] | None:
    lower = [e for e in cposet_elements(n) if cposet_leq(e, a) and cposet_leq(e, b)]
    tops = [e for e in lower if all(cposet_leq(x, e) for x in lower)]
    return tops[0] if tops else None


def poset_join(n: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int] | None:
    upper = [e for e in cposet_elements(n) if cposet_leq(a, e) and cposet_leq(b, e)]
    bots = [e for e in upper if all(cposet_leq(e, x) for x in upper)]
    return bots[0] if bots else None


def exact_squares_bruteforce(n: int) -> list[ExactSquare]:
    """Independent oracle: scan all corner quadruples and keep those whose
    meet and join land back on the corners."""
    out = []
    els = cposet_elements(n)
    for tl in els:
        for br in els:
            if tl == br or not cposet_leq(tl, br):
                continue
            bl = (br[0], tl[1])
            tr = (tl[0], br[1])
            if bl not in els or tr not in els or bl == tl or bl == br:
                continue
            if poset_meet(n, bl, tr) == tl and poset_join(n, bl, tr) == br:
                out.append(ExactSquare(tl[0], br[0], br[1], tl[1]))
    return sorted(set(out))


# -- multidirection grids -------------------------------------------------


class GridSimplex:
    """Objects on the (n+1)^k grid with unit edges in each direction.

    edges[(v, d)] is the morphism from vertex v to v + e_d; every unit
    square commutes and is cartesian in the ambient category.
    """

    def __init__(
        self,
        k: int,
        n: int,
        category: FinCategory,
        objects: dict[tuple[int, ...], str],
        edges: dict[tuple[tuple[int, ...], int], str],
    ):
        self.k, self.n, self.category, self.objects, self.edges = k, n, category, objects, edges


def _bump(v: tuple[int, ...], d: int) -> tuple[int, ...]:
    return v[:d] + (v[d] + 1,) + v[d + 1 :]


def check_grid_size(k: int, n: int) -> None:
    """Refuse a grid too large to list: k directions in 1..3, side n in
    0..2, and at most 9 vertices."""
    if not (1 <= k <= 3 and 0 <= n <= 2 and (n + 1) ** k <= 9):
        raise MalformedInputError(f"need k in 1..3, n in 0..2 and (n+1)^k <= 9 vertices, got k={k}, n={n}")


def enumerate_grid_simplices(setup: GeometricSetup, classes, k: int, n: int) -> list[GridSimplex]:
    """All fully cartesian grids with direction-d edges in classes[d],
    constructed from the top vertex down, in the order a search over the
    vertices in lexicographic order finds them: each vertex's object by
    its position in `objects`, then the edges into it by hom-set position.

    The top vertex takes every object and a vertex with one edge out every
    marked map into its target.  A vertex with edges out in directions
    a < b < ... takes each pullback cone (`GeometricSetup.cones`) of the
    cospan its edges a and b close, and each further edge d is the one
    mediator into the cone at v + e_d.  No square is checked against the
    universal property: each other unit square is cartesian by the
    pullback pasting lemma (Mac Lane, CWM III.4), since the square at v in
    directions a and d, pasted with the pullback at v + e_d in directions
    a and b, is the pullback at v pasted with the square at v + e_b in
    directions a and d, which lies higher up; likewise for b and d."""
    check_grid_size(k, n)
    if len(classes) != k:
        raise MalformedInputError("one class per direction")
    members = [cls.members for cls in classes]
    c = setup.category
    composite, into = c.composite, c._in_index

    def placements(v: tuple[int, ...], objs: dict, edges: dict):
        """(object at v, its edges out) for each way to place v."""
        out = [d for d in range(k) if v[d] < n]
        if not out:
            return [(x, {}) for x in c.objects]
        if len(out) == 1:
            d = out[0]
            return [(c.src(m), {(v, d): m}) for m in into.get(objs[_bump(v, d)], ()) if m in members[d]]
        a, b, *rest = out
        va, vb = _bump(v, a), _bump(v, b)
        found = []
        for w, p, q in setup.cones(edges[(va, b)], edges[(vb, a)]):
            if p not in members[a] or q not in members[b]:
                continue
            placed = {(v, a): p, (v, b): q}
            for d in rest:
                # v + e_d is the cone over its own edges a and b, so the
                # edge v -> v + e_d is the one map that commutes with both
                t = _bump(v, d)
                wants = ((edges[(t, a)], composite(edges[(va, d)], p)), (edges[(t, b)], composite(edges[(vb, d)], q)))
                mediator = [m for m in mediators(c, w, objs[t], wants) if m in members[d]]
                if not mediator:
                    break
                placed[(v, d)] = mediator[0]
            else:
                found.append((w, placed))
        return found

    vertices = sorted(itertools.product(range(n + 1), repeat=k))
    partial = [({}, {})]
    for v in reversed(vertices):
        partial = [
            ({**objs, v: x}, {**edges, **placed}) for objs, edges in partial for x, placed in placements(v, objs, edges)
        ]

    position = {x: i for i, x in enumerate(c.objects)}
    ins = [(v, [(v[:d] + (v[d] - 1,) + v[d + 1 :], d) for d in range(k) if v[d] > 0]) for v in vertices]

    def order(grid) -> tuple:
        # edges between the same objects compare by id, as their hom-set
        # positions do
        objs, edges = grid
        return tuple(key for v, preds in ins for key in (position[objs[v]], *(edges[e] for e in preds)))

    return [GridSimplex(k, n, c, objs, edges) for objs, edges in sorted(partial, key=order)]
