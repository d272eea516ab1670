"""The staircase poset C(n), its exact squares, and multidirection grids.

C(n) has elements (i, j) with 0 <= i <= j <= n, ordered by (i, j) <= (i', j')
iff i <= i' and j' <= j.  Covering edges split into vertical (j fixed, i up)
and horizontal (i fixed, j down).  Its rectangles are simultaneously
pullbacks and pushouts, which is what routes them to cartesian squares in a
correspondence cell.
"""

from __future__ import annotations

import itertools

from .fincat import FinCategory, poset_category, verify_pullback_square
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
    """Refuse a grid the enumeration does not finish: k directions in 1..3,
    side n in 0..2, and at most 9 vertices."""
    if not (1 <= k <= 3 and 0 <= n <= 2 and (n + 1) ** k <= 9):
        raise MalformedInputError(f"need k in 1..3, n in 0..2 and (n+1)^k <= 9 vertices, got k={k}, n={n}")


def enumerate_grid_simplices(setup: GeometricSetup, classes, k: int, n: int) -> list[GridSimplex]:
    """All fully cartesian grids with direction-d edges in classes[d].

    Backtracking over vertices in lexicographic order; each unit square is
    checked (commuting, then universal property) as soon as its last vertex
    is placed, so pruning happens early.
    """
    check_grid_size(k, n)
    if len(classes) != k:
        raise MalformedInputError("one class per direction")
    member_sets = [cls.members for cls in classes]
    c = setup.category
    vertices = sorted(itertools.product(range(n + 1), repeat=k))
    results: list[GridSimplex] = []
    objects: dict[tuple[int, ...], str] = {}
    edges: dict[tuple[tuple[int, ...], int], str] = {}

    def square_ok(v, a, b) -> bool:
        va, vb = _bump(v, a), _bump(v, b)
        fa, fb = edges[(v, a)], edges[(v, b)]
        gb, ga = edges[(va, b)], edges[(vb, a)]
        if c.comp(gb, fa) != c.comp(ga, fb):
            return False
        return verify_pullback_square(c, gb, ga, objects[v], fa, fb)

    def place(idx: int):
        if idx == len(vertices):
            results.append(GridSimplex(k, n, c, dict(objects), dict(edges)))
            return
        v = vertices[idx]
        preds = [d for d in range(k) if v[d] > 0]
        for obj in c.objects:
            objects[v] = obj
            options = []
            for d in preds:
                w = v[:d] + (v[d] - 1,) + v[d + 1 :]
                homset = [
                    m
                    for m in c.hom(objects[w], obj)
                    if m in member_sets[d]
                ]
                options.append((w, d, homset))
            for choice in itertools.product(*[h for _, _, h in options]):
                for (w, d, _), m in zip(options, choice):
                    edges[(w, d)] = m
                ok = True
                for a in range(k):
                    for b in range(a + 1, k):
                        if v[a] > 0 and v[b] > 0:
                            base = v[:a] + (v[a] - 1,) + v[a + 1 :]
                            base = base[:b] + (base[b] - 1,) + base[b + 1 :]
                            if not square_ok(base, a, b):
                                ok = False
                                break
                    if not ok:
                        break
                if ok:
                    place(idx + 1)
                for (w, d, _), _m in zip(options, choice):
                    edges.pop((w, d), None)
            del objects[v]

    place(0)
    return results
