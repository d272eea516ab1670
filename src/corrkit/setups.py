"""Marked morphism classes, geometric setups with a pullback oracle, and
the factorization setups that `shriek` builds on.

A geometric setup is a finite category with a class E of morphisms that
contains the isomorphisms, is closed under composition, and whose members
base-change along arbitrary morphisms.  Pullbacks come from
`fincat.canonical_pullback`: constructed from function values in an
all-function carrier, found by exhaustive universal-property search
elsewhere, and memoized once per carrier, because a pullback does not
depend on the class.  Every other pullback is that one composed with an
isomorphism into its apex, which is how `GeometricSetup.cones` lists
them.  In a carrier that is missing some fiber products the oracle is
partial, and `check_geometric_setup` reports coverage rather than
inventing objects: a missing fiber product is a coverage gap, not a
failure.
"""

from __future__ import annotations

from functools import lru_cache

from .fincat import FinCategory, canonical_pullback, finset_skeleton
from .report import MalformedInputError, ResourceLimitError, VerificationReport


class EdgeClass:
    """A subset of morphism ids.  Nothing is trusted from input:
    `check_geometric_setup` recomputes every closure witness from the
    tables."""

    def __init__(self, carrier: FinCategory, members: frozenset[str]):
        self.carrier, self.members = carrier, members
        unknown = self.members - set(self.carrier.morphism_ids)
        if unknown:
            raise MalformedInputError(f"unknown morphisms in class: {sorted(unknown)[:5]}")
        self.members = frozenset(self.members)

    def __contains__(self, m: str) -> bool:
        return m in self.members


def all_class(c: FinCategory) -> EdgeClass:
    return EdgeClass(c, frozenset(c.morphism_ids))


def iso_class(c: FinCategory) -> EdgeClass:
    return EdgeClass(c, c.iso_ids)


class GeometricSetup:
    """A category with a marked class and a canonical pullback oracle,
    memoized on the category and shared by every setup over it, as are its
    frame systems, Čech nerves and the setup check of each class."""

    def __init__(self, category: FinCategory, e: EdgeClass):
        self.category, self.e = category, e
        # the carrier's one pullback memo, filled by `pullback_opt`
        self._oracle = category._pullbacks
        if self.e.carrier is not self.category and self.e.carrier != self.category:
            raise MalformedInputError("edge class lives over a different category")

    def pullback_opt(self, f: str, g: str) -> tuple[str, str, str] | None:
        """Canonical pullback of the cospan (f, g) if the carrier has one.

        Returns (apex, p, q) with p over f's source and q over g's source.
        """
        key = (f, g)
        if key not in self._oracle:
            self._oracle[key] = canonical_pullback(self.category, f, g)
        return self._oracle[key]

    def pullback(self, f: str, g: str) -> tuple[str, str, str]:
        pb = self.pullback_opt(f, g)
        if pb is None:
            raise ResourceLimitError(f"no pullback exists for cospan ({f!r}, {g!r})")
        return pb

    def cones(self, f: str, g: str) -> list[tuple[str, str, str]]:
        """Every pullback (w, p, q) of the cospan (f, g), none if the carrier
        has none.  A pullback is unique up to a unique isomorphism (Mac
        Lane, CWM III.4), so they are the canonical one, (P, p0, q0),
        composed with each isomorphism phi: w -> P, in `isos_into` order."""
        pb = self.pullback_opt(f, g)
        if pb is None:
            return []
        c, (apex, p, q) = self.category, pb
        composite, typing = c.composite, c.morphisms
        return [(typing[phi][0], composite(p, phi), composite(q, phi)) for phi in c.isos_into.get(apex, ())]


@lru_cache(maxsize=None)
def skeleton_setup(n: int) -> GeometricSetup:
    """All functions between sets of size at most n, all marked, once a process."""
    c = finset_skeleton(n)
    return GeometricSetup(c, all_class(c))


class NagataSetup:
    """Marked classes I and P on top of a geometric setup."""

    def __init__(self, setup: GeometricSetup, i_class: EdgeClass, p_class: EdgeClass):
        self.setup, self.i_class, self.p_class = setup, i_class, p_class
        # (right, top, bottom, left) of every cartesian square with legs in
        # E, I or P, filled by the first `shriek.cartesian_squares` call
        self._squares: list | None = None
        # (x, y) -> {f: its sorted factorizations} for the maps x -> y,
        # filled by `shriek.factorizations`
        self._factorizations: dict = {}
        c = self.setup.category
        if self.i_class.carrier is not c or self.p_class.carrier is not c:
            raise MalformedInputError("classes must live on the setup's category")


def check_geometric_setup(s: GeometricSetup) -> VerificationReport:
    """Iso-closure, composition-closure, and pullback existence/stability.

    Cospans (f in E, g arbitrary) whose fiber product has no representative
    in the carrier are counted as coverage gaps, not failures.  Run once per
    carrier and class: callers read the report and never mutate it.
    """
    c = s.category
    if s.e.members in c._verdicts:
        return c._verdicts[s.e.members]
    rep = VerificationReport("check-geometric-setup")

    members, into = s.e.members, c._in_index
    missing = sorted(c.iso_ids - members)
    rep.add(
        "contains-isomorphisms", not missing, {"missing-iso": missing[0]} if missing else {}, anchor="setup-iso-closure"
    )

    def leaves(pair):
        h = c.composite(*pair)
        if h not in members:
            return {"pair": list(pair), "composite": h}

    # the pairs of members in `composable_pairs` order; each composite read once
    pairs = ((g, f) for g in c.morphism_ids if g in members for f in into.get(c.morphisms[g][0], ()) if f in members)
    rep.sweep("closed-under-composition", pairs, leaves, anchor="setup-composition-closure")

    cospans = ((f, g) for f in sorted(s.e.members) for g in c._in_index.get(c.dst(f), ()))
    covered, gaps, first_gap, outside = base_change_sweep(s, cospans, s.e)
    rep.add(
        "pullback-existence",
        True,
        {"covered": covered, "gaps": gaps, "first-gap": first_gap},
        anchor="setup-pullbacks-exist",
    )
    rep.add(
        "pullback-stability",
        outside is None,
        {"member": outside[0], "along": outside[1], "base-change": outside[2]} if outside else {"checked": covered},
        anchor="setup-pullbacks-stay",
    )
    c._verdicts[s.e.members] = rep
    return rep


def merge_sub_setup(rep: VerificationReport, name: str, s: GeometricSetup, anchor: str) -> None:
    """Add check `name` to `rep`: `s` is a geometric setup, else the check and
    witness of its first failure.  `check_geometric_setup` reports no resource
    limit (a gap is counted), so no failure means its whole report passed."""
    bad = check_geometric_setup(s).first_failure()
    rep.add(name, bad is None, {"check": bad.name, "witness": bad.witness} if bad else {}, anchor=anchor)


def base_change_sweep(s: GeometricSetup, cospans, members) -> tuple[int, int, list | None, tuple | None]:
    """Each cospan (f, g) pulled back through the oracle, in order: how many
    the carrier covers, how many it does not (its gaps) and the first gap
    [f, g], and the first (f, g, q) whose base change q of f along g lies
    outside `members`."""
    covered, gaps, first_gap, outside = 0, 0, None, None
    for f, g in cospans:
        pb = s.pullback_opt(f, g)
        if pb is None:
            gaps += 1
            first_gap = first_gap or [f, g]
            continue
        covered += 1
        if outside is None and pb[2] not in members:
            outside = (f, g, pb[2])
    return covered, gaps, first_gap, outside
