"""Bundled example instances: carriers, factorization setups, coefficient
models, pair declarations, and localization problems.

Each instance names the check suites that apply to it and the checks that
are documented to fail, so a full run can verify that failures land exactly
where the analysis says they do.  Instances are built lazily and cached;
listing order is fixed.  Each builder imports the layer its declaration
lives in, so listing the corpus loads neither `descent` nor `lattices`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .fincat import (
    FunctorData,
    chain_category,
    finset_category,
    finset_skeleton,
    injections,
    surjections,
    terminal_category,
)
from .report import SUITE_ORDER, MalformedInputError
from .setups import EdgeClass, GeometricSetup, NagataSetup, all_class, iso_class


@dataclass(frozen=True)
class CorpusInstance:
    """A named example plus the suites it supports.

    `expect_fail` maps a suite to the check names documented to fail there;
    a default run treats exactly those failures as the correct outcome."""

    name: str
    kind: str
    description: str
    suites: tuple[str, ...]
    build: object = field(repr=False)
    expect_fail: dict = field(default_factory=dict, repr=False)
    options: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        unknown = sorted(set(self.suites) - set(SUITE_ORDER))
        if unknown:
            raise ValueError(f"instance {self.name!r} names unknown suite {unknown[0]!r}")


@lru_cache(maxsize=None)
def _skel(n: int) -> GeometricSetup:
    c = finset_skeleton(n)
    return GeometricSetup(c, all_class(c))


@lru_cache(maxsize=None)
def _cover_carrier() -> GeometricSetup:
    # smallest all-function carrier containing the overlap of a 2-to-1 cover
    c = finset_category({"1": 1, "2": 2, "4": 4})
    return GeometricSetup(c, all_class(c))


def _nagata_open():
    s = _skel(2)
    return NagataSetup(s, all_class(s.category), iso_class(s.category))


def _nagata_proper():
    s = _skel(2)
    return NagataSetup(s, iso_class(s.category), all_class(s.category))


def _nagata_inj_surj():
    # marked class inj + surj so every marked map factors inside the carrier
    c = _skel(2).category
    e = EdgeClass(c, injections(c) | surjections(c))
    return NagataSetup(
        GeometricSetup(c, e), EdgeClass(c, injections(c)), EdgeClass(c, surjections(c))
    )


def _nagata_inj_all():
    s = _skel(2)
    return NagataSetup(s, EdgeClass(s.category, injections(s.category)), all_class(s.category))


def _chain(n: int):
    from .lattices import chain_lattice

    return chain_lattice(n)


def _pentagon(tensor: str = "meet"):
    from .lattices import n5_lattice

    return n5_lattice(tensor)


def _pair_identity():
    from .descent import PairDeclaration, identity_atlas

    s = _skel(2)
    c = s.category
    sm = frozenset(surjections(c))
    cover = EdgeClass(c, sm)
    atl = {o: (identity_atlas(s, cover, c.objects, o),) for o in c.objects}
    return PairDeclaration(
        "nice", s, c.objects, sm, sm, frozenset(c.morphism_ids), atl
    )


def _pair_cover(kind: str):
    from .descent import Atlas, PairDeclaration, identity_atlas

    s = _cover_carrier()
    c = s.category
    sm = frozenset(surjections(c))
    cover = EdgeClass(c, sm)
    atl = {o: (identity_atlas(s, cover, c.objects, o),) for o in c.objects}
    atl["1"] = atl["1"] + (Atlas(s, "2>1:0.0", cover, c.objects),)
    return PairDeclaration(kind, s, c.objects, sm, sm, frozenset(c.morphism_ids), atl)


def _localization_interval():
    from .descent import LocalizationProblem

    c = chain_category(1)
    t = terminal_category()
    p = FunctorData(c, t, {"0": "*", "1": "*"}, {m: "id_*" for m in c.morphism_ids})
    return LocalizationProblem(p, frozenset({"0<=1"}))


def _localization_cover():
    from .descent import LocalizationProblem

    c = finset_skeleton(1)
    t = terminal_category()
    p = FunctorData(c, t, {x: "*" for x in c.objects}, {m: "id_*" for m in c.morphism_ids})
    return LocalizationProblem(p, frozenset({"0>1:"}))


_INSTANCES = (
    CorpusInstance(
        "finset-1", "category", "finite sets of size at most 1",
        ("category", "setup"), lambda: _skel(1),
    ),
    CorpusInstance(
        "finset-2", "category", "finite sets of size at most 2",
        ("category", "setup"), lambda: _skel(2),
    ),
    CorpusInstance(
        "finset-3", "category", "finite sets of size at most 3",
        ("category", "setup"), lambda: _skel(3),
    ),
    CorpusInstance(
        "nagata-open", "nagata", "everything open-like, isomorphisms proper-like",
        ("category", "setup", "theorem"), _nagata_open,
    ),
    CorpusInstance(
        "nagata-proper", "nagata", "isomorphisms open-like, everything proper-like",
        ("category", "setup", "theorem"), _nagata_proper,
    ),
    CorpusInstance(
        "nagata-inj-surj", "nagata", "injections open-like, surjections proper-like",
        ("category", "setup", "theorem"), _nagata_inj_surj,
        # inj compose surj can be constant, hence neither; the marked class
        # of this designed-negative instance is not composition-closed
        {"setup": ("closed-under-composition",), "theorem": ("axioms:cancellation-p",)},
    ),
    CorpusInstance(
        "nagata-inj-all", "nagata", "injections open-like, everything proper-like",
        ("category", "setup", "theorem"), _nagata_inj_all,
        {"theorem": ("hypotheses:support-property",)},
    ),
    CorpusInstance(
        "frame-2chain", "model", "two-element chain coefficients",
        ("model",), lambda: _chain(1),
    ),
    CorpusInstance(
        "frame-3chain", "model", "three-element chain coefficients",
        ("model",), lambda: _chain(2),
    ),
    CorpusInstance(
        "pentagon-meet", "model", "non-distributive pentagon, meet tensor",
        ("model",), lambda: _pentagon(),
        {"model": ("projection-sharp",)},
    ),
    CorpusInstance(
        "pentagon-join", "model", "non-distributive pentagon, join tensor",
        ("model",), lambda: _pentagon("join"),
        {"model": ("projection-sharp", "projection-star", "external-product")},
    ),
    CorpusInstance(
        "nice-pair-identity", "pair", "degenerate pair: identity atlases over one carrier",
        ("theorem",), _pair_identity,
    ),
    CorpusInstance(
        "nice-pair-cover", "pair", "2-to-1 cover atlas on the overlap-complete carrier",
        ("theorem",), lambda: _pair_cover("nice"),
        # the full pair gate passes here in about 2 s, nearly all of it in
        # the ~167 k fiber products its four setup checks construct; that
        # would triple a ~1 s corpus run and adds checks to the pinned payload
        options={"full_gate": False},
    ),
    CorpusInstance(
        "exceptional-pair-cover", "pair", "hypercover matching over the overlap-complete carrier",
        ("theorem",), lambda: _pair_cover("exceptional"),
    ),
    CorpusInstance(
        "localization-interval", "localization", "the interval collapsed to a point",
        ("theorem",), _localization_interval,
    ),
    CorpusInstance(
        "localization-cover", "localization", "sets of size at most 1 collapsed to a point",
        ("theorem",), _localization_cover,
    ),
)


def corpus() -> tuple[CorpusInstance, ...]:
    return _INSTANCES


def instance(name: str) -> CorpusInstance:
    for inst in _INSTANCES:
        if inst.name == name:
            return inst
    raise MalformedInputError(f"no bundled instance named {name!r}")
