"""Bundled example instances: carriers, factorization setups, coefficient
models, pair declarations, and localization problems.

An instance's kind decides which check suites apply to it, and the
instance names the checks that are documented to fail, so a full run can
verify that failures land exactly where the analysis says they do.
Instances are built lazily and cached; listing order is fixed.  Each
builder imports the layer its declaration lives in, so listing the corpus
loads neither `descent` nor `lattices`.
"""

from __future__ import annotations

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
from .setups import EdgeClass, GeometricSetup, NagataSetup, all_class, iso_class, skeleton_setup


# kind -> the suites an instance of that kind runs: the ones `cli._plan`
# runs on the declaration the kind's builders return
_SUITES = {
    "category": {"category", "setup"},
    "nagata": {"category", "setup", "theorem"},
    "model": {"model"},
    "pair": {"theorem"},
    "localization": {"theorem"},
}


class CorpusInstance:
    """A named example of one of the kinds in `_SUITES`.

    `expect_fail` maps a suite to the check names documented to fail there;
    a default run treats exactly those failures as the correct outcome."""

    def __init__(
        self, name: str, kind: str, description: str, build, expect_fail: dict | None = None, options: dict | None = None
    ):
        self.name, self.kind, self.description, self.build = name, kind, description, build
        self.expect_fail = {} if expect_fail is None else expect_fail
        self.options = {} if options is None else options
        self.__post_init__()

    def __post_init__(self):
        if self.kind not in _SUITES:
            raise ValueError(f"instance {self.name!r} has unknown kind {self.kind!r}")

    @property
    def suites(self) -> tuple[str, ...]:
        """The suites of the instance's kind, in SUITE_ORDER."""
        return tuple(s for s in SUITE_ORDER if s in _SUITES[self.kind])


@lru_cache(maxsize=None)
def _cover_carrier() -> GeometricSetup:
    # smallest all-function carrier containing the overlap of a 2-to-1 cover
    c = finset_category({"1": 1, "2": 2, "4": 4})
    return GeometricSetup(c, all_class(c))


def _nagata_open():
    s = skeleton_setup(2)
    return NagataSetup(s, all_class(s.category), iso_class(s.category))


def _nagata_proper():
    s = skeleton_setup(2)
    return NagataSetup(s, iso_class(s.category), all_class(s.category))


def _nagata_inj_surj():
    # marked class inj + surj so every marked map factors inside the carrier
    c = skeleton_setup(2).category
    e = EdgeClass(c, injections(c) | surjections(c))
    return NagataSetup(
        GeometricSetup(c, e), EdgeClass(c, injections(c)), EdgeClass(c, surjections(c))
    )


def _nagata_inj_all():
    s = skeleton_setup(2)
    return NagataSetup(s, EdgeClass(s.category, injections(s.category)), all_class(s.category))


def _chain(n: int):
    from .lattices import chain_lattice

    return chain_lattice(n)


def _pentagon(tensor: str = "meet"):
    from .lattices import n5_lattice

    return n5_lattice(tensor)


def _pair_identity():
    from .descent import PairDeclaration

    s = skeleton_setup(2)
    c = s.category
    sm = frozenset(surjections(c))
    atl = {o: (c.identity[o],) for o in c.objects}
    return PairDeclaration("nice", s, c.objects, sm, sm, frozenset(c.morphism_ids), sm, atl)


def _pair_cover(kind: str):
    from .descent import PairDeclaration

    s = _cover_carrier()
    c = s.category
    sm = frozenset(surjections(c))
    atl = {o: (c.identity[o],) for o in c.objects}
    atl["1"] += ("2>1:0.0",)
    return PairDeclaration(kind, s, c.objects, sm, sm, frozenset(c.morphism_ids), sm, atl)


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
        lambda: skeleton_setup(1),
    ),
    CorpusInstance(
        "finset-2", "category", "finite sets of size at most 2",
        lambda: skeleton_setup(2),
    ),
    CorpusInstance(
        "finset-3", "category", "finite sets of size at most 3",
        lambda: skeleton_setup(3),
    ),
    CorpusInstance(
        "nagata-open", "nagata", "everything open-like, isomorphisms proper-like",
        _nagata_open,
    ),
    CorpusInstance(
        "nagata-proper", "nagata", "isomorphisms open-like, everything proper-like",
        _nagata_proper,
    ),
    CorpusInstance(
        "nagata-inj-surj", "nagata", "injections open-like, surjections proper-like",
        _nagata_inj_surj,
        # inj compose surj can be constant, hence neither; the marked class
        # of this designed-negative instance is not composition-closed
        {"setup": ("closed-under-composition",), "theorem": ("axioms:cancellation-p",)},
    ),
    CorpusInstance(
        "nagata-inj-all", "nagata", "injections open-like, everything proper-like",
        _nagata_inj_all,
        {"theorem": ("hypotheses:support-property",)},
    ),
    CorpusInstance(
        "frame-2chain", "model", "two-element chain coefficients",
        lambda: _chain(1),
    ),
    CorpusInstance(
        "frame-3chain", "model", "three-element chain coefficients",
        lambda: _chain(2),
    ),
    CorpusInstance(
        "pentagon-meet", "model", "non-distributive pentagon, meet tensor",
        lambda: _pentagon(),
        {"model": ("projection-sharp",)},
    ),
    CorpusInstance(
        "pentagon-join", "model", "non-distributive pentagon, join tensor",
        lambda: _pentagon("join"),
        {"model": ("projection-sharp", "projection-star", "external-product")},
    ),
    CorpusInstance(
        "nice-pair-identity", "pair", "degenerate pair: identity atlases over one carrier",
        _pair_identity,
    ),
    CorpusInstance(
        "nice-pair-cover", "pair", "2-to-1 cover atlas on the overlap-complete carrier",
        lambda: _pair_cover("nice"),
        # the full pair gate passes here in 0.26-0.37 s on a fresh instance
        # (2-CPU VM), nearly all of it in the 76,669 fiber products of the two
        # setup verdicts its four setup checks read; a whole fresh corpus run
        # takes 0.16-0.25 s there, and the gate adds checks to the pinned
        # payload.  The option stays until dropping it no longer moves the
        # corpus benchmark (ROADMAP item 2)
        options={"full_gate": False},
    ),
    CorpusInstance(
        "exceptional-pair-cover", "pair", "hypercover matching over the overlap-complete carrier",
        lambda: _pair_cover("exceptional"),
    ),
    CorpusInstance(
        "localization-interval", "localization", "the interval collapsed to a point",
        _localization_interval,
    ),
    CorpusInstance(
        "localization-cover", "localization", "sets of size at most 1 collapsed to a point",
        _localization_cover,
    ),
)


def corpus() -> tuple[CorpusInstance, ...]:
    return _INSTANCES


def instance(name: str) -> CorpusInstance:
    for inst in _INSTANCES:
        if inst.name == name:
            return inst
    raise MalformedInputError(f"no bundled instance named {name!r}")
