"""Definitions that only the unit tests call: the writers of pair and
localization envelopes, which no run or subcommand writes, and the span
references that `span_class_key` and the correspondence cells are tested
against.  The file name has no `test_` prefix, so pytest collects nothing
here."""

from __future__ import annotations

from corrkit.descent import LocalizationProblem, PairDeclaration
from corrkit.fincat import FinCategory
from corrkit.grid import cp_name
from corrkit.serialization import LOCALIZATION_SCHEMA, PAIR_SCHEMA, category_to_dict
from corrkit.spans import CorrSimplex, Span, span_apex, span_feet

# -- envelope writers --------------------------------------------------------


def pair_to_dict(pd: PairDeclaration) -> dict:
    return {
        "schema": PAIR_SCHEMA,
        "kind": pd.kind,
        "category": category_to_dict(pd.big.category),
        "e_big": sorted(pd.big.e.members),
        "small_objects": list(pd.small_objects),
        "s_small": sorted(pd.s_small),
        "s_big": sorted(pd.s_big),
        "e_small": sorted(pd.e_small),
        "atlases": {obj: [a.x for a in lst] for obj, lst in sorted(pd.atlases.items())},
    }


def localization_to_dict(lp: LocalizationProblem) -> dict:
    return {
        "schema": LOCALIZATION_SCHEMA,
        "source": category_to_dict(lp.p.source),
        "target": category_to_dict(lp.p.target),
        "obj_map": dict(lp.p.obj_map),
        "mor_map": dict(lp.p.mor_map),
        "inverted": sorted(lp.r),
    }


# -- span references ---------------------------------------------------------


def find_span_iso(c: FinCategory, a: Span, b: Span) -> str | None:
    """An isomorphism of apexes commuting with both legs, if one exists."""
    if span_feet(c, a) != span_feet(c, b):
        return None
    wa, wb = span_apex(c, a), span_apex(c, b)
    for h in c.hom(wa, wb):
        if h in c.iso_ids and c.comp(b.left, h) == a.left and c.comp(b.right, h) == a.right:
            return h
    return None


def spans_isomorphic(c: FinCategory, a: Span, b: Span) -> bool:
    return find_span_iso(c, a, b) is not None


def simplex_edge(cs: CorrSimplex, a: tuple[int, int], b: tuple[int, int]) -> Span:
    """The span spanned by vertices a[0]..a[1] of the cell (restriction to
    the sub-staircase on two vertices)."""
    F = cs.functor
    i, j = a[0], b[0]
    return Span(
        F.mor_map[f"{cp_name((i, j))}<={cp_name((i, i))}"],
        F.mor_map[f"{cp_name((i, j))}<={cp_name((j, j))}"],
    )
