"""JSON envelopes for categories, lattices, and declarations.

Every envelope carries its schema tag in-band and is rejected on unknown
fields, so a file cannot silently smuggle unchecked data.  All dumps are
deterministic (sorted keys) so reports built on them are byte-stable.
Each loader imports the layer it builds, so reading an envelope loads
only the modules its declaration lives in.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .report import MalformedInputError

if TYPE_CHECKING:
    from .descent import LocalizationProblem, PairDeclaration
    from .fincat import FinCategory
    from .lattices import FiniteLattice
    from .setups import NagataSetup

CATEGORY_SCHEMA = "corrkit-category/1"
LATTICE_SCHEMA = "corrkit-lattice/1"
NAGATA_SCHEMA = "corrkit-nagata/1"
PAIR_SCHEMA = "corrkit-pair/1"
LOCALIZATION_SCHEMA = "corrkit-localization/1"

COMPOSE_SEP = "∘"  # the composition ring, not expected inside ids


def _check_fields(d: dict, schema: str, required, optional=()):
    if not isinstance(d, dict):
        raise MalformedInputError("envelope must be a JSON object")
    if d.get("schema") != schema:
        raise MalformedInputError(f"expected schema {schema!r}, got {d.get('schema')!r}")
    allowed = set(required) | set(optional) | {"schema"}
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise MalformedInputError(f"unknown field {unknown[0]!r} in {schema}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise MalformedInputError(f"missing field {missing[0]!r} in {schema}")


def _strings(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise MalformedInputError(f"{what} must be a list of strings")
    return value


def _string_tuples(value, n: int, what: str) -> list:
    if not isinstance(value, list):
        raise MalformedInputError(f"{what} must be a list")
    for entry in value:
        if not isinstance(entry, list) or len(entry) != n or not all(isinstance(v, str) for v in entry):
            raise MalformedInputError(f"{what} entry {entry!r} is not a list of {n} strings")
    return value


def _string_map(value, what: str) -> dict:
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise MalformedInputError(f"{what} must map strings to strings")
    return value


# -- categories ------------------------------------------------------------


def category_to_dict(c: FinCategory) -> dict:
    for m in c.morphism_ids:
        if COMPOSE_SEP in m:
            raise MalformedInputError(f"morphism id {m!r} contains the composition separator")
    # the composable pairs in sorted order, each entry read once: by value
    # on an all-function carrier, which stores nothing, else from the table
    into = c._in_index
    entries = (((g, f), c.composite(g, f)) for g in c.morphism_ids for f in into.get(c.morphisms[g][0], ()))
    out = {
        "schema": CATEGORY_SCHEMA,
        "objects": list(c.objects),
        "morphisms": [
            {"id": m, "src": c.src(m), "dst": c.dst(m)} for m in c.morphism_ids
        ],
        "identities": dict(c.identity),
        "compose": {f"{g}{COMPOSE_SEP}{f}": h for (g, f), h in entries},
    }
    if c.object_size is not None:
        out["sizes"] = dict(c.object_size)
    return out


def category_from_dict(d: dict) -> FinCategory:
    """A sizes-free envelope loads as its own tables, once they are closed
    and well typed; a `sizes` envelope as the carrier `finset_category`
    builds, in the envelope's object order and with no compose table, once
    it is shown to be exactly that carrier.  Either way every
    morphism joins listed objects, and `identities` names one loop at each
    object and nothing else."""
    from .fincat import FinCategory, compose_table_witness

    _check_fields(d, CATEGORY_SCHEMA, ("objects", "morphisms", "identities", "compose"), ("sizes",))
    objects = tuple(_strings(d["objects"], "objects"))
    if len(set(objects)) != len(objects):
        raise MalformedInputError(f"duplicate object {next(x for x in objects if objects.count(x) > 1)!r}")
    if not isinstance(d["morphisms"], list):
        raise MalformedInputError("morphisms must be a list")
    morphisms = {}
    for entry in d["morphisms"]:
        if not isinstance(entry, dict):
            raise MalformedInputError("morphism entry must be an object")
        extra = sorted(set(entry) - {"id", "src", "dst"})
        if extra:
            raise MalformedInputError(f"unknown field {extra[0]!r} in morphism entry")
        missing = [k for k in ("id", "src", "dst") if k not in entry]
        if missing:
            raise MalformedInputError(f"morphism entry lacks {missing[0]!r}")
        _string_map(entry, "morphism entry")
        if entry["id"] in morphisms:
            raise MalformedInputError(f"duplicate morphism id {entry['id']!r}")
        if entry["src"] not in objects or entry["dst"] not in objects:
            raise MalformedInputError(f"morphism {entry['id']!r} has an endpoint outside the objects")
        morphisms[entry["id"]] = (entry["src"], entry["dst"])
    compose = _string_map(d["compose"], "compose")
    identity = dict(_string_map(d["identities"], "identities"))
    bad = sorted(set(identity) ^ set(objects))
    if bad:
        raise MalformedInputError(f"identities do not match objects at {bad[0]!r}")
    for x in objects:
        if morphisms.get(identity[x]) != (x, x):
            raise MalformedInputError(f"identity of {x!r} is not a loop at {x!r}")
    if "sizes" in d:
        return _all_functions(objects, morphisms, identity, compose, d["sizes"])
    table = {_compose_pair(key): h for key, h in compose.items()}
    c = FinCategory(objects, morphisms, identity, table)
    bad = compose_table_witness(c, table)
    if bad is not None:
        g, f = bad["pair"]
        result = f" ({bad['result']!r})" if "result" in bad else ""
        raise MalformedInputError(f"compose entry {g!r} after {f!r}: {bad['problem']}{result}")
    return c


def _compose_pair(key: str) -> tuple[str, str]:
    g, sep, f = key.partition(COMPOSE_SEP)
    if not sep:
        raise MalformedInputError(f"malformed compose key {key!r}")
    return g, f


def _all_functions(objects, morphisms, identity, compose, sizes) -> FinCategory:
    """The category of all functions between sets of the given sizes, once
    the envelope lists exactly its ids, identities and compose entries: the
    fiber product, coproduct and frame constructions read ids as function
    values and trust them.  The counts come first, so the build is no
    larger than the envelope.  The entries are checked against one bulk
    `function_table`, which is not kept: the carrier composes by value."""
    from .fincat import FinCategory, finset_category, function_table

    if not isinstance(sizes, dict):
        raise MalformedInputError("sizes must map objects to integers")
    bad = sorted(set(sizes) ^ set(objects))
    if bad:
        raise MalformedInputError(f"sizes do not match objects at {bad[0]!r}")
    for x, n in sizes.items():
        if type(n) is not int or n < 0:
            raise MalformedInputError(f"size of {x!r} is not a non-negative integer")
    count: dict[tuple[str, str], int] = {}
    for x, y in morphisms.values():
        count[(x, y)] = count.get((x, y), 0) + 1
    for x in objects:
        for y in objects:
            if not _is_power(count.get((x, y), 0), sizes[y], sizes[x]):
                raise MalformedInputError(f"hom-set {x!r} -> {y!r} does not hold every function")
    # every hom-set count is now an exact power, so the sums are bounded
    into = {y: sum(sizes[y] ** sizes[x] for x in objects) for y in objects}
    pairs = sum(into[y] * sum(sizes[z] ** sizes[y] for z in objects) for y in objects)
    if len(compose) != pairs:
        raise MalformedInputError(f"compose table has {len(compose)} entries, not one per composable pair")
    built = finset_category(sizes)
    for m, typing in morphisms.items():
        if built.morphisms.get(m) != typing:
            raise MalformedInputError(f"morphism id {m!r} is not a function of {typing[0]!r} into {typing[1]!r}")
    for x in objects:
        if identity[x] != built.identity[x]:
            raise MalformedInputError(f"identity of {x!r} is not the identity function")
    table = function_table(built)
    for key, h in compose.items():
        g, f = _compose_pair(key)
        want = table.get((g, f))
        if want is None:
            raise MalformedInputError(f"compose entry {g!r} after {f!r} is not a composable pair")
        if h != want:
            raise MalformedInputError(f"compose entry {g!r} after {f!r} is {h!r}, not {want!r}")
    return FinCategory(objects, built.morphisms, built.identity, None, built.object_size)


def _is_power(count: int, n: int, k: int) -> bool:
    """count == n ** k, without building a power larger than count."""
    return (n < 2 or k <= count.bit_length()) and count == n**k


# -- lattices --------------------------------------------------------------


def lattice_to_dict(L: FiniteLattice) -> dict:
    out = {
        "schema": LATTICE_SCHEMA,
        "elements": list(L.elements),
        "leq": sorted([a, b] for a, b in L.leq),
        "frame": L.is_frame,
    }
    if L.tensor_table is not None:
        out["tensor"] = sorted([a, b, t] for (a, b), t in L.tensor_table.items())
    return out


def lattice_from_dict(d: dict) -> FiniteLattice:
    from .lattices import FiniteLattice

    _check_fields(d, LATTICE_SCHEMA, ("elements", "leq", "frame"), ("tensor",))
    elements = _strings(d["elements"], "lattice elements")
    if len(set(elements)) != len(elements):
        raise MalformedInputError(f"duplicate element {next(x for x in elements if elements.count(x) > 1)!r}")
    leq = _string_tuples(d["leq"], 2, "leq")
    if not isinstance(d["frame"], bool):
        raise MalformedInputError("frame flag must be true or false")
    tensor = None
    if "tensor" in d:
        tensor = {}
        for a, b, t in _string_tuples(d["tensor"], 3, "tensor"):
            if (a, b) in tensor:
                raise MalformedInputError(f"duplicate tensor entry ({a!r}, {b!r})")
            tensor[(a, b)] = t
    L = FiniteLattice(tuple(elements), frozenset((a, b) for a, b in leq), tensor)
    if d["frame"] != L.is_frame:
        raise MalformedInputError("frame flag disagrees with the order tables")
    return L


# -- marked classes and declarations ---------------------------------------


def _class_members(c: FinCategory, d: dict, key: str) -> frozenset:
    from .setups import EdgeClass

    return EdgeClass(c, frozenset(_strings(d[key], key))).members


def nagata_to_dict(ns: NagataSetup) -> dict:
    return {
        "schema": NAGATA_SCHEMA,
        "category": category_to_dict(ns.setup.category),
        "e": sorted(ns.setup.e.members),
        "i": sorted(ns.i_class.members),
        "p": sorted(ns.p_class.members),
    }


def nagata_from_dict(d: dict) -> NagataSetup:
    from .setups import EdgeClass, GeometricSetup, NagataSetup

    _check_fields(d, NAGATA_SCHEMA, ("category", "e", "i", "p"))
    c = category_from_dict(d["category"])
    setup = GeometricSetup(c, EdgeClass(c, _class_members(c, d, "e")))
    return NagataSetup(setup, EdgeClass(c, _class_members(c, d, "i")), EdgeClass(c, _class_members(c, d, "p")))


def pair_from_dict(d: dict) -> PairDeclaration:
    from .descent import PairDeclaration
    from .setups import EdgeClass, GeometricSetup

    _check_fields(
        d,
        PAIR_SCHEMA,
        ("kind", "category", "e_big", "small_objects", "s_small", "s_big", "e_small", "cover", "atlases"),
    )
    c = category_from_dict(d["category"])
    big = GeometricSetup(c, EdgeClass(c, _class_members(c, d, "e_big")))
    if not isinstance(d["atlases"], dict):
        raise MalformedInputError("atlases must map objects to lists of strings")
    return PairDeclaration(
        d["kind"],
        big,
        tuple(_strings(d["small_objects"], "small_objects")),
        frozenset(_strings(d["s_small"], "s_small")),
        frozenset(_strings(d["s_big"], "s_big")),
        frozenset(_strings(d["e_small"], "e_small")),
        frozenset(_strings(d["cover"], "cover")),
        {obj: tuple(_strings(lst, f"atlases of {obj!r}")) for obj, lst in d["atlases"].items()},
    )


def _total_map(value, keys, targets, what: str) -> dict:
    """A string map defined exactly on `keys`, each value one of `targets`."""
    m = _string_map(value, what)
    missing = [k for k in keys if k not in m]
    if missing:
        raise MalformedInputError(f"{what} has no entry for {missing[0]!r}")
    extra = sorted(set(m) - set(keys))
    if extra:
        raise MalformedInputError(f"{what} has an entry for unknown {extra[0]!r}")
    stray = sorted(k for k, v in m.items() if v not in targets)
    if stray:
        raise MalformedInputError(f"{what} sends {stray[0]!r} to {m[stray[0]]!r}, outside the target")
    return dict(m)


def localization_from_dict(d: dict) -> LocalizationProblem:
    from .descent import LocalizationProblem
    from .fincat import FunctorData, check_functor

    _check_fields(d, LOCALIZATION_SCHEMA, ("source", "target", "obj_map", "mor_map", "inverted"))
    src = category_from_dict(d["source"])
    dst = category_from_dict(d["target"])
    obj_map = _total_map(d["obj_map"], src.objects, set(dst.objects), "obj_map")
    mor_map = _total_map(d["mor_map"], src.morphism_ids, dst.morphisms, "mor_map")
    p = FunctorData(src, dst, obj_map, mor_map)
    bad = check_functor(p).first_failure()
    if bad is not None:
        witness = json.dumps(bad.witness, sort_keys=True)
        raise MalformedInputError(f"mor_map is not a functor: check {bad.name!r} fails at {witness}")
    return LocalizationProblem(p, frozenset(_strings(d["inverted"], "inverted")))


# -- generic entry points --------------------------------------------------

_LOADERS = {
    CATEGORY_SCHEMA: category_from_dict,
    LATTICE_SCHEMA: lattice_from_dict,
    NAGATA_SCHEMA: nagata_from_dict,
    PAIR_SCHEMA: pair_from_dict,
    LOCALIZATION_SCHEMA: localization_from_dict,
}


def from_dict(d: dict):
    if not isinstance(d, dict) or "schema" not in d:
        raise MalformedInputError("envelope lacks a schema tag")
    schema = d["schema"]
    loader = _LOADERS.get(schema) if isinstance(schema, str) else None
    if loader is None:
        raise MalformedInputError(f"unknown schema {schema!r}")
    return loader(d)


def dumps(d: dict) -> str:
    return json.dumps(d, sort_keys=True, indent=2)


def loads(text: str):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"not valid JSON: line {exc.lineno}, column {exc.colno}")
    except RecursionError:
        raise MalformedInputError("not valid JSON: nested too deeply to parse")
    return from_dict(payload)
