"""Workload definitions, seeded input generation and the verdict oracle.

Three workloads, each a list of `corrkit` invocations run one at a time:

* ``corpus``   -- one bare ``corrkit run --format json`` (expectation mode).
  This is the run users and CI perform.  Its input is the bundled corpus,
  which is fixed, so the seed is unused.  About 96% of its time is in the
  two ``*-pair-cover`` instances: many lattice maps over 16-element power
  lattices (``lattices``), plus factorization search, descent and hom scans.
* ``carriers`` -- seeded all-function carriers (3-5 objects, sizes 0-3),
  each a ``corrkit-nagata/1`` envelope checked by its own
  ``corrkit run --input FILE``.  The work lands in ``fincat`` (category
  check, hom scans, the pullback fast path), ``setups``, ``grid``,
  ``shriek`` and ``serialization``; ``lattices`` only sees powers of the
  2-chain.  A ``fincat`` hom index shows here; a lattice rewrite should not.
* ``models``   -- seeded finite lattices of 4-12 elements, each a
  ``corrkit-lattice/1`` envelope checked by ``--suite model``.  Nearly all
  the time is in ``lattices`` over large power lattices (up to 144
  elements) with only 11 maps: the opposite shape to ``corpus`` (many maps
  over small lattices), so a representation change that helps one shape
  and costs the other shows up.

Every possible input is an entry of ``catalog.json``, recorded on the
commit the catalogue names, with its exit code and the SHA-256 of its
``--format json`` bytes.
Entries are grouped into strata of similar cost; each iteration draws one
entry per stratum, so two seeds give different inputs but the same mix of
costs, which keeps run-to-run spread low.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOG_PATH = os.path.join(HERE, "catalog.json")

WORKLOADS = ("corpus", "carriers", "models")

# object names of generated carriers, assigned to sizes in ascending order
CARRIER_NAMES = "abcde"

# class-pair patterns (open-like / proper-like) documented by the corpus
# instances nagata-open, nagata-proper, nagata-inj-surj and nagata-inj-all
CARRIER_PATTERNS = ("all/iso", "iso/all", "inj/surj", "inj/all")

# suites run on a carrier: the theorem suite only while the largest object
# has at most 2 elements (it takes 8.8 s on {1,2,2,2} and 70 s on {0,1,2,3})
THEOREM_MAX_SIZE = 2

TENSORS = ("meet", "join")


# -- carriers ---------------------------------------------------------------


def carrier_suites(sizes) -> tuple[str, ...]:
    if max(sizes) <= THEOREM_MAX_SIZE:
        return ("category", "setup", "theorem")
    return ("category", "setup")


def carrier_setup(sizes, pattern: str):
    """The NagataSetup of an all-function carrier with a class pair."""
    from corrkit.fincat import finset_category, injections, surjections
    from corrkit.setups import EdgeClass, GeometricSetup, all_class, iso_class
    from corrkit.shriek import NagataSetup

    c = finset_category(dict(zip(CARRIER_NAMES, sizes)))
    inj, surj = injections(c), surjections(c)
    if pattern == "inj/surj":
        # e = inj + surj so every marked map factors inside the carrier
        e = EdgeClass(c, inj | surj)
        i, p = EdgeClass(c, inj), EdgeClass(c, surj)
    elif pattern == "all/iso":
        e, i, p = all_class(c), all_class(c), iso_class(c)
    elif pattern == "iso/all":
        e, i, p = all_class(c), iso_class(c), all_class(c)
    elif pattern == "inj/all":
        e, i, p = all_class(c), EdgeClass(c, inj), all_class(c)
    else:
        raise ValueError(f"unknown class pattern {pattern!r}")
    return NagataSetup(GeometricSetup(c, e), i, p)


def carrier_text(sizes, pattern: str) -> str:
    from corrkit import serialization as ser

    return ser.dumps(ser.nagata_to_dict(carrier_setup(sizes, pattern)))


def carrier_expected_failures(sizes, pattern: str) -> dict:
    """Hand rule: the checks each suite must fail, by suite.

    The category suite always passes (every all-function carrier is a
    category).  all/iso and iso/all pass everything.  inj/surj fails exactly
    where the corpus documents for nagata-inj-surj once some injection
    followed by a surjection is neither, which needs an object of size
    1..max-1.  inj/all fails where nagata-inj-all documents once two object
    sizes differ."""
    suites = carrier_suites(sizes)
    out = {s: [] for s in suites}
    if pattern == "inj/surj" and any(1 <= s < max(sizes) for s in sizes):
        out["setup"] = ["closed-under-composition"]
        if "theorem" in out:
            out["theorem"] = ["axioms:cancellation-p"]
    if pattern == "inj/all" and len(set(sizes)) > 1 and "theorem" in out:
        out["theorem"] = ["hypotheses:support-property"]
    return out


# -- lattices ---------------------------------------------------------------


def _factor_order(name: str):
    """(elements, leq) of one factor lattice: Ck is the k-element chain."""
    if name.startswith("C"):
        els = [str(i) for i in range(int(name[1:]))]
        return els, {(a, b) for a in els for b in els if int(a) <= int(b)}
    atoms = {"N5": ("a", "b", "c"), "M3": ("a", "b", "c")}[name]
    els = ["0", *atoms, "1"]
    leq = {(x, x) for x in els} | {("0", x) for x in els} | {(x, "1") for x in els}
    if name == "N5":
        leq.add(("a", "c"))  # bot < a < c < top, b beside both
    return els, leq


def lattice_shapes() -> list[tuple[str, ...]]:
    """Products of factors with 4-12 elements: chain products, N5, M3,
    and N5/M3 times the 2-chain."""
    sizes = {"N5": 5, "M3": 5}
    shapes = []
    for k in (4, 5, 6, 8, 10, 12):
        shapes.append((f"C{k}",))
    for a, b in (("C2", "C2"), ("C2", "C3"), ("C2", "C4"), ("C3", "C3"),
                 ("C2", "C5"), ("C2", "C6"), ("C3", "C4")):
        shapes.append((a, b))
    shapes += [("C2", "C2", "C2"), ("C2", "C2", "C3")]
    shapes += [("N5",), ("M3",), ("N5", "C2"), ("M3", "C2")]
    for s in shapes:
        n = 1
        for f in s:
            n *= sizes.get(f, int(f[1:]) if f.startswith("C") else 0)
        if not 4 <= n <= 12:
            raise AssertionError(f"shape {s} has {n} elements")
    return shapes


def is_distributive(shape) -> bool:
    return not any(f in ("N5", "M3") for f in shape)


def lattice_text(shape, tensor: str, rng: random.Random) -> str:
    """The envelope of a product lattice, its elements named by random
    labels and listed in random order.  The model suite's report does not
    mention element names, so its bytes do not depend on them."""
    from corrkit import serialization as ser
    from corrkit.lattices import FiniteLattice

    factors = [_factor_order(f) for f in shape]
    tuples = [()]
    for els, _ in factors:
        tuples = [t + (e,) for t in tuples for e in els]

    def le(s, t):
        return all((a, b) in factors[i][1] for i, (a, b) in enumerate(zip(s, t)))

    labels = rng.sample(range(10 * len(tuples)), len(tuples))
    names = {t: f"e{n}" for t, n in zip(tuples, labels)}
    rng.shuffle(tuples)
    els = tuple(names[t] for t in tuples)
    leq = frozenset((names[s], names[t]) for s in tuples for t in tuples if le(s, t))
    L = FiniteLattice(els, leq)
    if tensor == "join":
        L = FiniteLattice(els, leq, {(a, b): L.join(a, b) for a in els for b in els})
    elif tensor != "meet":
        raise ValueError(f"unknown tensor {tensor!r}")
    return ser.dumps(ser.lattice_to_dict(L))


MODEL_CHECKS = ("adjoint-triangles", "projection-sharp", "projection-star", "external-product")


# -- catalogue and invocations ------------------------------------------------


def entry_id(workload: str, key) -> str:
    if workload == "carriers":
        sizes, pattern = key
        return "k" + "".join(map(str, sizes)) + "-" + pattern.replace("/", "-")
    shape, tensor = key
    return "l" + "x".join(shape) + "-" + tensor


def load_catalog() -> dict:
    with open(CATALOG_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def input_path(workload: str, eid: str) -> str:
    """Relative path of an entry's envelope.  The CLI names each report
    after its input path, so the path is part of the recorded bytes."""
    return os.path.join(".bench_work", "in", workload, eid + ".json")


def corrkit_args(workload: str, entry: dict | None) -> list[str]:
    if workload == "corpus":
        return ["run", "--format", "json"]
    args = ["run", "--input", input_path(workload, entry["id"]), "--format", "json"]
    for s in entry["suites"]:
        args += ["--suite", s]
    return args


def entry_text(workload: str, entry: dict, rng: random.Random) -> str:
    if workload == "carriers":
        return carrier_text(tuple(entry["sizes"]), entry["pattern"])
    return lattice_text(tuple(entry["shape"]), entry["tensor"], rng)


def planned_iterations(catalog: dict, workload: str, seconds: float) -> int:
    """How many iterations fit in `seconds` at the recorded costs (one draw
    per stratum, or the corpus run), at least one.  The count depends on the
    catalogue only, never on how fast the machine runs today: on a machine
    whose speed drifts, a count taken from live timings flips between runs
    and moves the tail percentile with it."""
    if workload == "corpus":
        cost = catalog["corpus"]["cost_s"]
    else:
        strata: dict[int, list[float]] = {}
        for e in catalog[workload]:
            strata.setdefault(e["stratum"], []).append(e["cost_s"])
        cost = sum(sum(v) / len(v) for v in strata.values())
    return max(1, int(seconds // cost))


def draw(catalog: dict, workload: str, seed: int, iteration: int) -> list[dict]:
    """One entry per cost stratum, in a seeded order.  The corpus workload
    has a single fixed input."""
    if workload == "corpus":
        return [catalog["corpus"]]
    rng = random.Random(f"{workload}:{seed}:{iteration}")
    strata: dict[int, list[dict]] = {}
    for e in catalog[workload]:
        strata.setdefault(e["stratum"], []).append(e)
    picks = [rng.choice(strata[k]) for k in sorted(strata)]
    rng.shuffle(picks)
    return picks


def write_inputs(root: str, workload: str, entries, seed: int) -> None:
    """Write each drawn entry's envelope under the checkout; the same seed
    gives the same bytes."""
    for e in entries:
        if workload == "corpus":
            continue
        rng = random.Random(f"labels:{seed}:{e['id']}")
        path = os.path.join(root, input_path(workload, e["id"]))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(entry_text(workload, e, rng) + "\n")


# -- verdict oracle -------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def suite_digest(rep: dict) -> str:
    return sha256(json.dumps(rep, sort_keys=True).encode("utf-8"))


def hand_rule(workload: str, entry: dict, payload: dict) -> dict[str, bool]:
    """suite -> whether the report agrees with the rule the mathematics
    fixes.  Suites no rule covers map to True; the digest judges them."""
    out = {}
    for rep in payload.get("reports", []):
        suite = rep["suite"].rsplit(":", 1)[1]
        failed = sorted(c["name"] for c in rep["checks"] if c["status"] == "fail")
        if workload == "corpus":
            out[rep["suite"]] = payload["verdicts"].get(rep["suite"]) is True
        elif workload == "carriers":
            expected = carrier_expected_failures(tuple(entry["sizes"]), entry["pattern"])
            out[rep["suite"]] = failed == sorted(expected.get(suite, []))
        elif is_distributive(entry["shape"]) and entry["tensor"] == "meet":
            names = [c["name"] for c in rep["checks"]]
            out[rep["suite"]] = not failed and names == list(MODEL_CHECKS)
        else:
            out[rep["suite"]] = True
    return out


def judge(workload: str, entry: dict, code: int, stdout: bytes, stderr: bytes) -> dict:
    """Compare one child's result with the input's known answer.

    Returns error (exit 2, a traceback, or a resource-limit the known answer
    does not list),
    suites (number judged) and suites_ok.  A payload whose bytes differ from
    the recorded digest counts every suite as wrong."""
    error = code == 2 or b"Traceback" in stderr
    try:
        payload = json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        payload = None
    n_suites = max(len(entry["suites_digest"]), 1)
    if payload is None or not isinstance(payload, dict):
        return {"error": True, "suites": n_suites, "suites_ok": 0}
    reports = payload.get("reports", [])
    limits = sorted(
        f"{r['suite']}/{c['name']}" for r in reports for c in r["checks"] if c["status"] == "resource-limit"
    )
    if set(limits) - set(entry["limits"]):
        error = True
    rules = hand_rule(workload, entry, payload)
    whole_ok = sha256(stdout) == entry["digest"] and code == entry["exit"]
    ok = 0
    for rep in reports:
        if (
            whole_ok
            and rules.get(rep["suite"], False)
            and entry["suites_digest"].get(rep["suite"]) == suite_digest(rep)
        ):
            ok += 1
    return {"error": error, "suites": max(len(reports), n_suites), "suites_ok": ok}
