"""Machine-readable pass/fail records shared by every checker."""

from __future__ import annotations

import json

PASS = "pass"
FAIL = "fail"
RESOURCE_LIMIT = "resource-limit"

# the check suites, in dependency order: a run reports them in this order
SUITE_ORDER = ("category", "setup", "model", "theorem")


class ResourceLimitError(RuntimeError):
    """A carrier gap: the carrier lacks an object a construction needs.
    Raised for a cospan with no fiber product (`GeometricSetup.pullback`),
    an atlas with no overlap object (`best_nerve`), and a hypercover search
    that finds no match where an atlas pair it searched has its overlap
    outside the carrier (`extend_system_E`).  Checks that count coverage
    catch it; elsewhere the CLI exits 1.  Never a silent truncation."""


class MalformedInputError(ValueError):
    """Input data violates the declared schema (dangling ids, bad tables)."""


class CheckResult:
    def __init__(self, name: str, status: str, witness: dict | None = None, anchor: str = ""):
        self.name, self.status, self.anchor = name, status, anchor
        self.witness = {} if witness is None else witness
        if self.status not in (PASS, FAIL, RESOURCE_LIMIT):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == FAIL and not self.witness:
            raise ValueError(f"fail result {self.name!r} must carry a witness")

    def _fields(self) -> tuple:
        return self.name, self.status, self.witness, self.anchor

    def __eq__(self, other) -> bool:
        if not isinstance(other, CheckResult):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "CheckResult(name={!r}, status={!r}, witness={!r}, anchor={!r})".format(*self._fields())


class VerificationReport:
    """Ordered list of check results for one suite.

    Checks are kept in insertion order; serialisation is deterministic so
    two runs on identical inputs produce identical bytes.
    """

    def __init__(self, suite: str, checks: list[CheckResult] | None = None):
        self.suite = suite
        self.checks = [] if checks is None else checks

    def add(self, name: str, ok: bool, witness: dict | None = None, anchor: str = "") -> None:
        status = PASS if ok else FAIL
        self.checks.append(CheckResult(name, status, dict(witness or {}), anchor))

    def sweep(self, name: str, cases, test, *, anchor: str = "", counts=None, fast=None) -> dict | None:
        """Report `name` by a first-witness scan; return the witness or None.

        `test(case)` runs on each case in order: None passes the case, else
        it returns the witness as the report prints it, a FAIL that ends the
        scan.  A case whose test raises `ResourceLimitError` is a carrier
        gap: scanned, not covered, never a failure.  With no witness the
        check passes with `counts`, a dict or a function of the numbers of
        cases scanned and covered.  A true `fast()` passes with no scan (a
        function `counts` reads 0, 0); a false one runs the scan, so every
        witness is the scan's first."""
        scanned = gaps = 0
        if fast is None or not fast():
            for scanned, case in enumerate(cases, 1):
                try:
                    found = test(case)
                except ResourceLimitError:
                    gaps += 1
                    continue
                if found is not None:
                    self.add(name, False, found, anchor)
                    return found
        self.add(name, True, counts(scanned, scanned - gaps) if callable(counts) else counts, anchor)
        return None

    def add_limit(self, name: str, witness: dict | None = None, anchor: str = "") -> None:
        self.checks.append(CheckResult(name, RESOURCE_LIMIT, dict(witness or {}), anchor))

    def merge(self, other: "VerificationReport", prefix: str = "") -> None:
        for c in other.checks:
            name = f"{prefix}{c.name}" if prefix else c.name
            self.checks.append(CheckResult(name, c.status, c.witness, c.anchor))

    @property
    def passed(self) -> bool:
        return all(c.status == PASS for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == FAIL]

    def first_failure(self) -> CheckResult | None:
        fails = self.failures
        return fails[0] if fails else None

    def to_dict(self) -> dict:
        return {
            "schema": "corrkit-report/1",
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "witness": _stable(c.witness),
                    "anchor": c.anchor,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = report_lines(self.to_dict())
        lines.append(f"result: {'all pass' if self.passed else 'FAILURES PRESENT'}")
        return "\n".join(lines)


_TAGS = {PASS: "PASS", FAIL: "FAIL", RESOURCE_LIMIT: "LIMIT"}


def report_lines(rep: dict) -> list[str]:
    """The text rendering of a report as `to_dict` writes it: the suite,
    then one line per check with its tag, anchor and witness."""
    lines = [f"suite: {rep['suite']}"]
    for c in rep["checks"]:
        line = f"  [{_TAGS[c['status']]}] {c['name']}"
        if c["anchor"]:
            line += f"  ({c['anchor']})"
        if c["witness"]:
            line += f"  witness={c['witness']!r}"
        lines.append(line)
    return lines


def _stable(value):
    """Coerce witness payloads to JSON-friendly, deterministic structures."""
    if isinstance(value, dict):
        return {str(k): _stable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_stable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
