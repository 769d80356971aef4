"""Window-certified check reports.

Every verifier in this package answers per degree with one of four verdicts:
PASS, FAIL (with a witness), OUT_OF_WINDOW (the products needed leave the
degree window), or UNDERDETERMINED (the window truncates a computation whose
exact value needs degrees beyond it).  A report "passes" when it contains no
FAIL anywhere, including nested clause reports; UNDERDETERMINED and
OUT_OF_WINDOW entries are carried along so a caller can see exactly what the
window could not certify.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from . import util

PASS = "PASS"
FAIL = "FAIL"
OUT_OF_WINDOW = "OUT-OF-WINDOW"
UNDERDETERMINED = "UNDERDETERMINED"

_VERDICTS = (PASS, FAIL, OUT_OF_WINDOW, UNDERDETERMINED)


class PreconditionError(Exception):
    """A verifier's hypotheses are not window-certified for the given input."""


@dataclass(frozen=True)
class DegreeVerdict:
    """Verdict for one degree (or degree pair) of a check."""

    key: Any
    verdict: str
    witness: Any = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")


@dataclass
class CertifiedReport:
    """Outcome of one check, per degree, plus nested clause reports."""

    check: str
    n: int | None = None
    entries: list[DegreeVerdict] = field(default_factory=list)
    unchecked: list[Any] = field(default_factory=list)
    clauses: dict[str, "CertifiedReport"] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @classmethod
    def sweep(
        cls, check: str, keys: Iterable[Any], fn: Callable[[Any], tuple | None], n: int | None = None
    ) -> "CertifiedReport":
        """One entry per key from ``fn(key) -> (verdict, witness[, note])``.

        Keys where ``fn`` returns None are unchecked.  Entries keep key order.
        """
        rep = cls(check=check, n=n)
        keys = list(keys)
        for key, result in zip(keys, util.sweep(fn, keys)):
            if result is None:
                rep.unchecked.append(key)
            else:
                rep.add(key, *result)
        return rep

    def add(self, key: Any, verdict: str, witness: Any = None, note: str | None = "") -> None:
        self.entries.append(DegreeVerdict(key, verdict, witness, note or ""))

    def failures(self) -> list[DegreeVerdict]:
        out = [e for e in self.entries if e.verdict == FAIL]
        for sub in self.clauses.values():
            out.extend(sub.failures())
        return out

    @property
    def passed(self) -> bool:
        return not self.failures()

    def to_json_dict(self) -> dict:
        out: dict[str, Any] = {
            "check": self.check,
            "per_degree": [
                {
                    "i": _json_key(e.key),
                    "verdict": e.verdict,
                    **({"witness": _json_value(e.witness)} if e.witness is not None else {}),
                    **({"note": e.note} if e.note else {}),
                }
                for e in self.entries
            ],
            "unchecked_degrees": [_json_key(k) for k in self.unchecked],
            "passed": self.passed,
        }
        if self.n is not None:
            out["n"] = self.n
        if self.clauses:
            out["clauses"] = {name: sub.to_json_dict() for name, sub in self.clauses.items()}
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    def render_text(self, indent: str = "") -> str:
        lines = [f"{indent}[{'PASS' if self.passed else 'FAIL'}] {self.check}"
                 + (f" (n={self.n})" if self.n is not None else "")]
        for e in self.entries:
            tail = ""
            if e.witness is not None:
                tail += f"  witness={_json_value(e.witness)}"
            if e.note:
                tail += f"  ({e.note})"
            lines.append(f"{indent}  {e.key}: {e.verdict}{tail}")
        if self.unchecked:
            lines.append(f"{indent}  unchecked: {self.unchecked}")
        for note in self.notes:
            lines.append(f"{indent}  note: {note}")
        for name, sub in self.clauses.items():
            lines.append(f"{indent}  clause {name}:")
            lines.append(sub.render_text(indent + "    "))
        return "\n".join(lines)


def _json_key(key: Any) -> Any:
    if isinstance(key, tuple):
        return list(key)
    return key


def _json_value(value: Any) -> Any:
    import numpy as np

    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in value.items()}
    return value
