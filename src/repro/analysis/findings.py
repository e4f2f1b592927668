"""The finding record and the catalogue of rule identifiers."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding", "RULES"]

#: every rule the analyzer can emit; a suppression naming any other id is
#: itself a finding (SUP001)
RULES: dict[str, str] = {
    "HP001": "@hotpath function allocates a container inside a loop",
    "HP002": "@hotpath function re-resolves an attribute chain inside a loop",
    "HP003": "@hotpath function enters try/except inside a loop",
    "HP004": "@hotpath function forwards **kwargs",
    "HP005": "@hotpath core/solvers function calls a BLAS-backed reduction",
    "HP006": "native source or its compiler flags can change floating-point bits",
    "HP007": "ctypes declaration does not match the C prototype it calls",
    "WAL001": "state mutation is not dominated by the _wal_append call",
    "REG001": "concrete component subclass is not registered",
    "REG002": "component spec does not round-trip to a fixed point",
    "SLOTS001": "hot-module dataclass does not declare slots=True",
    "SPEC001": "spec dataclass field is not a JSON primitive or nested spec",
    "PRIV001": "sharding/serving code reads a private attribute off another object",
    "PKL001": "module imports a pickle-family serializer outside the allowlist",
    "MAT001": "kernel columns are materialized outside the scalar boundaries",
    "SUP001": "suppression names an unknown rule id",
    "SUP002": "suppression does not state a reason",
    "PARSE001": "source file does not parse",
}


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        """The canonical one-line form: ``path:line: RULE-ID message``."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"
