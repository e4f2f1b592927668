"""SLOTS001 / SPEC001 / PRIV001 / PKL001 / MAT001: structural discipline rules.

* **SLOTS001** -- dataclasses defined under ``core/``, ``solvers/`` or
  ``streaming/`` must declare ``slots=True``.  These are the modules whose
  instances exist per series or per point; a ``__dict__`` per instance is
  measurable memory and lookup overhead at fleet scale (PR 4 slotted the
  record types for exactly this reason).
* **SPEC001** -- dataclass fields in ``repro/specs.py`` may only be
  annotated as JSON primitives (``str``/``int``/``float``/``bool``/
  ``dict``/``list``/``tuple``, unions and subscripts thereof) or nested
  spec types (``*Spec``).  The spec layer's portability guarantee -- a
  spec is pure data that survives JSON -- is only as strong as its field
  types.
* **PRIV001** -- code under ``sharding/`` or ``serving/``, the tiers above
  the engine, may read a ``_private`` attribute only off ``self`` or
  ``cls``.  A router summing ``engine._series_marker(key)`` or calling
  ``MultiSeriesEngine._grid_from_dict`` pins the engine's internals from
  outside; what a tier needs from the one below is a public name there.
* **PKL001** -- no module under ``repro`` imports ``pickle``,
  ``cPickle``, ``shelve``, ``marshal`` or ``dill``, except the ones in
  :data:`PICKLE_ALLOWLIST`.  State leaves an engine as segment bytes
  (named arrays plus a JSON header); pickle is left only where
  ``durability/format.py`` encodes WAL records and a segment's fallback
  section, so a new serialization path has to say why it is not those.
* **MAT001** -- ``_FleetGroup.materialize`` (any ``.materialize(...)``
  call under ``repro``) may be called only from the functions in
  :data:`MATERIALIZE_CALLERS`.  An absorbed series is its kernel column,
  and every write advances the column; scalar state is built from it only
  for a segment's fallback section (``_materialized``), for the rare cell
  the kernel hands back (``_process_unlogged``), and where saved columns
  are decoded into scalar homes (``_decode_segment``): a snapshot's
  mapping view, an engine whose kernel is disabled, columns saved under
  another ``minimum_std``.  ``snapshot`` and ``restore`` build none.  The
  rule matches a function by name alone, so each name here is one no
  other function under ``repro`` has.
"""

from __future__ import annotations

import ast
from pathlib import PurePath

from repro.analysis.findings import Finding

__all__ = ["MATERIALIZE_CALLERS", "PICKLE_ALLOWLIST", "check"]

_SLOTTED_DIRS = frozenset({"core", "solvers", "streaming"})
_UPPER_TIER_DIRS = frozenset({"sharding", "serving"})
_PRIMITIVES = frozenset({"str", "int", "float", "bool", "dict", "list", "tuple"})
_PICKLE_MODULES = frozenset({"pickle", "cPickle", "_pickle", "shelve", "marshal", "dill"})
#: the modules under ``repro`` that may import one, as path-part suffixes
PICKLE_ALLOWLIST = (("durability", "format.py"),)
#: the functions that may build scalar state from kernel columns
MATERIALIZE_CALLERS = frozenset(
    {"_decode_segment", "_materialized", "_process_unlogged"}
)


def _dataclass_decorator(cls: ast.ClassDef) -> ast.expr | ast.Call | None:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return decorator
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return decorator
    return None


def _declares_slots(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "slots":
            return (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            )
    return False


def _check_slots(tree: ast.AST, path: str, findings: list[Finding]) -> None:
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorator = _dataclass_decorator(cls)
        if decorator is None:
            continue
        if not _declares_slots(decorator):
            findings.append(
                Finding(
                    path,
                    cls.lineno,
                    "SLOTS001",
                    f"dataclass {cls.name} in a hot module must declare "
                    "slots=True (per-instance __dict__ costs memory and "
                    "lookups at fleet scale)",
                )
            )


def _is_classvar(annotation: ast.expr) -> bool:
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    if isinstance(target, ast.Name):
        return target.id == "ClassVar"
    if isinstance(target, ast.Attribute):
        return target.attr == "ClassVar"
    return False


def _allowed_spec_annotation(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Constant):
        # None (in unions) or a string forward reference to a spec type
        if annotation.value is None:
            return True
        return isinstance(annotation.value, str) and annotation.value.endswith(
            "Spec"
        )
    if isinstance(annotation, ast.Name):
        return annotation.id in _PRIMITIVES or annotation.id.endswith("Spec")
    if isinstance(annotation, ast.Attribute):
        return annotation.attr.endswith("Spec")
    if isinstance(annotation, ast.Subscript):
        if not _allowed_spec_annotation(annotation.value):
            return False
        inner = annotation.slice
        parts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        return all(_allowed_spec_annotation(part) for part in parts)
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _allowed_spec_annotation(annotation.left) and _allowed_spec_annotation(
            annotation.right
        )
    return False


def _check_spec_fields(tree: ast.AST, path: str, findings: list[Finding]) -> None:
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or _dataclass_decorator(cls) is None:
            continue
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                stmt.target, ast.Name
            ):
                continue
            if _is_classvar(stmt.annotation):
                continue
            if not _allowed_spec_annotation(stmt.annotation):
                findings.append(
                    Finding(
                        path,
                        stmt.lineno,
                        "SPEC001",
                        f"spec field {cls.name}.{stmt.target.id} is annotated "
                        f"'{ast.unparse(stmt.annotation)}'; spec fields must "
                        "be JSON primitives or nested *Spec types",
                    )
                )


def _check_private_access(tree: ast.AST, path: str, findings: list[Finding]) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        name = node.attr
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
            continue
        findings.append(
            Finding(
                path,
                node.lineno,
                "PRIV001",
                f"'{ast.unparse(node)}' reaches into a private attribute of "
                "another object; give the owner a public name for it",
            )
        )


def _check_pickle_imports(tree: ast.AST, path: str, findings: list[Finding]) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] in _PICKLE_MODULES:
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        "PKL001",
                        f"imports {name!r}: state leaves an engine as segment "
                        "bytes; pickle is durability/format.py's alone",
                    )
                )


def _check_materialize_calls(
    node: ast.AST, function: str | None, path: str, findings: list[Finding]
) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a function nested in an allowed caller is part of it
            inner = function if function in MATERIALIZE_CALLERS else child.name
            _check_materialize_calls(child, inner, path, findings)
            continue
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr == "materialize"
            and function not in MATERIALIZE_CALLERS
        ):
            findings.append(
                Finding(
                    path,
                    child.lineno,
                    "MAT001",
                    f"'{ast.unparse(child.func)}' builds scalar state from "
                    f"kernel columns in {function or 'module scope'}; only "
                    f"{', '.join(sorted(MATERIALIZE_CALLERS))} may -- a "
                    "write advances the columns",
                )
            )
        _check_materialize_calls(child, function, path, findings)


def check(tree: ast.AST, path: str) -> list[Finding]:
    """Run the structural rules that apply to ``path``."""
    findings: list[Finding] = []
    parts = PurePath(path).parts
    if _SLOTTED_DIRS & set(parts):
        _check_slots(tree, path, findings)
    if _UPPER_TIER_DIRS & set(parts):
        _check_private_access(tree, path, findings)
    if "repro" in parts and not any(
        parts[-len(allowed) :] == allowed for allowed in PICKLE_ALLOWLIST
    ):
        _check_pickle_imports(tree, path, findings)
    if "repro" in parts:
        _check_materialize_calls(tree, None, path, findings)
    if parts and parts[-1] == "specs.py":
        _check_spec_fields(tree, path, findings)
    return findings
