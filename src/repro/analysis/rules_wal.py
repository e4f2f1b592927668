"""WAL001: the write-ahead append must dominate every state mutation.

Crash recovery (PR 5) replays the WAL on top of the last checkpoint; that
only reconstructs the exact pre-crash state if every ingest record was
appended *before* the corresponding state advanced.  A mutation hoisted
above its ``self._wal_append`` call opens a crash window in which state
moved but the log never heard about it.

The rule checks every method that calls ``self._wal_append`` (in any
class -- the engine is the real subject, fixtures stand in for it in
tests): walking the method body in statement order, any *mutation* --

* a ``self._process*`` / ``self._ingest*`` / ``self._advance*`` /
  ``self._apply*`` call (the engine's state-advancing helpers), or
* a store to / mutating call on ``self._series`` / ``self._groups`` /
  ``self._absorbed`` / ``self._never_absorb`` (the engine's fleet
  mappings: the roster with the scalar homes, the kernel groups, the
  column of every absorbed key, and the keys that never absorb)

-- must come after a point where the append has happened on **every**
path: a plain append statement establishes it, an ``if`` establishes it
only when both branches do, and a loop body never does (it may run zero
times).
"""

from __future__ import annotations

import ast
from typing import Sequence

from repro.analysis.findings import Finding

__all__ = ["check"]

_WAL_CALL = "_wal_append"
_MUTATING_CALL_PREFIXES = (
    "_process",
    "_ingest",
    "_advance",
    "_apply",
)
_MUTATED_ATTRS = frozenset({"_series", "_groups", "_absorbed", "_never_absorb"})


def _is_self_attr(node: ast.AST, names: frozenset[str]) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in names
    )


def _contains_wal_call(stmt: ast.stmt) -> bool:
    for node in ast.walk(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == _WAL_CALL
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            return True
    return False


def _tracked_base(node: ast.AST) -> bool:
    """``self._series`` itself, or ``self._series[...]``."""
    if _is_self_attr(node, _MUTATED_ATTRS):
        return True
    return isinstance(node, ast.Subscript) and _is_self_attr(
        node.value, _MUTATED_ATTRS
    )


def _mutations(stmt: ast.stmt) -> list[tuple[int, str]]:
    """Every ``(line, description)`` of a state mutation inside ``stmt``."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and func.attr.startswith(_MUTATING_CALL_PREFIXES)
            ):
                found.append((node.lineno, f"call 'self.{func.attr}(...)'"))
            elif _tracked_base(func.value):
                found.append(
                    (node.lineno, f"mutating call '{ast.unparse(func)}(...)'")
                )
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets: Sequence[ast.AST]
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            else:
                targets = [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if _tracked_base(sub):
                        found.append(
                            (node.lineno, f"store to '{ast.unparse(sub)}'")
                        )
                        break
    return found


def _scan_block(
    stmts: list[ast.stmt],
    seen: bool,
    method: str,
    path: str,
    findings: list[Finding],
) -> bool:
    """Walk one statement sequence; return whether every path appended."""
    for stmt in stmts:
        if isinstance(stmt, ast.If):
            body_seen = _scan_block(stmt.body, seen, method, path, findings)
            orelse_seen = (
                _scan_block(stmt.orelse, seen, method, path, findings)
                if stmt.orelse
                else seen
            )
            seen = body_seen and orelse_seen
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            # the loop body may run zero times: it never establishes the
            # append for statements after the loop
            _scan_block(stmt.body, seen, method, path, findings)
            _scan_block(stmt.orelse, seen, method, path, findings)
        elif isinstance(stmt, ast.Try):
            body_seen = _scan_block(stmt.body, seen, method, path, findings)
            handler_seen = body_seen
            for handler in stmt.handlers:
                # the body may have failed anywhere, including before its
                # append -- handlers start from the incoming state
                handler_seen = (
                    _scan_block(handler.body, seen, method, path, findings)
                    and handler_seen
                )
            _scan_block(stmt.orelse, body_seen, method, path, findings)
            _scan_block(stmt.finalbody, seen, method, path, findings)
            seen = handler_seen if (stmt.handlers or stmt.orelse) else body_seen
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            seen = _scan_block(stmt.body, seen, method, path, findings)
        elif isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue  # nested scopes are checked on their own merits
        else:
            if not seen:
                for line, description in _mutations(stmt):
                    findings.append(
                        Finding(
                            path,
                            line,
                            "WAL001",
                            f"{method}: {description} precedes the "
                            "_wal_append call; the WAL must be appended "
                            "before state mutates",
                        )
                    )
            if _contains_wal_call(stmt):
                seen = True
    return seen


def check(tree: ast.AST, path: str) -> list[Finding]:
    """Run WAL001 over every WAL-logging method in ``tree``."""
    findings: list[Finding] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == _WAL_CALL:
                continue
            if not any(_contains_wal_call(stmt) for stmt in method.body):
                continue
            _scan_block(method.body, False, method.name, path, findings)
    return findings
