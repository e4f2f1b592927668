"""HP00x: purity rules for functions marked ``@hotpath``.

The fleet kernel's throughput comes from doing zero Python-object work
per point (PR 3/4); these rules keep edits from quietly reintroducing it.
Inside a function carrying the :func:`repro.analysis.markers.hotpath`
decorator:

* **HP001** -- no ``list``/``dict``/``set`` literals or comprehensions
  inside a loop (every iteration would allocate a fresh container;
  tuples are exempt -- CPython handles constant tuples without a per-
  iteration allocation, and index tuples like ``a[:, None]`` are how the
  kernels address their arrays);
* **HP002** -- no ``a.b.c`` attribute chains (two or more dots) inside a
  loop: each iteration pays two dictionary lookups for a value that a
  single pre-loop hoist (``b = a.b``) resolves once;
* **HP003** -- no ``try``/``except`` inside a loop (zero-cost only until
  it isn't; error handling belongs outside the per-point path);
* **HP004** -- no ``**kwargs`` forwarding anywhere in the function (it
  allocates a dict per call and hides the callee's real signature);
* **HP005** -- under ``core/`` and ``solvers/``, no BLAS-backed
  reduction anywhere in the function: ``np.dot``, ``@`` / ``np.matmul``,
  ``np.correlate``, ``np.einsum`` or anything in ``np.linalg``.  The
  kernel equals the scalar model bit for bit because both apply the same
  elementwise IEEE operations in the same order; a BLAS reduction picks
  its own summation order and fused multiply-adds per build and per CPU,
  which no column-wise NumPy code can reproduce.

The whole body of a ``for``/``while`` statement counts as "inside the
loop", including the iterable expression -- hoist it if it matters.
"""

from __future__ import annotations

import ast
from pathlib import PurePath

from repro.analysis.findings import Finding

__all__ = ["check"]

_ALLOC_NODES = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)
_ALLOC_LABELS: dict[type, str] = {
    ast.List: "list literal",
    ast.Dict: "dict literal",
    ast.Set: "set literal",
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
    ast.GeneratorExp: "generator expression",
}

_LOOPS = (ast.For, ast.AsyncFor, ast.While)

_BIT_EXACT_DIRS = frozenset({"core", "solvers"})
_NUMPY_NAMES = frozenset({"np", "numpy"})
_BLAS_FUNCTIONS = frozenset({"dot", "matmul", "correlate", "einsum"})


def _is_hotpath(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    # both bare ``@hotpath`` and qualified ``@analysis.hotpath`` count
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "hotpath":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "hotpath":
            return True
    return False


def _snippet(node: ast.AST) -> str:
    text = ast.unparse(node)
    return text if len(text) <= 60 else text[:57] + "..."


def _scan(
    node: ast.AST, in_loop: bool, name: str, path: str, findings: list[Finding]
) -> None:
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
        if in_loop:
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    "HP002",
                    f"{name}: attribute chain '{_snippet(node)}' re-resolved "
                    "inside a loop; hoist the intermediate lookup before it",
                )
            )
        # recurse past the chain so 'a.b.c.d' is one finding, not two
        base: ast.AST = node.value
        while isinstance(base, ast.Attribute):
            base = base.value
        _scan(base, in_loop, name, path, findings)
        return
    if in_loop and isinstance(node, _ALLOC_NODES):
        label = _ALLOC_LABELS.get(type(node), "container literal")
        findings.append(
            Finding(
                path,
                node.lineno,
                "HP001",
                f"{name}: {label} '{_snippet(node)}' "
                "allocates inside a loop; preallocate or hoist it",
            )
        )
    if in_loop and isinstance(node, ast.Try):
        findings.append(
            Finding(
                path,
                node.lineno,
                "HP003",
                f"{name}: try/except inside a loop; move error handling "
                "outside the per-point path",
            )
        )
    if isinstance(node, ast.Call) and any(kw.arg is None for kw in node.keywords):
        findings.append(
            Finding(
                path,
                node.lineno,
                "HP004",
                f"{name}: call '{_snippet(node)}' forwards **kwargs on a hot "
                "path; spell the arguments out",
            )
        )
    enters_loop = isinstance(node, _LOOPS)
    for child in ast.iter_child_nodes(node):
        _scan(child, in_loop or enters_loop, name, path, findings)


def _blas_reduction(node: ast.AST) -> str | None:
    """How ``node`` spells a BLAS-backed reduction, or None if it is none."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
        node.op, ast.MatMult
    ):
        return "@"
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return None
    owner = node.func.value
    if isinstance(owner, ast.Name) and owner.id in _NUMPY_NAMES:
        if node.func.attr in _BLAS_FUNCTIONS:
            return f"{owner.id}.{node.func.attr}"
    elif (
        isinstance(owner, ast.Attribute)
        and owner.attr == "linalg"
        and isinstance(owner.value, ast.Name)
        and owner.value.id in _NUMPY_NAMES
    ):
        return f"{owner.value.id}.linalg.{node.func.attr}"
    return None


def check(tree: ast.AST, path: str) -> list[Finding]:
    """Run the HP00x rules over every ``@hotpath`` function in ``tree``."""
    findings: list[Finding] = []
    bit_exact = bool(_BIT_EXACT_DIRS & set(PurePath(path).parts))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_hotpath(
            node
        ):
            for child in ast.iter_child_nodes(node):
                _scan(child, False, node.name, path, findings)
            if bit_exact:
                for inner in ast.walk(node):
                    spelled = _blas_reduction(inner)
                    if spelled is not None:
                        findings.append(
                            Finding(
                                path,
                                inner.lineno,
                                "HP005",
                                f"{node.name}: '{spelled}' is a BLAS-backed "
                                "reduction; its bits depend on the BLAS build, "
                                "so spell the sum out elementwise",
                            )
                        )
    return findings
