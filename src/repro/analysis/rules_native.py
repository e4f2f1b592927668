"""HP006 and HP007: the native source, its compiler flags and its ctypes binding.

HP006 is the HP005 property for the one file NumPy's semantics do not
protect.
The fleet kernel's native body (``src/repro/core/advance_run.c``, built
by :mod:`repro.core._native`) equals the NumPy wavefront bit for bit only
while it performs the same elementwise IEEE-754 double operations in the
same order and the compiler is not allowed to change them.  Two checks
keep that mechanical:

* every ``*.c`` file under the analysed tree may not contain ``#pragma``
  (per-file fast-math / contraction switches), ``float`` or ``long
  double`` (another precision), or a call of any ``<math.h>`` function
  other than ``fabs`` and ``sqrt`` -- ``fma`` fuses two roundings into
  one, ``fmax`` / ``fmin`` drop the NaN that ``np.maximum`` propagates,
  and the rest are libm routines whose last digit varies by build.
  ``sqrt`` is admitted because IEEE 754 requires square root to be
  correctly rounded, like ``+ - * /``, so no libm can vary its last digit
  (``np.sqrt`` is the same operation); its ``float`` and ``long double``
  forms ``sqrtf`` / ``sqrtl`` are other precisions and stay findings.  A
  compiler builtin (``__builtin_fma``) is read as the function it names.
  Comments and string literals are not code and are not searched.  There
  is no ``allow[...]`` for C: a finding is fixed, not excused.
* the module-level ``FLAGS`` tuple under ``core/`` or ``solvers/`` --
  the loader's compiler flags -- must contain
  ``-ffp-contract=off`` and none of the value-changing switches
  (``-ffast-math``, ``-Ofast``, ``-funsafe-math-optimizations``,
  ``-ffinite-math-only``, ``-fassociative-math``).

HP007 holds the loader's ``ctypes`` declarations to the C prototypes
they call.  ``ctypes`` trusts ``argtypes`` and ``restype``: a declaration
one parameter short, or with a pointer where the routine takes an
``int64_t``, does not raise -- it passes the routine garbage, and the
routine writes where the garbage points.  A module that assigns
``ROUTINES = {name: (restype, argtypes), ...}`` and ``SOURCE =
Path(__file__).with_name("<file>.c")`` at module level is read
statically: the types are spelled from ``ctypes.c_int64``,
``ctypes.c_double``, ``ctypes.c_void_p``, ``ctypes.c_char_p`` and
``None``, through module-level names, tuples, ``+`` and ``* <int>``.
Each routine's definition in the C file must take exactly as many
parameters, each of the same kind (``int64_t``, ``double``, or any
pointer), and return the same kind (``void`` for ``None``).  A routine
that takes a structure by pointer trusts its layout the same way, so a
module-level ``STRUCTS = {"<C tag>": <class>, ...}`` is read too: each
class is a module-level ``ctypes.Structure`` whose ``_fields_`` list of
``(name, type)`` pairs must name the fields of ``struct <C tag> { ... };``
in the C file in the same order, each of the same kind.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePath

from repro.analysis.findings import Finding
from repro.analysis.rules_hotpath import _BIT_EXACT_DIRS

__all__ = ["check", "check_c_source", "check_signatures"]

_REQUIRED_FLAG = "-ffp-contract=off"
_FORBIDDEN_FLAGS = frozenset(
    {
        "-ffast-math",
        "-Ofast",
        "-funsafe-math-optimizations",
        "-ffinite-math-only",
        "-fassociative-math",
    }
)

#: C99 <math.h> functions (each also exists with an ``f`` and ``l`` suffix)
_MATH_H = frozenset(
    """
    acos asin atan atan2 cos sin tan acosh asinh atanh cosh sinh tanh exp exp2
    expm1 frexp ilogb ldexp log log10 log1p log2 logb modf scalbn scalbln cbrt
    fabs hypot pow sqrt erf erfc lgamma tgamma ceil floor nearbyint rint lrint
    llrint round lround llround trunc fmod remainder remquo copysign nan
    nextafter nexttoward fdim fmax fmin fma
    """.split()
)
_MATH_CALLS = frozenset(
    name + suffix for name in _MATH_H for suffix in ("", "f", "l")
) - {"fabs", "sqrt"}
_WHY = {
    "fma": "fuses a multiply and an add into one rounding",
    "fmax": "drops the NaN that np.maximum propagates",
    "fmin": "drops the NaN that np.minimum propagates",
    "sqrt": "another precision; the kernel is doubles only",
}

_NOT_CODE = re.compile(r"/\*.*?\*/|//[^\n]*|\"(?:\\.|[^\"\\\n])*\"", re.DOTALL)
_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
_PATTERNS = (
    (
        re.compile(r"#\s*pragma\b"),
        "'#pragma' can switch contraction or fast-math per file",
    ),
    (
        re.compile(r"\bfloat\b"),
        "'float' is another precision; the kernel is doubles only",
    ),
    (
        re.compile(r"\blong\s+double\b"),
        "'long double' is another precision; the kernel is doubles only",
    ),
)


def _blank(match: re.Match) -> str:
    # keep the line structure so findings point at the right line
    return re.sub(r"[^\n]", " ", match.group(0))


def check_c_source(source: str, path: str) -> list[Finding]:
    """Run HP006 over one C source text."""
    code = _NOT_CODE.sub(_blank, source)
    findings: list[Finding] = []

    def report(position: int, message: str) -> None:
        line = code.count("\n", 0, position) + 1
        findings.append(Finding(path, line, "HP006", message))

    for pattern, message in _PATTERNS:
        for match in pattern.finditer(code):
            report(match.start(), message)
    for match in _CALL.finditer(code):
        name = match.group(1)
        function = name.removeprefix("__builtin_")
        if function in _MATH_CALLS:
            base = function if function in _MATH_H else function[:-1]
            why = _WHY.get(base, "libm's last digit varies by build")
            report(
                match.start(),
                f"'{name}(' is a <math.h> call other than fabs and sqrt ({why})",
            )
    findings.sort(key=lambda finding: finding.line)
    return findings


def _flag_tuples(tree: ast.AST):
    """Module-level ``FLAGS = (...)`` assignments: the node and its strings."""
    for node in getattr(tree, "body", ()):
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "FLAGS"
                for target in node.targets
            )
            and isinstance(node.value, ast.Tuple)
        ):
            yield node, [
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            ]


def check(tree: ast.AST, path: str) -> list[Finding]:
    """Run HP006's compiler-flag half over one Python module."""
    if not _BIT_EXACT_DIRS & set(PurePath(path).parts):
        return []
    findings: list[Finding] = []
    for node, flags in _flag_tuples(tree):
        if _REQUIRED_FLAG not in flags:
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    "HP006",
                    f"compiler flags lack '{_REQUIRED_FLAG}': a - b * c may be "
                    "contracted into one fused rounding",
                )
            )
        for flag in flags:
            if flag in _FORBIDDEN_FLAGS:
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        "HP006",
                        f"compiler flag '{flag}' lets the compiler change "
                        "floating-point values",
                    )
                )
    return findings


# ------------------------------------------------------------------ HP007

#: the ctypes types a declaration may use, as the C kind each passes
_CTYPES_KINDS = {
    "c_int64": "int64_t",
    "c_double": "double",
    "c_void_p": "pointer",
    "c_char_p": "pointer",
}
#: words of a C declaration that do not change what is passed
_QUALIFIERS = frozenset({"const", "restrict", "volatile", "static", "inline", "extern"})
_PREPROCESSOR = re.compile(r"^[ \t]*#[^\n]*", re.MULTILINE)
_C_TOKEN = re.compile(r"[A-Za-z_]\w*|\*")


class _Unreadable(Exception):
    """An expression HP007 cannot evaluate statically."""


def _kinds(node: ast.expr, names: dict, seen: frozenset = frozenset()):
    """A ctypes declaration as C kinds: a kind, a tuple of kinds, or an int."""
    if isinstance(node, ast.Constant) and (
        node.value is None or type(node.value) is int
    ):
        return "void" if node.value is None else node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ctypes"
    ):
        return _CTYPES_KINDS.get(node.attr, f"ctypes.{node.attr}")
    if isinstance(node, ast.Name) and node.id in names and node.id not in seen:
        return _kinds(names[node.id], names, seen | {node.id})
    if isinstance(node, ast.Tuple):
        elements = tuple(_kinds(element, names, seen) for element in node.elts)
        if all(isinstance(element, str) for element in elements):
            return elements
    if isinstance(node, ast.BinOp):
        left, right = _kinds(node.left, names, seen), _kinds(node.right, names, seen)
        if isinstance(node.op, ast.Add) and type(left) is type(right) is tuple:
            return left + right
        if isinstance(node.op, ast.Mult):
            if type(left) is tuple and type(right) is int:
                return left * right
            if type(left) is int and type(right) is tuple:
                return right * left
    raise _Unreadable(ast.unparse(node))


def _c_kind(declaration: str) -> tuple[str, str]:
    """``(kind, name)`` of a C parameter (or, name-less, a return type)."""
    tokens = [
        token for token in _C_TOKEN.findall(declaration) if token not in _QUALIFIERS
    ]
    # An all-capitals word is a macro, such as the clone attribute.
    words = [token for token in tokens if token != "*" and not token.isupper()]
    name = words.pop() if len(words) > 1 else ""
    return ("pointer" if "*" in tokens else " ".join(words)), name


def _prototype(code: str, routine: str) -> tuple[str, list] | None:
    """``(return kind, [(kind, name), ...])`` of ``routine``'s definition."""
    match = re.search(r"\b" + re.escape(routine) + r"\s*\(([^)]*)\)\s*\{", code)
    if match is None:
        return None
    # The return type runs back to the end of the statement or block before.
    start = max(code.rfind(mark, 0, match.start()) for mark in ";{}") + 1
    parameters = match.group(1).strip()
    listed = [] if parameters in ("", "void") else parameters.split(",")
    return _c_kind(code[start : match.start()])[0], [_c_kind(each) for each in listed]


def _source_name(node: ast.expr) -> str | None:
    """``"x.c"`` of ``Path(__file__).with_name("x.c")``, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "with_name"
        and len(node.args) == 1
    ):
        argument = node.args[0]
        if isinstance(argument, ast.Constant) and isinstance(argument.value, str):
            return argument.value
    return None


def _binding(value: ast.expr, names: dict) -> tuple[str, tuple]:
    """``(restype kind, argtypes kinds)`` of one ROUTINES entry."""
    if isinstance(value, ast.Tuple) and len(value.elts) == 2:
        restype, argtypes = (_kinds(element, names) for element in value.elts)
        if isinstance(restype, str) and type(argtypes) is tuple:
            return restype, argtypes
    raise _Unreadable(ast.unparse(value))


def _c_fields(code: str, tag: str) -> list | None:
    """``[(kind, name), ...]`` of ``struct tag``'s declaration, in order."""
    match = re.search(r"\bstruct\s+" + re.escape(tag) + r"\s*\{([^}]*)\}\s*;", code)
    if match is None:
        return None
    fields = []
    for declaration in match.group(1).split(";"):
        if not declaration.strip():
            continue
        # "double *a, b;" declares a pointer and a double.
        first, *more = declaration.split(",")
        fields.append(_c_kind(first))
        base = _c_kind(first.replace("*", " "))[0]
        for declarator in more:
            name = [token for token in _C_TOKEN.findall(declarator) if token != "*"]
            fields.append(("pointer" if "*" in declarator else base, name[-1]))
    return fields


def _struct_fields(node: ast.ClassDef, names: dict) -> list:
    """``[(name, kind), ...]`` of a ctypes Structure's ``_fields_``."""
    for statement in node.body:
        if (
            isinstance(statement, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "_fields_"
                for target in statement.targets
            )
            and isinstance(statement.value, (ast.List, ast.Tuple))
        ):
            fields = []
            for element in statement.value.elts:
                if not (
                    isinstance(element, ast.Tuple)
                    and len(element.elts) == 2
                    and isinstance(element.elts[0], ast.Constant)
                    and isinstance(element.elts[0].value, str)
                ):
                    raise _Unreadable(ast.unparse(element))
                kind = _kinds(element.elts[1], names)
                if not isinstance(kind, str):
                    raise _Unreadable(ast.unparse(element.elts[1]))
                fields.append((element.elts[0].value, kind))
            return fields
    raise _Unreadable(f"class {node.name} without a _fields_ list")


def _check_structs(
    structs: ast.Dict, classes: dict, names: dict, code: str, source: str, report
) -> None:
    """HP007 for every ``STRUCTS`` entry against ``code``."""
    for key, value in zip(structs.keys, structs.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            report(value, "a STRUCTS key is not a C struct tag")
            continue
        tag = key.value
        if not (isinstance(value, ast.Name) and value.id in classes):
            report(
                key, f"struct {tag}: '{ast.unparse(value)}' is not a module-level class"
            )
            continue
        try:
            declared = _struct_fields(classes[value.id], names)
        except _Unreadable as unreadable:
            report(key, f"struct {tag}: cannot read '{unreadable}' as ctypes fields")
            continue
        fields = _c_fields(code, tag)
        if fields is None:
            report(key, f"struct {tag}: no declaration in {source}")
            continue
        if len(fields) != len(declared):
            report(
                key,
                f"struct {tag} has {len(fields)} fields in {source}, but "
                f"{value.id}._fields_ declares {len(declared)}",
            )
        for position, ((kind, name), (field, declared_kind)) in enumerate(
            zip(fields, declared), 1
        ):
            if (name, kind) != (field, declared_kind):
                report(
                    key,
                    f"struct {tag} field {position} is {kind} {name} in {source}, "
                    f"but {value.id}._fields_ declares {declared_kind} {field}",
                )
                break


def check_signatures(tree: ast.AST, path: str) -> list[Finding]:
    """Run HP007 over one Python module (reads the C file it binds)."""
    names: dict[str, ast.expr] = {}
    classes: dict[str, ast.ClassDef] = {}
    for node in getattr(tree, "body", ()):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.value
        elif isinstance(node, ast.ClassDef):
            classes[node.name] = node
    routines = names.get("ROUTINES")
    if not isinstance(routines, ast.Dict):
        return []
    findings: list[Finding] = []

    def report(node: ast.expr, message: str) -> None:
        findings.append(Finding(path, node.lineno, "HP007", message))

    source = _source_name(names["SOURCE"]) if "SOURCE" in names else None
    if source is None:
        report(
            routines, "ROUTINES without SOURCE = Path(__file__).with_name('<file>.c')"
        )
        return findings
    try:
        with open(PurePath(path).parent / source, encoding="utf-8") as handle:
            code = handle.read()
    except OSError as error:
        report(routines, f"cannot read {source}, the source ROUTINES binds: {error}")
        return findings
    code = _PREPROCESSOR.sub(_blank, _NOT_CODE.sub(_blank, code))
    for key, value in zip(routines.keys, routines.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            report(value, "a ROUTINES key is not a routine name")
            continue
        routine = key.value
        try:
            restype, argtypes = _binding(value, names)
        except _Unreadable as unreadable:
            report(key, f"{routine}: cannot read '{unreadable}' as ctypes types")
            continue
        prototype = _prototype(code, routine)
        if prototype is None:
            report(key, f"{routine}: no definition in {source}")
            continue
        returns, parameters = prototype
        if returns != restype:
            report(
                key,
                f"{routine} returns {returns} in {source}, but its restype "
                f"passes {restype}",
            )
        if len(parameters) != len(argtypes):
            report(
                key,
                f"{routine} takes {len(parameters)} parameters in {source}, "
                f"but argtypes declares {len(argtypes)}",
            )
        for position, ((kind, name), declared) in enumerate(
            zip(parameters, argtypes), 1
        ):
            if kind != declared:
                report(
                    key,
                    f"{routine} parameter {position} ({name or 'unnamed'}) is "
                    f"{kind} in {source}, but argtypes passes {declared}",
                )
                break
    structs = names.get("STRUCTS")
    if isinstance(structs, ast.Dict):
        _check_structs(structs, classes, names, code, source, report)
    return findings
