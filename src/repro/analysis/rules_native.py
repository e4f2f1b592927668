"""HP006: the HP005 property for the one file NumPy's semantics do not protect.

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
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePath

from repro.analysis.findings import Finding
from repro.analysis.rules_hotpath import _BIT_EXACT_DIRS

__all__ = ["check", "check_c_source"]

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
