"""The analysis driver: walk files, run rules, apply suppressions."""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.analysis import rules_hotpath, rules_native, rules_structure, rules_wal
from repro.analysis.findings import Finding
from repro.analysis.suppressions import collect_suppressions, filter_findings

__all__ = ["analyze_paths", "analyze_source", "iter_source_files", "main"]

#: the pure-AST rules, each ``(tree, path) -> [Finding]``
AST_RULES: tuple[Callable[[ast.AST, str], list[Finding]], ...] = (
    rules_hotpath.check,
    rules_native.check,
    rules_native.check_signatures,
    rules_wal.check,
    rules_structure.check,
)


def analyze_source(source: str, path: str) -> list[Finding]:
    """Run every rule for ``path``'s language over one source text.

    A ``.c`` file gets the native-source rule (which has no suppression
    syntax); anything else is Python: every AST rule, honouring
    suppressions.
    """
    if path.endswith(".c"):
        return rules_native.check_c_source(source, path)
    suppressions, findings = collect_suppressions(source, path)
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        findings.append(
            Finding(path, error.lineno or 1, "PARSE001", f"syntax error: {error.msg}")
        )
        return findings
    for rule in AST_RULES:
        findings.extend(rule(tree, path))
    return filter_findings(findings, suppressions)


#: what the analyzer reads: Python everywhere, and the C the loader builds
_SUFFIXES = (".py", ".c")


def iter_source_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` and ``.c`` files."""
    files: set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for suffix in _SUFFIXES:
                files.update(path.rglob("*" + suffix))
        elif path.suffix in _SUFFIXES:
            files.add(path)
        else:
            raise FileNotFoundError(f"{path}: not a Python or C file or directory")
    return sorted(files)


def _filter_registry_findings(findings: list[Finding]) -> list[Finding]:
    """Apply each flagged file's inline suppressions to registry findings."""
    cache: dict[str, list] = {}
    kept: list[Finding] = []
    for finding in findings:
        if finding.path not in cache:
            try:
                source = Path(finding.path).read_text()
            except OSError:
                cache[finding.path] = []
            else:
                cache[finding.path] = collect_suppressions(source, finding.path)[0]
        kept.extend(filter_findings([finding], cache[finding.path]))
    return kept


def analyze_paths(
    paths: Iterable[Path], *, registry: bool = True
) -> list[Finding]:
    """Run the full analysis (AST rules + registry rule) over ``paths``."""
    findings: list[Finding] = []
    for file in iter_source_files(paths):
        findings.extend(analyze_source(file.read_text(), str(file)))
    if registry:
        from repro.analysis.rules_registry import check_registry

        findings.extend(_filter_registry_findings(check_registry()))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (``python -m repro.analysis``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Check the repro source tree against its invariant rules.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--no-registry",
        action="store_true",
        help="skip the import-time registry/spec coverage rule",
    )
    args = parser.parse_args(argv)
    findings = analyze_paths(
        [Path(p) for p in args.paths], registry=not args.no_registry
    )
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0
