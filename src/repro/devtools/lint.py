"""``reprolint`` — the repo's invariant linter (engine + CLI).

Usage::

    python -m repro.devtools.lint [paths...]
        [--format=text|json] [--explain RLxxx] [--list-rules]

The engine parses every ``.py`` file under the given paths (default:
``src``) with :mod:`ast`, runs the module rules from
:mod:`repro.devtools.rules` on each, then the project rules (oracle
coverage) once per repository root, and filters per-line
``# reprolint: ignore[RLxxx]`` pragmas.  An accepted violation carries
its pragma, with the reason in a comment beside it.

Exit status: ``0`` when there is no finding, ``1`` when any finding
exists, ``2`` on usage errors.  The JSON report (``--format=json``,
schema ``reprolint-report-v2``) is emitted through
:func:`repro.io.json_io.canonical_json`, so report bytes are stable for
machine consumers and CI diffing.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import pathlib
import re
import sys
from dataclasses import dataclass

from repro.devtools.rules import (
    MODULE_RULES,
    PROJECT_RULES,
    Finding,
    ModuleContext,
    all_rules,
    rule_by_id,
)
from repro.io.json_io import canonical_json

__all__ = ["LintResult", "lint_paths", "main"]

_REPORT_FORMAT = "reprolint-report-v2"
_PRAGMA = re.compile(r"#\s*reprolint:\s*ignore\[([A-Za-z0-9,\s]+)\]")


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: "list[Finding]"
    files: int
    suppressed: int


def _split_repo(path: pathlib.Path) -> "tuple[pathlib.Path, str] | None":
    """``(repo_root, package_rel)`` when ``path`` sits under ``src/repro``."""
    parts = path.parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "src" and parts[i + 1] == "repro":
            root = pathlib.Path(*parts[:i]) if i else pathlib.Path(path.anchor)
            return root, "/".join(parts[i + 2 :])
    return None


def _collect(paths: "list[pathlib.Path]") -> "list[pathlib.Path]":
    """Expand files/directories into a sorted, de-duplicated file list."""
    files: list[pathlib.Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        else:
            files.append(path)
    unique: dict[pathlib.Path, None] = {}
    for path in files:
        unique.setdefault(path.resolve(), None)
    return list(unique)


def _display(path: pathlib.Path, root: "pathlib.Path | None") -> str:
    """Stable report path: repo-root-relative when possible."""
    for base in (root, pathlib.Path.cwd()):
        if base is None:
            continue
        try:
            return path.relative_to(base).as_posix()
        except ValueError:
            continue
    return path.as_posix()


def _apply_pragmas(
    findings: "list[Finding]", lines: "list[str]"
) -> "tuple[list[Finding], int]":
    """Drop findings whose source line carries a matching ignore pragma."""
    kept: list[Finding] = []
    suppressed = 0
    for finding in findings:
        if 1 <= finding.line <= len(lines):
            match = _PRAGMA.search(lines[finding.line - 1])
            if match is not None:
                rules = {
                    r.strip().upper() for r in match.group(1).split(",")
                }
                if finding.rule in rules:
                    suppressed += 1
                    continue
        kept.append(finding)
    return kept, suppressed


def lint_paths(
    paths: "list[pathlib.Path | str]",
    project_root: "pathlib.Path | None" = None,
) -> LintResult:
    """Run every applicable rule over ``paths``; returns the findings.

    ``project_root`` overrides repo-root discovery for the project rules
    (fixture suites lint miniature ``src/repro`` trees under tmp dirs);
    by default each root is derived from the linted files' ``src/repro``
    ancestry, so ``reprolint src/`` from a checkout just works.
    """
    files = _collect([pathlib.Path(p) for p in paths])
    findings: list[Finding] = []
    suppressed = 0
    roots: dict[pathlib.Path, None] = {}
    for path in files:
        split = _split_repo(path)
        root, rel = (split if split else (None, None))
        if root is not None:
            roots.setdefault(root, None)
        try:
            source = path.read_text()
            tree = ast.parse(source)
        except (OSError, SyntaxError) as exc:
            findings.append(
                Finding(
                    path=_display(path, root),
                    line=getattr(exc, "lineno", 1) or 1,
                    col=1,
                    rule="RL000",
                    message=f"could not parse: {exc}",
                )
            )
            continue
        ctx = ModuleContext(
            path=path,
            display=_display(path, root),
            rel=rel,
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )
        module_findings: list[Finding] = []
        for rule_cls in MODULE_RULES:
            if rule_cls.applies(ctx):
                module_findings.extend(rule_cls(ctx).run())
        kept, dropped = _apply_pragmas(module_findings, ctx.lines)
        findings.extend(kept)
        suppressed += dropped
    if project_root is not None:
        roots = {project_root: None}
    for root in roots:
        for project_rule in PROJECT_RULES:
            findings.extend(project_rule.run_project(root))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintResult(
        findings=findings, files=len(files), suppressed=suppressed
    )


def _report_json(result: LintResult) -> str:
    """Canonical-JSON report (schema ``reprolint-report-v2``)."""
    payload = {
        "format": _REPORT_FORMAT,
        "files": result.files,
        "suppressed": result.suppressed,
        "findings": [f.to_payload() for f in result.findings],
    }
    return canonical_json(payload)


def _report_text(result: LintResult) -> str:
    """Human-readable report: one line per finding, then a summary."""
    out = [
        f"{finding.path}:{finding.line}:{finding.col}: "
        f"{finding.rule} {finding.message}"
        for finding in result.findings
    ]
    out.append(
        f"reprolint: {result.files} file(s), "
        f"{len(result.findings)} finding(s), "
        f"{result.suppressed} suppressed"
    )
    return "\n".join(out)


def _explain(rule_id: str) -> int:
    """Print a rule's documentation page; 2 when the ID is unknown."""
    rule = rule_by_id(rule_id)
    if rule is None:
        known = ", ".join(r.id for r in all_rules())
        print(
            f"reprolint: unknown rule {rule_id!r} (known: {known})",
            file=sys.stderr,
        )
        return 2
    print(f"{rule.id} — {rule.title}\n")
    print(inspect.cleandoc(rule.__doc__ or "(undocumented)"))
    return 0


def _list_rules() -> int:
    """Print the registry: one ``RLxxx  title`` line per rule."""
    for rule in all_rules():
        print(f"{rule.id}  {rule.title}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "AST-based checker for this repo's correctness contracts "
            "(atomic writes, canonical JSON, determinism seams, "
            "TOCTOU-safe scans, oracle coverage, abort handling)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is canonical_json, schema "
        "reprolint-report-v2)",
    )
    parser.add_argument(
        "--explain",
        metavar="RLxxx",
        help="print one rule's documentation and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule ID and title, then exit",
    )
    args = parser.parse_args(argv)
    if args.explain:
        return _explain(args.explain)
    if args.list_rules:
        return _list_rules()
    result = lint_paths(args.paths)
    if args.format == "json":
        print(_report_json(result))
    else:
        print(_report_text(result))
    return 1 if result.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
