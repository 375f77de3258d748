"""reprolint — the project-specific static analyser.

Generic linters keep the code tidy; *this* linter keeps the paper's
guarantees machine-checked. Every rule encodes an invariant the
reproduction depends on (see :mod:`repro.analysis.rules`,
:mod:`repro.analysis.flowrules` and ``docs/analysis.md`` for the
catalogue): honest NCD accounting, seeded randomness, tolerance-based
distance comparisons, no accidental all-pairs scans, explicit public
surfaces — and, via the dataflow engine (:mod:`repro.analysis.dataflow`,
:mod:`repro.analysis.symbols`), pickle-safety at worker boundaries and
seed provenance, plus AST checks that attribution sites open only through
``with site(label):``, that external-count booking stays in the
accounting layer, and float-stability shapes feeding the BETULA
worklist.

Built on :mod:`ast` and :mod:`tokenize` only — no third-party
dependencies. Run it as ``repro lint``, ``python -m repro.analysis``, or
programmatically::

    from repro.analysis import lint_paths
    violations = lint_paths(["src"])

Suppression syntax (reasons are mandatory — RPL000 flags bare ones)::

    x = risky()  # reprolint: disable=RPL001 -- counted by the caller
    # reprolint: disable-file=RPL005 -- script, not a public module

A suppression whose rule would not have fired is itself an RPL000
violation, so the suppression inventory can never silently go stale.
Profiles select which rules run: ``src`` (everything) and ``tests``
(lint integrity and pickle-safety only — RPL000/RPL101).
"""

from __future__ import annotations

import ast
import functools
import io
import json
import sys
import tokenize
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.flowrules import FLOW_RULES
from repro.analysis.rules import BASE_RULES, META_RULE, Rule, RuleContext
from repro.analysis.symbols import ProjectSymbolTable

__all__ = [
    "ALL_RULES",
    "PROFILES",
    "LintViolation",
    "lint_source",
    "lint_file",
    "lint_paths",
    "format_violations",
    "to_sarif",
    "main",
]

#: The complete catalogue: the engine-level meta rule, the token/AST
#: rules, and the dataflow rules.
ALL_RULES: tuple[Rule, ...] = (META_RULE, *BASE_RULES, *FLOW_RULES)

#: Named rule profiles. ``None`` means "every rule". The ``tests``
#: profile keeps pickle-safety (tests construct real worker tasks) while
#: dropping style- and scope-rules that are meaningless for test code
#: (loop-depth RPL004, ``__all__`` RPL005, seeded-randomness RPL002, ...)
#: and the layering rule RPL102 (tests exercise ``push_site``/``pop_site``
#: themselves).
PROFILES: dict[str, tuple[str, ...] | None] = {
    "src": None,
    "tests": ("RPL000", "RPL101"),
}

_DISABLE_MARKER = "reprolint:"
_REASON_SEPARATOR = " -- "


@dataclass(frozen=True)
class LintViolation:
    """One rule violation at a source location."""

    #: File the violation was found in (as given to the linter).
    path: str
    #: 1-based line number.
    line: int
    #: 0-based column offset.
    col: int
    #: Rule code, e.g. ``"RPL001"``.
    code: str
    #: Human-readable explanation of the violation.
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"


@dataclass
class _Directive:
    """One parsed ``# reprolint: disable[-file]=...`` comment."""

    line: int
    col: int
    codes: frozenset[str]
    file_wide: bool
    reason: str
    #: Set when the directive suppressed at least one finding this run.
    used: bool = field(default=False, compare=False)


@dataclass
class _Suppressions:
    """All suppression directives parsed from one module."""

    directives: list[_Directive] = field(default_factory=list)

    def match(self, line: int, code: str) -> _Directive | None:
        """First directive covering ``code`` at ``line`` (file-wide wins)."""
        for d in self.directives:
            if not (d.file_wide or d.line == line):
                continue
            if "all" in d.codes or code in d.codes:
                return d
        return None


def _parse_suppressions(source: str) -> _Suppressions:
    """Collect ``# reprolint: disable=...`` comments with their reasons.

    A directive on a line suppresses the listed codes on that line; a
    ``disable-file=`` directive anywhere suppresses them for the whole
    file. Everything after `` -- `` is the mandatory justification.
    """
    out = _Suppressions()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            if not text.startswith(_DISABLE_MARKER):
                continue
            directive = text[len(_DISABLE_MARKER):].strip()
            reason = ""
            if _REASON_SEPARATOR in directive:
                directive, _, reason = directive.partition(_REASON_SEPARATOR)
                directive = directive.strip()
                reason = reason.strip()
            for part in directive.split():
                file_wide = part.startswith("disable-file=")
                prefix = "disable-file=" if file_wide else "disable="
                if not part.startswith(prefix):
                    continue
                codes = frozenset(
                    c.strip() for c in part[len(prefix):].split(",") if c.strip()
                )
                if codes:
                    out.directives.append(
                        _Directive(
                            line=tok.start[0],
                            col=tok.start[1],
                            codes=codes,
                            file_wide=file_wide,
                            reason=reason,
                        )
                    )
    except tokenize.TokenError:
        # Unterminated string or similar: the ast parse below will produce
        # the real syntax error; suppressions simply stay empty.
        pass
    return out


def _select_rules(
    select: Iterable[str] | None, profile: str
) -> list[Rule]:
    known = {rule.code for rule in ALL_RULES}
    if select is not None:
        wanted = {c.strip().upper() for c in select if c.strip()}
        unknown = wanted - known
        if unknown:
            raise ValueError(
                f"unknown rule code(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        return [rule for rule in ALL_RULES if rule.code in wanted]
    if profile not in PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}; known: {sorted(PROFILES)}"
        )
    codes = PROFILES[profile]
    if codes is None:
        return list(ALL_RULES)
    return [rule for rule in ALL_RULES if rule.code in codes]


@functools.lru_cache(maxsize=1)
def _package_symbols() -> ProjectSymbolTable:
    """Shared fallback symbol table over the installed ``repro`` source."""
    return ProjectSymbolTable().with_package()


def _meta_findings(
    suppressions: _Suppressions,
    active_codes: set[str],
    select: Iterable[str] | None,
) -> list[tuple[int, int, str]]:
    """RPL000: unknown codes, missing reasons, unused suppressions.

    Unused-suppression detection only fires when every code a directive
    names was actually executed this run — a ``--select RPL001`` pass must
    not declare an RPL102 suppression stale.
    """
    known = {rule.code for rule in ALL_RULES}
    findings: list[tuple[int, int, str]] = []
    full_run = select is None
    for d in suppressions.directives:
        unknown = sorted(d.codes - known - {"all"})
        if unknown:
            findings.append((
                d.line, d.col,
                f"suppression names unknown rule code(s) {unknown}",
            ))
            continue
        if not d.reason:
            findings.append((
                d.line, d.col,
                "suppression without a justification; append `-- <reason>`",
            ))
        concrete = d.codes - {"all"}
        executed = (
            (full_run or concrete <= active_codes)
            if "all" in d.codes
            else concrete <= active_codes
        )
        if executed and not d.used:
            codes = "all" if "all" in d.codes else ",".join(sorted(concrete))
            findings.append((
                d.line, d.col,
                f"unused suppression: no {codes} finding here; remove it",
            ))
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    select: Iterable[str] | None = None,
    profile: str = "src",
    symbols: ProjectSymbolTable | None = None,
) -> list[LintViolation]:
    """Lint Python source text; returns violations sorted by location.

    ``path`` is used both for reporting and for path-scoped rule
    exemptions (e.g. RPL001 exempts ``metrics/base.py``), so pass the
    real repository-relative path whenever one exists. ``symbols``
    defaults to a table over the installed ``repro`` package, which is
    what standalone snippets need to resolve project imports.
    """
    rules = _select_rules(select, profile)
    active_codes = {rule.code for rule in rules}
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        line = exc.lineno or 1
        col = (exc.offset or 1) - 1
        return [
            LintViolation(path, line, max(col, 0), "RPL000", f"syntax error: {exc.msg}")
        ]
    suppressions = _parse_suppressions(source)
    norm_path = Path(path).as_posix()
    if symbols is None:
        symbols = _package_symbols()
    ctx = RuleContext(tree=tree, path=norm_path, source=source, symbols=symbols)
    violations: list[LintViolation] = []
    for rule in rules:
        for line, col, message in rule.check(ctx):
            directive = suppressions.match(line, rule.code)
            if directive is not None:
                directive.used = True
            else:
                violations.append(LintViolation(path, line, col, rule.code, message))
    if "RPL000" in active_codes:
        # Meta findings are about the suppressions themselves and are
        # deliberately not suppressible.
        for line, col, message in _meta_findings(suppressions, active_codes, select):
            violations.append(LintViolation(path, line, col, "RPL000", message))
    violations.sort(key=lambda v: (v.line, v.col, v.code))
    return violations


def lint_file(
    path: str | Path,
    select: Iterable[str] | None = None,
    profile: str = "src",
    symbols: ProjectSymbolTable | None = None,
) -> list[LintViolation]:
    """Lint one file on disk."""
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, str(path), select=select, profile=profile, symbols=symbols)


def _iter_python_files(
    paths: Sequence[str | Path], exclude: Sequence[str] = ()
) -> list[Path]:
    files: list[Path] = []
    for item in paths:
        p = Path(item)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    if exclude:
        files = [
            f for f in files
            if not any(marker in f.as_posix() for marker in exclude)
        ]
    # De-duplicate while preserving order (a file may be reachable twice).
    seen: set[Path] = set()
    unique: list[Path] = []
    for f in files:
        r = f.resolve()
        if r not in seen:
            seen.add(r)
            unique.append(f)
    return unique


def lint_paths(
    paths: Sequence[str | Path],
    select: Iterable[str] | None = None,
    profile: str = "src",
    exclude: Sequence[str] = (),
) -> list[LintViolation]:
    """Lint every ``*.py`` file under the given files/directories.

    ``exclude`` drops files whose posix path contains any of the given
    substrings (e.g. ``tests/fixtures`` — lint fixtures violate rules on
    purpose). One cross-module symbol table is built over everything being
    linted (plus the installed ``repro`` package as fallback) and shared by
    all files, so ``from repro.x import y`` resolves precisely.
    """
    files = _iter_python_files(paths, exclude=exclude)
    symbols = ProjectSymbolTable.from_paths(files).with_package()
    violations: list[LintViolation] = []
    for f in files:
        violations.extend(
            lint_file(f, select=select, profile=profile, symbols=symbols)
        )
    return violations


def format_violations(violations: Sequence[LintViolation], statistics: bool = False) -> str:
    """Render violations in a ``file:line:col: CODE message`` listing."""
    lines = [v.format() for v in violations]
    if statistics and violations:
        counts: dict[str, int] = {}
        for v in violations:
            counts[v.code] = counts.get(v.code, 0) + 1
        lines.append("")
        for code in sorted(counts):
            lines.append(f"{counts[code]:5d}  {code}")
    return "\n".join(lines)


def to_sarif(violations: Sequence[LintViolation]) -> dict[str, object]:
    """Render violations as a SARIF 2.1.0 log (one run, tool=reprolint).

    The shape matches what ``github/codeql-action/upload-sarif`` expects,
    so CI can annotate pull requests with findings inline.
    """
    sarif_rules = [
        {
            "id": rule.code,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": rule.rationale},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in ALL_RULES
    ]
    results = [
        {
            "ruleId": v.code,
            "level": "error",
            "message": {"text": v.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": Path(v.path).as_posix(),
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": v.line,
                            "startColumn": v.col + 1,
                        },
                    }
                }
            ],
        }
        for v in violations
    ]
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "informationUri": "docs/analysis.md",
                        "rules": sarif_rules,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point shared by ``repro lint`` and ``python -m repro.analysis``.

    Exit status: 0 clean, 1 violations found, 2 usage error.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="project-specific static analysis (reprolint)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: the profile's rules)",
    )
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="src",
        help="rule profile: src (all rules) or tests (RPL000/101/102)",
    )
    parser.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        dest="output_format",
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--exclude", action="append", default=[], metavar="SUBSTRING",
        help="skip files whose path contains SUBSTRING (repeatable)",
    )
    parser.add_argument(
        "--statistics", action="store_true", help="append per-rule counts",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.summary}")
        return 0

    select = args.select.split(",") if args.select else None
    try:
        violations = lint_paths(
            args.paths, select=select, profile=args.profile, exclude=args.exclude
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output_format == "json":
        report = json.dumps([v.__dict__ for v in violations], indent=2)
    elif args.output_format == "sarif":
        report = json.dumps(to_sarif(violations), indent=2)
    else:
        report = format_violations(violations, statistics=args.statistics)

    if args.output is not None:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    elif report and (violations or args.output_format != "text"):
        print(report)
    if violations:
        print(f"{len(violations)} violation(s) found", file=sys.stderr)
        return 1
    return 0
