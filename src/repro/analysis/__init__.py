"""Static analysis and runtime auditing for the reproduction.

Three layers turn the paper's stated invariants into machine-checked
guarantees:

* :mod:`repro.analysis.lint` — **reprolint**, a dataflow-aware static
  analyser with project-specific rules: the token/AST rules
  (:mod:`repro.analysis.rules` — NCD-accounting hygiene, seeded
  randomness, tolerance-based distance comparisons, no accidental
  all-pairs scans, explicit public surfaces) and the RPL1xx rules
  (:mod:`repro.analysis.flowrules` — pickle-safety at worker boundaries,
  sites opened only through ``with site(label):``, seed provenance,
  external-count booking discipline, float-stability shapes), built on a
  scope/value-origin model (:mod:`repro.analysis.dataflow`) and a
  cross-module symbol table (:mod:`repro.analysis.symbols`);
* :mod:`repro.analysis.audit` — a CF*-tree invariant sanitizer that walks
  a live tree and checks the structural and CF*-level properties of
  Sections 3-4 (Lemma 4.2, Observation 1);
* the mypy strict-typing gate configured in ``pyproject.toml`` (this
  package ships ``py.typed``).

See ``docs/analysis.md`` for the rule catalogue and the audit guarantees.
"""

from repro.analysis.audit import AuditIssue, AuditReport, audit_tree
from repro.analysis.lint import (
    ALL_RULES,
    PROFILES,
    LintViolation,
    format_violations,
    lint_file,
    lint_paths,
    lint_source,
    to_sarif,
)
from repro.analysis.rules import BASE_RULES, Rule, RuleContext

__all__ = [
    "ALL_RULES",
    "BASE_RULES",
    "PROFILES",
    "AuditIssue",
    "AuditReport",
    "LintViolation",
    "Rule",
    "RuleContext",
    "audit_tree",
    "format_violations",
    "lint_file",
    "lint_paths",
    "lint_source",
    "to_sarif",
]
