"""The RPL1xx rule family: dataflow-aware invariants.

Where the RPL0xx rules in :mod:`repro.analysis.rules` pattern-match
syntax, RPL101 and RPL103 run on the shared analysis core — scope/origin
resolution (:mod:`repro.analysis.dataflow`) and the cross-module symbol
table (:mod:`repro.analysis.symbols`) — so they can *prove* properties
about provenance instead of grepping for shapes:

RPL101 **pickle-safety**
    Any callable/object flowing into a worker boundary —
    ``ProcessPoolExecutor.submit``/``apply_async``, ``ShardSupervisor``'s
    task list, ``ShardTask(...)`` construction, ``Process(target=...)`` —
    must resolve to a module-level definition. Lambdas, closures, and
    locally defined classes pickle by qualified name and fail (or worse,
    resolve to the wrong object) when the spawn start method imports the
    module fresh in the worker.
RPL102 **span/ledger discipline**
    ``push_site``/``pop_site`` are called nowhere outside
    ``metrics/base.py``: library code opens an attribution site only with
    ``with site(label):``, which closes it on every exit path. A
    hand-paired site that a raise skips mis-attributes every later
    distance call, silently breaking the ``sum(by_site) == n_calls``
    conservation law the observability layer guarantees.
RPL103 **seed provenance**
    RNG construction must derive from a parameter / ``SeedSequence``
    dataflow. Hard-coded literal seeds, wall-clock-derived seeds, and
    bare entropy constructions are flagged: the first silently couples
    runs, the latter two destroy reproducibility.
RPL104 **external-count booking**
    ``count_external`` — the only way to book distance calls that
    happened in another process — may appear only in the accounting-layer
    modules. It books a worker's per-site split and its residual in one
    call, so a partial attribution cannot leave ``sum(by_site) < n_calls``.
RPL105 **float-stability**
    In the numerics-bearing modules (``birch/``, ``core/features.py``,
    ``fastmap/``), flag catastrophic-cancellation shapes — differences of
    squared magnitudes (``a*a - b*b``, sum-of-squares minus
    square-of-sum) — and scalar ``+=`` accumulation of squared
    distances. These are the exact patterns the BETULA refactor (ROADMAP
    item 3) replaces with stable incremental forms; true positives are
    suppressed with a ``BETULA``-tagged justification to form that
    worklist.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.analysis.dataflow import OriginKind, resolve_expr
from repro.analysis.rules import Finding, Rule, RuleContext

__all__ = ["FLOW_RULES"]


# ----------------------------------------------------------------------
# RPL101 — pickle-safety at worker boundaries
# ----------------------------------------------------------------------
#: Attribute calls whose every argument crosses the pickle boundary.
_SUBMIT_METHODS = frozenset({"submit", "apply_async"})
#: Constructors whose every argument crosses the pickle boundary.
_TASK_CTORS = frozenset({"ShardTask"})
#: Constructors where only specific arguments cross (pos index / kw name).
_SUPERVISOR_CTORS = frozenset({"ShardSupervisor"})
_PROCESS_CTORS = frozenset({"Process"})

_BAD_PICKLE_KINDS = frozenset({OriginKind.LAMBDA, OriginKind.LOCAL_DEF})


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _shipped_args(call: ast.Call, callee: str) -> list[ast.expr]:
    """The argument expressions of ``call`` that cross a pickle boundary."""
    if callee in _SUBMIT_METHODS or callee in _TASK_CTORS:
        args = [a for a in call.args]
        args.extend(kw.value for kw in call.keywords if kw.arg is not None)
        return args
    if callee in _SUPERVISOR_CTORS:
        shipped = list(call.args[:1])
        shipped.extend(kw.value for kw in call.keywords if kw.arg == "tasks")
        return shipped
    if callee in _PROCESS_CTORS:
        return [kw.value for kw in call.keywords if kw.arg in ("target", "args")]
    return []


def _check_pickle_safety(ctx: RuleContext) -> Iterator[Finding]:
    scopes = ctx.scopes
    # Walk with scope tracking: resolve each shipped argument from the
    # scope of the function the call appears in.
    for container in ctx.containers:
        scope = scopes.scope_of(container)
        for call in _calls_in(container):
            callee = _callee_name(call.func)
            if callee is None:
                continue
            sink = _sink_label(call, callee)
            if sink is None:
                continue
            for arg in _shipped_args(call, callee):
                for origin in resolve_expr(arg, scope, ctx.symbols):
                    if origin.kind in _BAD_PICKLE_KINDS:
                        what = origin.detail or origin.kind.value
                        yield (
                            arg.lineno,
                            arg.col_offset,
                            f"{what} flows into {sink} but only module-level "
                            "definitions survive pickling to a spawned worker; "
                            "move it to module scope",
                        )
                        break


def _sink_label(call: ast.Call, callee: str) -> str | None:
    if callee in _SUBMIT_METHODS:
        return f"a worker-pool `.{callee}(...)`"
    if callee in _TASK_CTORS:
        return "a shard task"
    if callee in _SUPERVISOR_CTORS:
        return "the ShardSupervisor task list"
    if callee in _PROCESS_CTORS and isinstance(call.func, (ast.Attribute, ast.Name)):
        # Only worker-process constructions, not arbitrary `Process` names:
        # require a target=/args= keyword to be present at all.
        if any(kw.arg in ("target", "args") for kw in call.keywords):
            return "a spawned Process"
    return None


def _calls_in(container: ast.AST) -> Iterator[ast.Call]:
    """Calls lexically inside ``container``, excluding nested function
    bodies (each function is visited under its own scope)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(container))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# RPL102 — attribution sites open only through ``with site(label):``
# ----------------------------------------------------------------------
#: The one module that owns ``CallLedger.stack``.
_SITE_MODULE = "metrics/base.py"
_HAND_SITE_CALLS = frozenset({"push_site", "pop_site"})


def _check_span_discipline(ctx: RuleContext) -> Iterator[Finding]:
    if ctx.path.endswith(_SITE_MODULE) or not any(
        name in ctx.source for name in _HAND_SITE_CALLS
    ):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and _callee_name(node.func) in _HAND_SITE_CALLS:
            yield (
                node.lineno,
                node.col_offset,
                f"{_callee_name(node.func)}() outside {_SITE_MODULE}; open "
                "attribution sites with `with site(label):`, which closes "
                "them on every exit path",
            )


# ----------------------------------------------------------------------
# RPL103 — seed provenance for RNG construction
# ----------------------------------------------------------------------
_RNG_CTORS = frozenset({"default_rng", "RandomState", "Random", "ensure_rng", "SeedSequence"})
#: Origin kinds acceptable as seed provenance.
_OK_SEED_KINDS = frozenset(
    {OriginKind.PARAM, OriginKind.SEED_DERIVED, OriginKind.ATTRIBUTE,
     OriginKind.UNKNOWN, OriginKind.EXTERNAL, OriginKind.MODULE_DEF}
)


def _seed_argument(call: ast.Call) -> ast.expr | None:
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg in ("seed", "entropy"):
            return kw.value
    return None


def _check_seed_provenance(ctx: RuleContext) -> Iterator[Finding]:
    scopes = ctx.scopes
    for container in ctx.containers:
        scope = scopes.scope_of(container)
        for call in _calls_in(container):
            callee = _callee_name(call.func)
            if callee not in _RNG_CTORS:
                continue
            seed = _seed_argument(call)
            if seed is None:
                yield (
                    call.lineno,
                    call.col_offset,
                    f"`{callee}()` without a seed draws fresh entropy; derive "
                    "the seed from a parameter or SeedSequence so the run is "
                    "reproducible",
                )
                continue
            origins = resolve_expr(seed, scope, ctx.symbols)
            kinds = {origin.kind for origin in origins}
            if any(kind == OriginKind.TIME for kind in kinds):
                detail = next(
                    (o.detail for o in origins if o.kind == OriginKind.TIME), "clock"
                )
                yield (
                    call.lineno,
                    call.col_offset,
                    f"`{callee}(...)` seeded from the wall clock ({detail}) is "
                    "unreproducible by construction; thread an explicit seed",
                )
            elif kinds and kinds <= {OriginKind.LITERAL}:
                if _is_none_literal(seed):
                    yield (
                        call.lineno,
                        call.col_offset,
                        f"`{callee}(None)` requests fresh entropy; derive the "
                        "seed from a parameter or SeedSequence instead",
                    )
                else:
                    yield (
                        call.lineno,
                        call.col_offset,
                        f"`{callee}(...)` with a hard-coded literal seed couples "
                        "every caller to one stream; accept a seed parameter "
                        "and derive per-use seeds with SeedSequence.spawn",
                    )


def _is_none_literal(seed: ast.expr) -> bool:
    return isinstance(seed, ast.Constant) and seed.value is None


# ----------------------------------------------------------------------
# RPL104 — external-count booking stays in the accounting layer
# ----------------------------------------------------------------------
#: Modules allowed to book external counts: the primitive itself, the
#: guard wrapper that owns its counting, and the parallel phases that
#: absorb worker counts (sharded build, pairwise matrix, CLARA).
_BOOKING_ALLOWLIST = (
    "metrics/base.py",
    "robustness/guarded.py",
    "parallel/build.py",
    "parallel/matrix.py",
    "clarans/clara.py",
)


def _check_booking_discipline(ctx: RuleContext) -> Iterator[Finding]:
    if "count_external" not in ctx.source or ctx.path.endswith(_BOOKING_ALLOWLIST):
        return
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "count_external"
        ):
            yield (
                node.lineno,
                node.col_offset,
                "count_external() outside the accounting layer "
                f"({', '.join(_BOOKING_ALLOWLIST)}) can fabricate NCD; "
                "route worker counts through the parallel build",
            )


# ----------------------------------------------------------------------
# RPL105 — catastrophic-cancellation shapes in the numerics modules
# ----------------------------------------------------------------------
_STABILITY_SCOPE = ("birch/", "fastmap/", "core/features")

#: Names that denote squared magnitudes by project convention.
_SQUARE_NAMES = frozenset({"ss", "dss", "sq", "cross_sq", "r1_sq", "r2_sq"})
_SQUARE_NAME_RE = re.compile(r"(_sq\d*$|sq$|sumsq|sq_sum|squared|^d[a-z_]*2$|^r\d$)")


def _square_name(name: str) -> bool:
    return name in _SQUARE_NAMES or bool(_SQUARE_NAME_RE.search(name))


def _is_squareish(expr: ast.expr) -> bool:
    """True when ``expr`` denotes a squared magnitude."""
    if isinstance(expr, ast.BinOp):
        if isinstance(expr.op, ast.Pow):
            return isinstance(expr.right, ast.Constant) and expr.right.value == 2
        if isinstance(expr.op, ast.Mult):
            return ast.dump(expr.left) == ast.dump(expr.right)
        if isinstance(expr.op, ast.Div):
            # sum-of-squares normalized by a count is still a square scale.
            return _is_squareish(expr.left)
        if isinstance(expr.op, ast.Add):
            return _is_squareish(expr.left) and _is_squareish(expr.right)
        return False
    if isinstance(expr, ast.Call):
        name = _callee_name(expr.func)
        if name in ("float", "int", "abs") and expr.args:
            return _is_squareish(expr.args[0])
        if name == "square":
            return True
        if name == "dot" and len(expr.args) == 2:
            return ast.dump(expr.args[0]) == ast.dump(expr.args[1])
        if name is not None and _square_name(name):
            return True
        if name == "sum" and isinstance(expr.func, ast.Attribute):
            return _is_squareish(expr.func.value)
        return False
    if isinstance(expr, ast.Name):
        return _square_name(expr.id)
    if isinstance(expr, ast.Attribute):
        return _square_name(expr.attr)
    if isinstance(expr, ast.Subscript):
        return _is_squareish(expr.value)
    return False


def _check_float_stability(ctx: RuleContext) -> Iterator[Finding]:
    if not any(marker in ctx.path for marker in _STABILITY_SCOPE):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            if _is_squareish(node.left) and _is_squareish(node.right):
                yield (
                    node.lineno,
                    node.col_offset,
                    "difference of squared magnitudes cancels catastrophically "
                    "when the operands are close (BETULA, PAPERS.md); prefer a "
                    "numerically stable incremental form",
                )
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            if _is_squareish(node.value):
                yield (
                    node.lineno,
                    node.col_offset,
                    "scalar += accumulation of squared magnitudes loses "
                    "precision at large n; use a compensated or pairwise "
                    "summation (BETULA worklist)",
                )


FLOW_RULES: tuple[Rule, ...] = (
    Rule(
        code="RPL101",
        summary="objects shipped to worker processes must resolve to module-level definitions",
        rationale="lambdas/closures/local classes fail to pickle under the spawn start method",
        checker=_check_pickle_safety,
    ),
    Rule(
        code="RPL102",
        summary="push_site/pop_site only in metrics/base.py; open sites with `with site(label):`",
        rationale="a hand-paired site a raise skips mis-attributes all later calls and breaks NCD conservation",
        checker=_check_span_discipline,
    ),
    Rule(
        code="RPL103",
        summary="RNG seeds must derive from a parameter/SeedSequence dataflow",
        rationale="literal or wall-clock seeds destroy reproducibility or couple callers",
        checker=_check_seed_provenance,
    ),
    Rule(
        code="RPL104",
        summary="count_external only in the accounting layer",
        rationale="external booking elsewhere fabricates NCD and falsifies sum(by_site) == n_calls",
        checker=_check_booking_discipline,
    ),
    Rule(
        code="RPL105",
        summary="no cancellation-prone squared-magnitude arithmetic in the numerics modules",
        rationale="difference-of-squares and scalar squared accumulation drift at scale (BETULA)",
        checker=_check_float_stability,
    ),
)
