"""Cache-soundness scan: dependency closures and the CKEY rule family.

Built on :mod:`repro.checks.callgraph`.  For a root function — a registered
sweep scenario, or the rig builder ``initialize_static_configuration`` —
this module computes the transitive closure of package functions/modules the
root can reach and scans every reached function for constructs that let
something *outside the cache key* change a cached result.  The sweep keys
its result and rig caches on the scenario's own source, its parameters and
one hash of the package sources (:mod:`repro.sweep.cache`); it never runs
this analysis.  The scan runs behind ``repro check`` (``--deps`` prints the
closures) and in CI, and any error-severity CKEY finding fails the check:

* **CKEY001** — dynamic dispatch (``importlib``/``__import__``/``eval``/
  ``exec``, or calling a ``getattr(...)`` result directly): the callee is
  invisible to the graph, so the scan cannot see into it.
* **CKEY002** — environment reads (``os.environ``/``os.getenv``): the value
  influences the result but is not part of the cache key.
* **CKEY003** — data-file reads (``open``, ``Path.read_*``, ``np.load`` &
  friends): file contents influence the result but are not hashed.
* **CKEY004** — too many unresolvable call edges (computed callees,
  ``f()()``, subscripted handlers) in one closure: the over-approximation
  has lost its meaning.
* **CKEY005** — the closure imports a package that is neither ``repro``,
  the stdlib, nor a pinned trusted dependency; its version is not in the
  key.

Findings honour the lint suppression syntax (``# repro: noqa CKEY001``)
so individually audited sites — e.g. a bounded ``getattr`` dispatch over
methods of an already-reached class — can vouch for themselves.

:func:`package_graph`, :func:`fingerprint_function` and the other
``*_fingerprint`` entry points keep their names, which ``perfbench``'s
tracer wraps; they return closures, not hashes.
"""

from __future__ import annotations

import ast
import functools
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .callgraph import MODULE_BODY, CallGraph, FuncKey, FunctionNode, ModuleInfo
from .diagnostics import CheckReport, Diagnostic, Severity, get_rule, register_rule
from .lint import package_root

register_rule(
    "CKEY001",
    "dynamic-dispatch-in-closure",
    "importlib/__import__/eval/exec or an immediately-called getattr() hide "
    "the real callee from the call graph, so the cache-soundness scan "
    "cannot see into it.",
)
register_rule(
    "CKEY002",
    "env-read-in-closure",
    "An os.environ/os.getenv read inside a cached closure lets the host "
    "environment change the result without changing the cache key.",
)
register_rule(
    "CKEY003",
    "unfingerprinted-file-read",
    "Reading a data file inside a cached closure lets file contents change "
    "the result without changing the cache key; hash the file into a "
    "parameter instead.",
)
register_rule(
    "CKEY004",
    "unresolved-call-budget-exceeded",
    "Too many call edges in this closure resolve to nothing statically; "
    "the over-approximated closure can no longer vouch for soundness.",
)
register_rule(
    "CKEY005",
    "closure-escapes-package",
    "The closure imports a third-party package whose version is not part "
    "of the cache key; pin it in the trusted set.",
)

#: Maximum unresolvable call edges tolerated per closure (CKEY004).
UNRESOLVED_BUDGET = 25

#: Third-party roots trusted like the stdlib: their version is pinned by
#: the environment, and the simulation treats them as part of the language
#: substrate.
TRUSTED_PACKAGES = frozenset({"numpy"})

_STDLIB = frozenset(sys.stdlib_module_names)

#: Attribute names that read file contents (CKEY003).
_FILE_READ_ATTRS = frozenset({"read_text", "read_bytes"})
_NUMPY_FILE_READERS = frozenset({"load", "loadtxt", "genfromtxt", "fromfile", "memmap"})
_NUMPY_ALIASES = frozenset({"np", "numpy"})


@dataclass(frozen=True)
class _Finding:
    rule: str
    qualname: str
    lineno: int
    message: str
    hint: str


@dataclass
class DependencyClosure:
    """One root's dependency closure and its CKEY findings."""

    label: str  # scenario name, or "rig"
    root: str  # "module:qualname"
    modules: Tuple[str, ...]
    function_count: int
    unresolved: Tuple[Tuple[str, int, str], ...]
    externals: Tuple[str, ...]
    findings: Tuple[Diagnostic, ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "root": self.root,
            "modules": list(self.modules),
            "function_count": self.function_count,
            "unresolved_count": len(self.unresolved),
            "externals": list(self.externals),
            "findings": [diag.as_dict() for diag in self.findings],
        }


# --------------------------------------------------------------------------
# Graph lifecycle
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def package_graph() -> CallGraph:
    """The call graph of the installed ``repro`` package, built once per
    process."""
    return CallGraph.build(package_root(), package="repro")


# --------------------------------------------------------------------------
# CKEY scanning
# --------------------------------------------------------------------------


def _chain_of(node: ast.AST) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def _scan_function(module: ModuleInfo, fn: FunctionNode) -> List[_Finding]:
    """CKEY001–003/005 findings inside one function's AST, pre-suppression."""
    findings: List[_Finding] = []

    def flag(rule: str, node: ast.AST, message: str, hint: str) -> None:
        findings.append(_Finding(rule, fn.qualname, getattr(node, "lineno", 0), message, hint))

    package_head = module.name.split(".")[0]

    def check_import_target(node: ast.AST, dotted: str) -> None:
        head = dotted.split(".")[0]
        if not head or head == package_head or head in _STDLIB or head in TRUSTED_PACKAGES:
            return
        flag(
            "CKEY005",
            node,
            f"import of untrusted package {head!r} inside a cached closure",
            "add it to depfp.TRUSTED_PACKAGES after pinning",
        )

    for root_node in fn.scan_nodes:
        for node in ast.walk(root_node):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Call):
                    inner = func.func
                    if isinstance(inner, ast.Name) and inner.id == "getattr":
                        flag(
                            "CKEY001",
                            node,
                            "calling a getattr() result — callee invisible to the call graph",
                            "dispatch through an explicit mapping, or suppress after auditing "
                            "that every candidate lives in an already-reached module",
                        )
                # Checked structurally (not via the dotted chain) so that a
                # call-expression base like Path(p).read_text() is caught too.
                if isinstance(func, ast.Attribute) and func.attr in _FILE_READ_ATTRS:
                    flag(
                        "CKEY003",
                        node,
                        f".{func.attr}() reads file contents the cache key does not cover",
                        "hash the file into a parameter",
                    )
                    continue
                chain = _chain_of(func)
                if not chain:
                    continue
                root, attr = chain[0], chain[-1]
                if root in {"__import__", "eval", "exec"} and len(chain) == 1:
                    flag(
                        "CKEY001",
                        node,
                        f"{root}() defeats static call resolution",
                        "import statically so the scan can follow it",
                    )
                elif root == "importlib":
                    flag(
                        "CKEY001",
                        node,
                        f"importlib call ({'.'.join(chain)}()) defeats static call resolution",
                        "import statically so the scan can follow it",
                    )
                elif chain[:2] == ["os", "environ"] or chain == ["os", "getenv"]:
                    flag(
                        "CKEY002",
                        node,
                        f"environment read ({'.'.join(chain)}()) not captured by the cache key",
                        "thread the value through a scenario parameter instead",
                    )
                elif root == "open" and len(chain) == 1:
                    flag(
                        "CKEY003",
                        node,
                        "open() reads file contents the cache key does not cover",
                        "hash the file into a parameter",
                    )
                elif root in _NUMPY_ALIASES and attr in _NUMPY_FILE_READERS and len(chain) == 2:
                    flag(
                        "CKEY003",
                        node,
                        f"{'.'.join(chain)}() reads file contents the cache key does not cover",
                        "hash the file into a parameter",
                    )
            elif isinstance(node, ast.Subscript):
                if _chain_of(node.value)[:2] == ["os", "environ"]:
                    flag(
                        "CKEY002",
                        node,
                        "os.environ[...] read not captured by the cache key",
                        "thread the value through a scenario parameter instead",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    check_import_target(node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module:
                    check_import_target(node, node.module)
    return findings


def _module_findings(graph: CallGraph, module: ModuleInfo) -> Dict[str, List[_Finding]]:
    """Per-qualname CKEY findings for one module, with noqa applied."""
    memo_key = ("findings", module.name)
    cached = graph.memo.get(memo_key)
    if cached is not None:
        return cached  # type: ignore[return-value]
    by_qualname: Dict[str, List[_Finding]] = {}
    for qualname, fn in module.functions.items():
        kept: List[_Finding] = []
        for finding in _scan_function(module, fn):
            rules = module.suppressions.get(finding.lineno, ())
            if rules is None:  # blanket ``# repro: noqa``
                continue
            if finding.rule in rules:
                continue
            kept.append(finding)
        if kept:
            by_qualname[qualname] = kept
    graph.memo[memo_key] = by_qualname
    return by_qualname


# --------------------------------------------------------------------------
# Closures
# --------------------------------------------------------------------------


def fingerprint_root(
    module: str,
    qualname: str,
    label: Optional[str] = None,
    graph: Optional[CallGraph] = None,
) -> Optional[DependencyClosure]:
    """Closure + CKEY findings of one in-graph function, or ``None`` when
    the function is not statically analyzable (defined outside the package,
    or dynamically)."""
    graph = graph if graph is not None else package_graph()
    info = graph.modules.get(module)
    if info is None or qualname not in info.functions:
        return None
    memo_key = ("fp", module, qualname)
    cached = graph.memo.get(memo_key)
    if cached is not None:
        fp: DependencyClosure = cached  # type: ignore[assignment]
        if label is not None and fp.label != label:
            fp = DependencyClosure(**{**fp.__dict__, "label": label})
        return fp

    closure = graph.closure([(module, qualname)])
    diagnostics: List[Diagnostic] = []
    for mod_name in sorted(closure.modules):
        mod = graph.modules[mod_name]
        if mod.parse_error is not None:
            diagnostics.append(
                Diagnostic(
                    rule="CKEY004",
                    severity=Severity.ERROR,
                    message=f"module {mod_name} does not parse: {mod.parse_error}",
                    file=mod.display,
                )
            )
            continue
        per_function = _module_findings(graph, mod)
        reached = {qn for m, qn in closure.functions if m == mod_name}
        for qn in sorted(reached):
            for finding in per_function.get(qn, ()):
                rule = get_rule(finding.rule)
                diagnostics.append(
                    Diagnostic(
                        rule=finding.rule,
                        severity=rule.severity,
                        message=f"{finding.message} (reached via {qn})",
                        file=mod.display,
                        line=finding.lineno,
                        hint=finding.hint,
                    )
                )
    if len(closure.unresolved) > UNRESOLVED_BUDGET:
        examples = ", ".join(
            f"{display}:{lineno} ({callee})"
            for display, lineno, callee in closure.unresolved[:3]
        )
        diagnostics.append(
            Diagnostic(
                rule="CKEY004",
                severity=Severity.ERROR,
                message=(
                    f"{len(closure.unresolved)} unresolvable call edges exceed the "
                    f"budget of {UNRESOLVED_BUDGET} (e.g. {examples})"
                ),
                file=graph.modules[module].display,
                hint="make the hot callees statically resolvable",
            )
        )

    result = DependencyClosure(
        label=label if label is not None else f"{module}:{qualname}",
        root=f"{module}:{qualname}",
        modules=tuple(sorted(closure.modules)),
        function_count=len(closure.functions),
        unresolved=tuple(closure.unresolved),
        externals=tuple(sorted(closure.externals)),
        findings=tuple(diagnostics),
    )
    graph.memo[memo_key] = result
    return result


def fingerprint_function(
    fn, label: Optional[str] = None, graph: Optional[CallGraph] = None
) -> Optional[DependencyClosure]:
    """Closure of a live function object, located in the graph by name."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        return None
    return fingerprint_root(module, qualname, label=label, graph=graph)


def scenario_fingerprint(scenario, graph: Optional[CallGraph] = None):
    """Closure of a registered scenario's body, or ``None`` when the body
    is not statically analyzable."""
    return fingerprint_function(scenario.fn, label=scenario.name, graph=graph)


def rig_fingerprint(graph: Optional[CallGraph] = None) -> Optional[DependencyClosure]:
    """Closure of the static-rig builder feeding the rig cache."""
    from ..bitstream.generator import initialize_static_configuration

    return fingerprint_function(initialize_static_configuration, label="rig", graph=graph)


# --------------------------------------------------------------------------
# Whole-tree pass (CLI / CI entry point)
# --------------------------------------------------------------------------


def check_dependencies(
    report: Optional[CheckReport] = None,
    graph: Optional[CallGraph] = None,
    names: Optional[Sequence[str]] = None,
    include_rig: bool = True,
) -> List[DependencyClosure]:
    """Scan the closures of registered scenarios (and the rig builder),
    funnelling deduplicated CKEY findings into ``report``.

    ``names`` limits the pass to those scenario names (the rig is selected
    with the pseudo-name ``"rig"``).
    """
    from ..scenarios import all_scenarios, get_scenario

    graph = graph if graph is not None else package_graph()
    report = report if report is not None else CheckReport()

    roots: List[Tuple[str, object]] = []
    if names:
        for name in names:
            if name == "rig":
                roots.append(("rig", None))
            else:
                roots.append((name, get_scenario(name)))
    else:
        roots = [(sc.name, sc) for sc in all_scenarios()]
        if include_rig:
            roots.append(("rig", None))

    closures: List[DependencyClosure] = []
    seen: Set[Tuple[object, ...]] = set()
    for label, scenario in roots:
        if scenario is None:
            fp = rig_fingerprint(graph=graph)
        else:
            fp = scenario_fingerprint(scenario, graph=graph)
        if fp is None:
            report.add(
                "CKEY004",
                f"{label}: body not statically analyzable (defined outside the "
                "package?); its closure is not scanned",
                severity=Severity.INFO,
            )
            continue
        closures.append(fp)
        for diag in fp.findings:
            key = (diag.rule, diag.file, diag.line, diag.message)
            if key in seen:
                continue
            seen.add(key)
            report.diagnostics.append(diag)
    return closures


def closure_table(closures: Iterable[DependencyClosure]) -> str:
    """Human-readable summary used by ``repro check --deps``."""
    lines: List[str] = []
    for fp in closures:
        lines.append(fp.label)
        lines.append(f"  root         {fp.root}")
        lines.append(
            f"  closure      {fp.function_count} functions over "
            f"{len(fp.modules)} modules, {len(fp.unresolved)} unresolved edges"
        )
        for mod_name in fp.modules:
            lines.append(f"    {mod_name}")
        if fp.externals:
            shown = ", ".join(fp.externals[:8])
            more = f", +{len(fp.externals) - 8} more" if len(fp.externals) > 8 else ""
            lines.append(f"  externals    {shown}{more}")
    return "\n".join(lines)
