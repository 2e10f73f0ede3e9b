"""Whole-program, AST-level call-graph analysis over the ``repro`` package.

Foundation of the cache-soundness scan (:mod:`repro.checks.depfp`): the
graph answers *"which code can influence the result of running this
function?"* without importing or executing anything.  Per module it records
imports (with relative-import and ``as``-alias resolution), top-level
functions, classes with their methods and static bases, and module-level
constants; per function it records every call site.  :meth:`CallGraph.closure`
then walks call edges transitively from a root function, and the CKEY
rules scan every function the closure reaches.

Resolution is deliberately **conservative** — over-approximating the closure
only scans more code, while missing an edge would hide a construct that
defeats the cache key:

* plain-name calls resolve through local defs, import aliases (following
  re-export chains through ``__init__`` modules) and ``*``-imports;
* attribute calls whose root is an imported module alias resolve precisely;
  every other attribute call (``obj.method(...)``, ``self.x.method(...)``)
  resolves class-hierarchy-analysis style to **every** method of that name
  in the package;
* instantiating a class reaches its constructor family (``__init__``,
  ``__post_init__``, ``__new__``, ``__call__``) including statically
  resolvable base classes; ``super().m(...)`` resolves through the static
  base chain of the enclosing class;
* when any function of a module is reached, the module's top-level code
  (imports, constant computation, registration side effects) is traversed
  too.

Call sites that defeat static resolution (calling a local variable, a
subscript, or the result of another call) are recorded as *unresolved* and
counted against a budget by the CKEY rules rather than silently dropped.

Host-side orchestration layers (``repro.sweep``, ``repro.checks``,
``repro.cli``) are excluded from the default graph: they never influence a
*simulated* result (``docs/MODELING.md`` §9), and including them would
drag their file I/O into every closure through the conservative attribute
resolution.  The sweep never builds this graph; its cache keys hash the
whole package's sources instead (:func:`repro.sweep.cache.sources_hash`).
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .lint import _parse_suppressions

#: Qualname of the pseudo-function holding a module's top-level code.
MODULE_BODY = "<module>"

#: (module dotted name, qualname) — one node of the function graph.
FuncKey = Tuple[str, str]

#: Subpackages excluded from the default ``repro`` graph: host-side
#: orchestration that cannot influence simulated results (see module
#: docstring).
DEFAULT_EXCLUDE: Tuple[str, ...] = (
    "repro.checks",
    "repro.sweep",
    "repro.dse",
    "repro.cli",
    "repro.__main__",
)

#: Constructor family traversed when a class is instantiated.
_CONSTRUCTOR_METHODS = ("__init__", "__post_init__", "__new__", "__call__")

_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``chain`` is the dotted callee path: ``("foo",)`` for ``foo(...)``,
    ``("np", "random", "default_rng")`` for the attribute form,
    ``("super", "m")`` for ``super().m(...)``, ``("<dynamic>", "m")`` for an
    attribute call on a computed receiver, and ``None`` when the callee
    itself is computed (``handlers[k](...)``, ``getattr(o, n)(...)``).
    """

    chain: Optional[Tuple[str, ...]]
    lineno: int


@dataclass
class FunctionNode:
    """One analyzable function (or a module's top-level pseudo-function)."""

    module: str
    qualname: str
    lineno: int
    #: Enclosing class name for methods (``None`` for module-level code).
    owner: Optional[str]
    calls: Tuple[CallSite, ...]
    #: AST nodes owned by this function — scanned by the CKEY rules.
    scan_nodes: Tuple[ast.AST, ...]
    #: Names of defs nested inside this function.  Their call sites are
    #: already swept into ``calls`` (the collector walks the whole
    #: subtree), so calling one is covered, not unresolved.
    nested_defs: frozenset = frozenset()

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ClassNode:
    """One top-level class: its methods and statically written bases."""

    module: str
    name: str
    bases: Tuple[Tuple[str, ...], ...]
    methods: Tuple[str, ...]  # method names (not qualnames)


@dataclass
class ModuleInfo:
    """Everything the analyzer knows about one parsed module."""

    name: str
    path: Path
    display: str  # repo-style path used in diagnostics ("repro/engine/...")
    functions: Dict[str, FunctionNode]
    classes: Dict[str, ClassNode]
    imports: Dict[str, str]  # local binding -> dotted target
    star_imports: Tuple[str, ...]
    toplevel_names: Set[str]
    suppressions: Dict[int, Optional[Set[str]]]
    parse_error: Optional[str] = None


@dataclass
class Resolution:
    """Outcome of resolving one call site."""

    functions: List[FuncKey] = field(default_factory=list)
    modules: List[str] = field(default_factory=list)
    external: Optional[str] = None  # dotted name outside the package
    unresolved: bool = False


@dataclass
class Closure:
    """Transitive dependency closure of one or more root functions."""

    roots: Tuple[FuncKey, ...]
    functions: Set[FuncKey]
    modules: Set[str]
    #: (module display path, lineno, description) per unresolvable edge.
    unresolved: List[Tuple[str, int, str]]
    externals: Set[str]


def _split_chain(func: ast.AST) -> Optional[Tuple[str, ...]]:
    """Callee path of a call expression (see :class:`CallSite`)."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    if (
        parts
        and isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
    ):
        parts.append("super")
        return tuple(reversed(parts))
    if parts:
        parts.append("<dynamic>")
        return tuple(reversed(parts))
    return None


def _call_sites(nodes: Iterable[ast.AST]) -> Tuple[CallSite, ...]:
    sites: List[CallSite] = []
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                sites.append(CallSite(_split_chain(node.func), node.lineno))
    return tuple(sites)


def _toplevel_scan_nodes(tree: ast.Module) -> List[ast.AST]:
    """AST nodes executed at import time: everything except def bodies.

    Decorators of top-level functions/classes run at import, so they belong
    to the module pseudo-function; a class *body* also runs at import, so it
    is walked with the same def-pruning rule.
    """
    nodes: List[ast.AST] = []

    def decorators(stmt: ast.stmt) -> List[ast.AST]:
        # A bare ``@register`` is a Name, not a Call, yet it *is* called at
        # import time — wrap it so _call_sites sees the edge.
        out: List[ast.AST] = []
        for dec in stmt.decorator_list:
            if isinstance(dec, ast.Call):
                out.append(dec)
            else:
                out.append(ast.copy_location(
                    ast.Call(func=dec, args=[], keywords=[]), dec))
        return out

    def collect(body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nodes.extend(decorators(stmt))
            elif isinstance(stmt, ast.ClassDef):
                nodes.extend(decorators(stmt))
                nodes.extend(stmt.bases)
                nodes.extend(kw.value for kw in stmt.keywords)
                collect(stmt.body)
            else:
                nodes.append(stmt)

    collect(tree.body)
    return nodes


def _nested_def_names(fn: ast.AST) -> frozenset:
    """Names of function/class defs nested inside ``fn`` (excluding it)."""
    names = set()
    for node in ast.walk(fn):
        if node is fn:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return frozenset(names)


def _module_name(root: Path, path: Path, package: str) -> str:
    rel = path.relative_to(root)
    parts = list(rel.parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join([package, *parts]) if parts else package


def _resolve_relative(module_name: str, is_package: bool, level: int, target: Optional[str]) -> str:
    """Absolute dotted target of a ``from ...X import Y`` statement."""
    if level == 0:
        return target or ""
    anchor = module_name.split(".")
    if not is_package:
        anchor = anchor[:-1]
    drop = level - 1
    if drop:
        anchor = anchor[: len(anchor) - drop] if drop < len(anchor) else []
    base = ".".join(anchor)
    if target:
        return f"{base}.{target}" if base else target
    return base


class CallGraph:
    """Parsed module set + resolution machinery + closure computation."""

    def __init__(self, package: str, modules: Dict[str, ModuleInfo]) -> None:
        self.package = package
        self.modules = modules
        # CHA index: method name -> every (module, qualname) method bearing it.
        self._method_index: Dict[str, Tuple[FuncKey, ...]] = {}
        index: Dict[str, List[FuncKey]] = {}
        for info in modules.values():
            for qualname, fn in info.functions.items():
                if fn.owner is not None:
                    index.setdefault(fn.name, []).append((info.name, qualname))
        self._method_index = {name: tuple(keys) for name, keys in index.items()}
        #: Per-graph memo used by depfp (closures, CKEY findings).
        self.memo: Dict[object, object] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls,
        root: Path,
        package: str = "repro",
        exclude: Sequence[str] = DEFAULT_EXCLUDE,
    ) -> "CallGraph":
        """Parse every module under ``root`` (the package directory)."""
        root = Path(root)
        modules: Dict[str, ModuleInfo] = {}
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            name = _module_name(root, path, package)
            if any(name == ex or name.startswith(ex + ".") for ex in exclude):
                continue
            modules[name] = cls._parse_module(root, path, name, package)
        return cls(package, modules)

    @staticmethod
    def _parse_module(root: Path, path: Path, name: str, package: str) -> ModuleInfo:
        source = path.read_text(encoding="utf-8")
        display = "/".join([package, *path.relative_to(root).parts])
        info = ModuleInfo(
            name=name,
            path=path,
            display=display,
            functions={},
            classes={},
            imports={},
            star_imports=(),
            toplevel_names=set(),
            suppressions=_parse_suppressions(source),
        )
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as err:
            info.parse_error = str(err)
            return info

        is_package = path.name == "__init__.py"
        stars: List[str] = []
        # Imports are collected from the *whole* tree, not just module
        # top level: function-local imports (cycle breakers like
        # ``from .packets import PacketWriter``) bind locals, but treating
        # them as module-wide aliases is a sound over-approximation and
        # lets their call sites resolve precisely.
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        info.imports[alias.asname] = alias.name
                    else:
                        # ``import x.y`` binds only the root name ``x``.
                        head = alias.name.split(".")[0]
                        info.imports[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(name, is_package, node.level, node.module)
                for alias in node.names:
                    if alias.name == "*":
                        stars.append(base)
                    else:
                        info.imports[alias.asname or alias.name] = f"{base}.{alias.name}"

        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[stmt.name] = FunctionNode(
                    module=name,
                    qualname=stmt.name,
                    lineno=stmt.lineno,
                    owner=None,
                    calls=_call_sites([stmt]),
                    scan_nodes=(stmt,),
                    nested_defs=_nested_def_names(stmt),
                )
            elif isinstance(stmt, ast.ClassDef):
                methods: List[str] = []
                for child in stmt.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods.append(child.name)
                        qualname = f"{stmt.name}.{child.name}"
                        info.functions[qualname] = FunctionNode(
                            module=name,
                            qualname=qualname,
                            lineno=child.lineno,
                            owner=stmt.name,
                            calls=_call_sites([child]),
                            scan_nodes=(child,),
                            nested_defs=_nested_def_names(child),
                        )
                info.classes[stmt.name] = ClassNode(
                    module=name,
                    name=stmt.name,
                    bases=tuple(
                        chain
                        for chain in (_split_chain(base) for base in stmt.bases)
                        if chain is not None
                    ),
                    methods=tuple(methods),
                )
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for child in ast.walk(target):
                        if isinstance(child, ast.Name):
                            info.toplevel_names.add(child.id)
        info.star_imports = tuple(stars)

        scan_nodes = tuple(_toplevel_scan_nodes(tree))
        info.functions[MODULE_BODY] = FunctionNode(
            module=name,
            qualname=MODULE_BODY,
            lineno=1,
            owner=None,
            calls=_call_sites(scan_nodes),
            scan_nodes=scan_nodes,
        )
        return info

    # -- resolution --------------------------------------------------------
    def methods_named(self, name: str) -> Tuple[FuncKey, ...]:
        """Every method in the package with this name (CHA lookup)."""
        return self._method_index.get(name, ())

    def _class_constructors(
        self, module: ModuleInfo, class_name: str, seen: Set[Tuple[str, str]]
    ) -> Resolution:
        """Constructor-family targets of instantiating ``class_name``."""
        result = Resolution(modules=[module.name])
        key = (module.name, class_name)
        if key in seen:
            return result
        seen.add(key)
        cls = module.classes.get(class_name)
        if cls is None:
            return result
        for method in _CONSTRUCTOR_METHODS:
            if method in cls.methods:
                result.functions.append((module.name, f"{class_name}.{method}"))
        for base_chain in cls.bases:
            base = self._resolve_chain_to_class(module, base_chain, seen)
            if base is not None:
                base_module, base_name = base
                sub = self._class_constructors(self.modules[base_module], base_name, seen)
                result.functions.extend(sub.functions)
                result.modules.extend(sub.modules)
        return result

    def _resolve_chain_to_class(
        self, module: ModuleInfo, chain: Tuple[str, ...], seen: Set[Tuple[str, str]]
    ) -> Optional[Tuple[str, str]]:
        """Resolve a base-class expression to a (module, class) if possible."""
        if len(chain) == 1:
            name = chain[0]
            if name in module.classes:
                return (module.name, name)
            if name in module.imports:
                return self._dotted_to_class(module.imports[name])
            for star in module.star_imports:
                target = self._dotted_to_class(f"{star}.{name}")
                if target is not None:
                    return target
            return None
        dotted = ".".join(chain)
        if chain[0] in module.imports:
            dotted = f"{module.imports[chain[0]]}.{'.'.join(chain[1:])}"
        return self._dotted_to_class(dotted)

    def _dotted_to_class(self, dotted: str, hops: int = 0) -> Optional[Tuple[str, str]]:
        if hops > 8:
            return None
        prefix, attr = self._split_dotted(dotted)
        if prefix is None or attr is None:
            return None
        module = self.modules[prefix]
        if attr in module.classes:
            return (prefix, attr)
        if attr in module.imports:
            return self._dotted_to_class(module.imports[attr], hops + 1)
        for star in module.star_imports:
            found = self._dotted_to_class(f"{star}.{attr}", hops + 1)
            if found is not None:
                return found
        return None

    def _split_dotted(self, dotted: str) -> Tuple[Optional[str], Optional[str]]:
        """Longest known-module prefix and the single trailing attribute.

        ``(None, None)`` when the path doesn't lead into the graph;
        ``(module, None)`` when the path *is* a module.
        """
        parts = dotted.split(".")
        if parts[0] != self.package.split(".")[0] and dotted not in self.modules:
            return (None, None)
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                rest = parts[cut:]
                if not rest:
                    return (prefix, None)
                if len(rest) == 1:
                    return (prefix, rest[0])
                # Deeper paths (module.Class.method): resolve the first hop.
                return (prefix, rest[0])
        return (None, None)

    def resolve_dotted(self, dotted: str, hops: int = 0) -> Resolution:
        """Resolve an absolute dotted target (import alias or module attr)."""
        if hops > 8:
            return Resolution(unresolved=True)
        head = dotted.split(".")[0]
        if head != self.package.split(".")[0]:
            return Resolution(external=dotted)
        prefix, attr = self._split_dotted(dotted)
        if prefix is None:
            # Inside the package namespace but not in the graph: an excluded
            # orchestration layer.
            return Resolution(external=dotted)
        if attr is None:
            return Resolution(modules=[prefix])
        return self.resolve_name(self.modules[prefix], attr, hops + 1)

    def resolve_name(self, module: ModuleInfo, name: str, hops: int = 0) -> Resolution:
        """Resolve a plain name referenced in ``module``."""
        if hops > 8:
            return Resolution(unresolved=True)
        if name in module.functions and module.functions[name].owner is None:
            return Resolution(functions=[(module.name, name)], modules=[module.name])
        if name in module.classes:
            return self._class_constructors(module, name, set())
        if name in module.imports:
            return self.resolve_dotted(module.imports[name], hops + 1)
        if name in module.toplevel_names:
            # A module constant: reaching it reaches its module.
            return Resolution(modules=[module.name])
        for star in module.star_imports:
            resolution = self.resolve_dotted(f"{star}.{name}", hops + 1)
            if resolution.functions or resolution.modules or resolution.external:
                return resolution
        if name in _BUILTIN_NAMES:
            return Resolution(external=f"builtins.{name}")
        return Resolution(unresolved=True)

    def resolve_call(
        self, module: ModuleInfo, site: CallSite, fn: Optional[FunctionNode] = None
    ) -> Resolution:
        """Resolve one call site in the context of its function and module."""
        chain = site.chain
        owner = fn.owner if fn is not None else None
        if chain is None:
            return Resolution(unresolved=True)
        if len(chain) == 1:
            if fn is not None and chain[0] in fn.nested_defs:
                # A nested def: its call sites are already part of ``fn``'s
                # own sweep, so the edge is covered in place.
                return Resolution(modules=[module.name])
            return self.resolve_name(module, chain[0])
        root, attr = chain[0], chain[-1]
        if root == "super":
            return self._resolve_super(module, owner, attr)
        if root == "<dynamic>":
            return self._resolve_cha(attr)
        if root in module.imports:
            dotted = module.imports[root]
            target = f"{dotted}.{'.'.join(chain[1:])}"
            head = dotted.split(".")[0]
            if head != self.package.split(".")[0]:
                return Resolution(external=target)
            prefix, _ = self._split_dotted(dotted)
            if prefix is not None and len(chain) == 2:
                # Attribute call through a module alias: precise lookup.
                if dotted in self.modules:
                    return self.resolve_name(self.modules[dotted], attr, 1)
                resolved = self.resolve_dotted(target, 1)
                if resolved.functions or resolved.modules:
                    return resolved
                return self._resolve_cha(attr)
            resolved = self.resolve_dotted(target, 1)
            if resolved.functions or resolved.modules or resolved.external:
                return resolved
            return self._resolve_cha(attr)
        if root in module.classes and len(chain) == 2:
            # ClassName.method(...) — direct static dispatch.
            qualname = f"{root}.{attr}"
            if qualname in module.functions:
                return Resolution(functions=[(module.name, qualname)], modules=[module.name])
        # Unknown receiver (self.x, parameter, local): conservative CHA.
        return self._resolve_cha(attr)

    def _resolve_cha(self, attr: str) -> Resolution:
        targets = self.methods_named(attr)
        if not targets:
            # No package method bears this name: receiver is external
            # (numpy arrays, stdlib containers, ...).
            return Resolution(external=f"<attr>.{attr}")
        return Resolution(
            functions=list(targets), modules=[mod for mod, _ in targets]
        )

    def _resolve_super(self, module: ModuleInfo, owner: Optional[str], attr: str) -> Resolution:
        """``super().attr(...)`` through the static base chain of ``owner``."""
        if owner is None:
            return self._resolve_cha(attr)
        result = Resolution()
        seen: Set[Tuple[str, str]] = set()
        stack: List[Tuple[ModuleInfo, str]] = [(module, owner)]
        while stack:
            mod, cls_name = stack.pop()
            cls = mod.classes.get(cls_name)
            if cls is None or (mod.name, cls_name) in seen:
                continue
            seen.add((mod.name, cls_name))
            for base_chain in cls.bases:
                base = self._resolve_chain_to_class(mod, base_chain, set())
                if base is None:
                    continue
                base_mod, base_cls = base
                qualname = f"{base_cls}.{attr}"
                base_info = self.modules[base_mod]
                if qualname in base_info.functions:
                    result.functions.append((base_mod, qualname))
                    result.modules.append(base_mod)
                else:
                    stack.append((base_info, base_cls))
        if not result.functions:
            return Resolution(external=f"super().{attr}")
        return result

    # -- closure -----------------------------------------------------------
    def closure(self, roots: Iterable[FuncKey]) -> Closure:
        """Transitive closure of functions/modules reachable from ``roots``."""
        roots = tuple(roots)
        functions: Set[FuncKey] = set()
        modules: Set[str] = set()
        unresolved: List[Tuple[str, int, str]] = []
        externals: Set[str] = set()
        work: List[FuncKey] = []

        def add_module(name: str) -> None:
            if name in modules or name not in self.modules:
                return
            modules.add(name)
            add_function((name, MODULE_BODY))

        def add_function(key: FuncKey) -> None:
            mod_name, qualname = key
            info = self.modules.get(mod_name)
            if info is None or qualname not in info.functions:
                return
            if key in functions:
                return
            functions.add(key)
            work.append(key)
            add_module(mod_name)

        for root in roots:
            add_function(root)

        while work:
            mod_name, qualname = work.pop()
            info = self.modules[mod_name]
            fn = info.functions[qualname]
            for site in fn.calls:
                resolution = self.resolve_call(info, site, fn)
                if resolution.unresolved:
                    callee = ".".join(site.chain) if site.chain else "<computed>"
                    unresolved.append((info.display, site.lineno, callee))
                if resolution.external:
                    externals.add(resolution.external)
                for target in resolution.functions:
                    add_function(target)
                for target_module in resolution.modules:
                    add_module(target_module)

        return Closure(
            roots=roots,
            functions=functions,
            modules=modules,
            unresolved=unresolved,
            externals=externals,
        )
