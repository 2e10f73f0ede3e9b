"""Whole-program call-graph analyzer (repro.checks.callgraph).

A fake package is written to ``tmp_path`` and analyzed from source, so the
tests pin the resolution semantics (imports, re-exports, CHA, classes,
module bodies) and the closures the cache-soundness scan walks.
"""

import textwrap

import pytest

from repro.checks.callgraph import MODULE_BODY, CallGraph


def write_package(tmp_path, modules, package="fakepkg"):
    """Materialise ``{relpath: source}`` under ``tmp_path/<package>``."""
    root = tmp_path / package
    for rel, source in modules.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    if not (root / "__init__.py").exists():
        (root / "__init__.py").write_text("", encoding="utf-8")
    return root


def build(tmp_path, modules, package="fakepkg"):
    root = write_package(tmp_path, modules, package)
    return CallGraph.build(root, package=package, exclude=())


BASIC = {
    "__init__.py": """
        from .api import entry
    """,
    "helper.py": """
        HELPER_CONST = 7

        def helper_fn(x):
            return x + HELPER_CONST

        def unused_helper():
            return 0
    """,
    "api.py": """
        from .helper import helper_fn

        def entry(x):
            return helper_fn(x)

        def standalone(x):
            return x * 2
    """,
    "lonely.py": """
        def lonely():
            return 42
    """,
}


# -- resolution ---------------------------------------------------------------

def test_plain_from_import_call_resolves(tmp_path):
    graph = build(tmp_path, BASIC)
    closure = graph.closure([("fakepkg.api", "entry")])
    assert ("fakepkg.helper", "helper_fn") in closure.functions
    assert "fakepkg.helper" in closure.modules


def test_unreached_modules_stay_out(tmp_path):
    graph = build(tmp_path, BASIC)
    closure = graph.closure([("fakepkg.api", "entry")])
    assert "fakepkg.lonely" not in closure.modules
    # Unreached functions of reached modules stay out of the function set.
    assert ("fakepkg.helper", "unused_helper") not in closure.functions


def test_module_attribute_call_resolves(tmp_path):
    graph = build(
        tmp_path,
        {
            **BASIC,
            "attrcall.py": """
                from . import helper

                def go(x):
                    return helper.helper_fn(x)
            """,
        },
    )
    closure = graph.closure([("fakepkg.attrcall", "go")])
    assert ("fakepkg.helper", "helper_fn") in closure.functions


def test_reexport_through_init_resolves(tmp_path):
    graph = build(
        tmp_path,
        {
            **BASIC,
            "consumer.py": """
                from fakepkg import entry

                def use(x):
                    return entry(x)
            """,
        },
    )
    closure = graph.closure([("fakepkg.consumer", "use")])
    assert ("fakepkg.api", "entry") in closure.functions
    assert ("fakepkg.helper", "helper_fn") in closure.functions


def test_function_local_import_resolves(tmp_path):
    graph = build(
        tmp_path,
        {
            **BASIC,
            "lazy.py": """
                def go(x):
                    from .helper import helper_fn

                    return helper_fn(x)
            """,
        },
    )
    closure = graph.closure([("fakepkg.lazy", "go")])
    assert ("fakepkg.helper", "helper_fn") in closure.functions
    assert not closure.unresolved


def test_external_calls_recorded_not_unresolved(tmp_path):
    graph = build(
        tmp_path,
        {
            "ext.py": """
                import hashlib

                def digest(data):
                    return hashlib.sha256(data).hexdigest()
            """,
        },
    )
    closure = graph.closure([("fakepkg.ext", "digest")])
    assert not closure.unresolved
    assert any(name.startswith("hashlib") for name in closure.externals)


# -- classes ------------------------------------------------------------------

CLASSY = {
    "klass.py": """
        class Base:
            def __init__(self):
                self.ready = True

            def shared(self):
                return 1

        class Child(Base):
            def child_only(self):
                return 2
    """,
    "use.py": """
        from .klass import Child

        def make():
            return Child()

        def poke(obj):
            return obj.shared()
    """,
}


def test_instantiation_reaches_base_constructor(tmp_path):
    graph = build(tmp_path, CLASSY)
    closure = graph.closure([("fakepkg.use", "make")])
    assert ("fakepkg.klass", "Base.__init__") in closure.functions


def test_attribute_call_resolves_cha(tmp_path):
    graph = build(tmp_path, CLASSY)
    closure = graph.closure([("fakepkg.use", "poke")])
    # Conservative CHA: every package method named ``shared`` is reached.
    assert ("fakepkg.klass", "Base.shared") in closure.functions


def test_super_call_resolves_through_static_bases(tmp_path):
    graph = build(
        tmp_path,
        {
            "klass.py": """
                class Base:
                    def setup(self):
                        return 1

                class Child(Base):
                    def setup(self):
                        return super().setup() + 1
            """,
        },
    )
    graph_module = graph.modules["fakepkg.klass"]
    fn = graph_module.functions["Child.setup"]
    sites = [s for s in fn.calls if s.chain and s.chain[0] == "super"]
    assert sites
    resolution = graph.resolve_call(graph_module, sites[0], fn)
    assert ("fakepkg.klass", "Base.setup") in resolution.functions


# -- module bodies ------------------------------------------------------------

def test_reached_module_body_is_traversed(tmp_path):
    graph = build(
        tmp_path,
        {
            "registry.py": """
                def register(fn):
                    return fn
            """,
            "plugin.py": """
                from .registry import register

                @register
                def hook():
                    return 1
            """,
            "use.py": """
                from . import plugin

                def go():
                    return plugin.hook()
            """,
        },
    )
    closure = graph.closure([("fakepkg.use", "go")])
    # Import-time side effects (the decorator call) are part of the closure.
    assert ("fakepkg.plugin", MODULE_BODY) in closure.functions
    assert ("fakepkg.registry", "register") in closure.functions


def test_constant_reference_reaches_module_only(tmp_path):
    graph = build(tmp_path, BASIC)
    closure = graph.closure([("fakepkg.api", "entry")])
    # HELPER_CONST has no call edge, but helper's module hash covers it.
    assert "fakepkg.helper" in closure.modules


# -- unresolved accounting ----------------------------------------------------

def test_nested_def_call_is_covered_not_unresolved(tmp_path):
    graph = build(
        tmp_path,
        {
            **BASIC,
            "nested.py": """
                from .helper import helper_fn

                def outer(x):
                    def inner(y):
                        return helper_fn(y)

                    return inner(x)
            """,
        },
    )
    closure = graph.closure([("fakepkg.nested", "outer")])
    assert not closure.unresolved
    assert ("fakepkg.helper", "helper_fn") in closure.functions


def test_local_variable_call_counts_unresolved(tmp_path):
    graph = build(
        tmp_path,
        {
            "dyn.py": """
                def run(callback):
                    return callback()
            """,
        },
    )
    closure = graph.closure([("fakepkg.dyn", "run")])
    assert len(closure.unresolved) == 1


def test_excluded_subpackages_are_not_parsed(tmp_path):
    root = write_package(
        tmp_path,
        {
            "core.py": "def f():\n    return 1\n",
            "sweep/__init__.py": "def g():\n    return 2\n",
        },
    )
    graph = CallGraph.build(root, package="fakepkg", exclude=("fakepkg.sweep",))
    assert "fakepkg.core" in graph.modules
    assert "fakepkg.sweep" not in graph.modules


# -- the real package ---------------------------------------------------------

def test_repro_graph_builds_and_parses_every_module():
    from repro.checks import depfp

    graph = depfp.package_graph()
    assert graph.modules, "graph is empty"
    broken = [m.name for m in graph.modules.values() if m.parse_error]
    assert broken == []
    # Orchestration layers are excluded by default.
    assert not any(name.startswith("repro.sweep") for name in graph.modules)
    assert not any(name.startswith("repro.checks") for name in graph.modules)


def test_repro_scenario_closures_contain_their_own_module():
    import repro.scenarios  # registration side effects
    from repro.checks import depfp
    from repro.scenarios import all_scenarios

    graph = depfp.package_graph()
    for entry in all_scenarios():
        fp = depfp.scenario_fingerprint(entry, graph=graph)
        assert fp is not None, entry.name
        assert entry.fn.__module__ in fp.modules, entry.name


def test_repro_closure_precision_figures_vs_tables():
    import repro.scenarios
    from repro.checks import depfp
    from repro.scenarios import get_scenario

    graph = depfp.package_graph()
    fig = depfp.scenario_fingerprint(get_scenario("fig1_generic_architecture"), graph=graph)
    table = depfp.scenario_fingerprint(get_scenario("table01_resources32"), graph=graph)
    # The figure renders a floorplan without building a system; the table
    # builds the full transfer rig.  Their closures must be visibly
    # different, and the bus model must be reachable only from the table.
    assert set(fig.modules) != set(table.modules)
    assert len(fig.modules) < len(table.modules)
    assert "repro.bus.plb" not in fig.modules
    assert "repro.bus.plb" in table.modules
