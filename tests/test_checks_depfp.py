"""Dependency closures and the CKEY rule family (repro.checks.depfp)."""

import json
import textwrap

import pytest

from repro.checks import depfp
from repro.checks.callgraph import CallGraph
from repro.checks.diagnostics import CheckReport, Severity

from tests.test_checks_callgraph import write_package


def graph_for(tmp_path, modules):
    root = write_package(tmp_path, modules)
    return CallGraph.build(root, package="fakepkg", exclude=())


def scan(tmp_path, body, extra=None):
    """Closure of ``fakepkg.scn.root`` whose body is ``body``."""
    modules = {"scn.py": body}
    if extra:
        modules.update(extra)
    graph = graph_for(tmp_path, modules)
    fp = depfp.fingerprint_root("fakepkg.scn", "root", graph=graph)
    assert fp is not None
    return fp


def rules(fp):
    return sorted({d.rule for d in fp.findings})


def has_errors(fp):
    return any(d.severity is Severity.ERROR for d in fp.findings)


# -- per-rule known-bad fixtures ----------------------------------------------

def test_ckey001_importlib(tmp_path):
    fp = scan(
        tmp_path,
        """
        import importlib

        def root(name):
            return importlib.import_module(name)
        """,
    )
    assert rules(fp) == ["CKEY001"]
    assert has_errors(fp)


def test_ckey001_dunder_import_and_eval(tmp_path):
    fp = scan(
        tmp_path,
        """
        def root(name):
            mod = __import__(name)
            return eval("mod.x")
        """,
    )
    assert rules(fp) == ["CKEY001"]
    assert len([d for d in fp.findings if d.rule == "CKEY001"]) == 2


def test_ckey001_called_getattr_result(tmp_path):
    fp = scan(
        tmp_path,
        """
        def root(obj, name):
            return getattr(obj, name)()
        """,
    )
    assert "CKEY001" in rules(fp)


def test_ckey001_uncalled_getattr_is_fine(tmp_path):
    fp = scan(
        tmp_path,
        """
        def root(obj):
            return getattr(obj, "width", 32)
        """,
    )
    assert "CKEY001" not in rules(fp)


def test_ckey002_environ(tmp_path):
    fp = scan(
        tmp_path,
        """
        import os

        def root():
            return os.environ["REPRO_MODE"], os.getenv("REPRO_FAST")
        """,
    )
    assert rules(fp) == ["CKEY002"]
    assert len([d for d in fp.findings if d.rule == "CKEY002"]) == 2
    assert has_errors(fp)


def test_ckey003_file_reads(tmp_path):
    fp = scan(
        tmp_path,
        """
        import numpy as np
        from pathlib import Path

        def root(path):
            with open(path) as fh:
                text = fh.read()
            blob = Path(path).read_bytes()
            arr = np.load(path)
            return text, blob, arr
        """,
    )
    assert rules(fp) == ["CKEY003"]
    assert len([d for d in fp.findings if d.rule == "CKEY003"]) == 3


def test_ckey004_unresolved_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(depfp, "UNRESOLVED_BUDGET", 1)
    fp = scan(
        tmp_path,
        """
        def root(a, b):
            return a() + b()
        """,
    )
    assert rules(fp) == ["CKEY004"]
    assert has_errors(fp)
    assert "budget" in fp.findings[0].message


def test_ckey005_untrusted_import(tmp_path):
    fp = scan(
        tmp_path,
        """
        import scipy.linalg

        def root(m):
            return scipy.linalg.det(m)
        """,
    )
    assert rules(fp) == ["CKEY005"]
    assert "scipy" in fp.findings[0].message
    assert has_errors(fp)


def test_trusted_and_stdlib_imports_are_clean(tmp_path):
    fp = scan(
        tmp_path,
        """
        import hashlib
        import numpy as np

        def root(data):
            return hashlib.sha256(np.asarray(data).tobytes()).hexdigest()
        """,
    )
    assert fp.findings == ()
    assert not has_errors(fp)


# -- suppression + scope ------------------------------------------------------

def test_noqa_suppresses_single_rule(tmp_path):
    fp = scan(
        tmp_path,
        """
        def root(obj, name):
            return getattr(obj, name)()  # repro: noqa CKEY001
        """,
    )
    assert fp.findings == ()
    assert not has_errors(fp)


def test_noqa_for_other_rule_does_not_suppress(tmp_path):
    fp = scan(
        tmp_path,
        """
        def root(obj, name):
            return getattr(obj, name)()  # repro: noqa CKEY002
        """,
    )
    assert rules(fp) == ["CKEY001"]


def test_findings_only_from_reached_functions(tmp_path):
    # The env read lives in an *unreached* sibling: the closure stays clean.
    fp = scan(
        tmp_path,
        """
        import os

        def root(x):
            return x + 1

        def unreached():
            return os.environ["HOME"]
        """,
    )
    assert fp.findings == ()
    assert not has_errors(fp)


def test_finding_in_reached_helper_propagates(tmp_path):
    fp = scan(
        tmp_path,
        """
        from .helper import peek

        def root():
            return peek()
        """,
        extra={
            "helper.py": """
                import os

                def peek():
                    return os.getenv("REPRO_MODE")
            """,
        },
    )
    assert rules(fp) == ["CKEY002"]
    assert has_errors(fp)


def test_unanalyzable_root_returns_none(tmp_path):
    graph = graph_for(tmp_path, {"scn.py": "def root():\n    return 1\n"})
    assert depfp.fingerprint_root("fakepkg.scn", "missing", graph=graph) is None
    assert depfp.fingerprint_root("fakepkg.nope", "root", graph=graph) is None


# -- JSON round-trip ----------------------------------------------------------

def test_ckey_diagnostics_round_trip_through_report(tmp_path):
    fp = scan(
        tmp_path,
        """
        import os

        def root():
            return os.getenv("REPRO_MODE")
        """,
    )
    report = CheckReport()
    report.diagnostics.extend(fp.findings)
    payload = json.loads(report.to_json())
    assert payload["summary"]["error"] >= 1
    ckey = [d for d in payload["diagnostics"] if d["rule"] == "CKEY002"]
    assert ckey and ckey[0]["severity"] == "error"
    assert fp.as_dict()["findings"][0]["rule"] == "CKEY002"


# -- the shipped tree ---------------------------------------------------------

def test_shipped_tree_has_no_ckey_findings():
    import repro.scenarios  # registration side effects

    report = CheckReport()
    fps = depfp.check_dependencies(report=report)
    assert not report.has_errors, report.format_text()
    assert not any(has_errors(fp) for fp in fps)


def test_check_dependencies_covers_scenarios_and_rig():
    import repro.scenarios
    from repro.scenarios import all_scenarios

    fps = depfp.check_dependencies()
    labels = {fp.label for fp in fps}
    assert "rig" in labels
    assert {sc.name for sc in all_scenarios()} <= labels


def test_rig_fingerprint_is_sound():
    fp = depfp.rig_fingerprint()
    assert fp is not None
    assert not has_errors(fp)
    assert "repro.bitstream.generator" in fp.modules


def test_check_dependencies_names_selects_subset():
    import repro.scenarios

    fps = depfp.check_dependencies(names=["rig", "table01_resources32"])
    assert [fp.label for fp in fps] == ["rig", "table01_resources32"]


def test_closure_table_lists_closure_modules():
    import repro.scenarios

    fps = depfp.check_dependencies(names=["table01_resources32"])
    text = depfp.closure_table(fps)
    assert text.splitlines()[0] == "table01_resources32"
    assert all(f"    {module}" in text for module in fps[0].modules)
