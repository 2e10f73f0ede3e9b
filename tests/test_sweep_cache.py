"""Content-addressed result cache: hits, invalidation, recovery.

The cache key is (scenario source fingerprint, canonical params, package
sources hash) — these tests pin down the in-process invalidation axes, the
corrupted-entry recovery path (a bad entry must become a miss, never an
exception) and concurrent same-key stores.  Edits to the package sources
are exercised on a copy of the package in ``tests/test_sweep_fence.py``.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro.scenarios import ScenarioResult
from repro.scenarios.registry import Scenario
from repro.sweep import ResultCache, cache_key, canonical_params
from repro.sweep.cache import sources_hash
from repro.sweep.rigcache import RigCache


# Module-level so inspect.getsource works: two versions of "the same"
# scenario body, as if the function had been edited between runs.
def _body_v1(n):
    return ScenarioResult(name="edited", headers=["n"], rows=[[n]])


def _body_v2(n):
    return ScenarioResult(name="edited", headers=["n"], rows=[[n * 2]])


def _scenario(fn=_body_v1, name="cached"):
    return Scenario(name=name, fn=fn, title=name, params={"n": 3})


def _result(rows):
    return ScenarioResult(name="cached", title="Cached", headers=["n"], rows=rows)


def test_miss_then_store_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    entry = _scenario()
    params = {"n": 3}

    assert cache.load(entry, params) is None
    cache.store(entry, params, _result([[3]]), host_seconds=1.25)
    found = cache.load(entry, params)
    assert found is not None
    result, cold_seconds = found
    assert result == _result([[3]])
    assert cold_seconds == 1.25
    stats = cache.telemetry.as_dict()
    assert stats == {"hits": 1, "misses": 1, "stores": 1, "invalidated": 0}


def test_params_change_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    entry = _scenario()
    cache.store(entry, {"n": 3}, _result([[3]]), host_seconds=0.1)
    assert cache.load(entry, {"n": 4}) is None
    assert cache.load(entry, {"n": 3}) is not None
    assert cache_key(entry, {"n": 3}) != cache_key(entry, {"n": 4})


def test_source_edit_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    before = _scenario(_body_v1)
    after = _scenario(_body_v2)
    assert before.source_fingerprint() != after.source_fingerprint()
    cache.store(before, {"n": 3}, _result([[3]]), host_seconds=0.1)
    assert cache.load(after, {"n": 3}) is None
    # The stale entry for the old source is untouched (GC is `clear()`).
    assert cache.load(before, {"n": 3}) is not None


def test_corrupted_entry_recovers_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    entry = _scenario()
    params = {"n": 3}
    path = cache.store(entry, params, _result([[3]]), host_seconds=0.1)

    path.write_text("{ not json", encoding="utf-8")
    assert cache.load(entry, params) is None
    assert not path.exists()  # dropped so the next run regenerates
    assert cache.telemetry.invalidated == 1

    # The cache still works after recovery.
    cache.store(entry, params, _result([[3]]), host_seconds=0.1)
    assert cache.load(entry, params) is not None


def test_stale_envelope_key_is_invalidated(tmp_path):
    cache = ResultCache(tmp_path)
    entry = _scenario()
    params = {"n": 3}
    path = cache.store(entry, params, _result([[3]]), host_seconds=0.1)

    envelope = json.loads(path.read_text(encoding="utf-8"))
    envelope["key"] = "0" * 64
    path.write_text(json.dumps(envelope), encoding="utf-8")
    assert cache.load(entry, params) is None
    assert cache.telemetry.invalidated == 1


def test_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store(_scenario(), {"n": 3}, _result([[3]]), host_seconds=0.1)
    cache.store(_scenario(name="other"), {"n": 3}, _result([[3]]), host_seconds=0.1)
    assert cache.clear() == 2
    assert cache.load(_scenario(), {"n": 3}) is None


def test_canonical_params_is_order_independent():
    assert canonical_params({"b": 2, "a": (1, 2)}) == canonical_params(
        {"a": [1, 2], "b": 2}
    )


def test_entry_path_is_human_navigable(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.entry_path(_scenario(), {"n": 3})
    assert path.name.startswith("cached-")
    assert path.suffix == ".json"


# -- package-sources keying --------------------------------------------------

def _registered(name="table01_resources32"):
    import repro.scenarios  # registration side effects
    from repro.scenarios import get_scenario

    return get_scenario(name)


def test_version_bump_keeps_key_when_sources_unchanged(monkeypatch):
    """The key does not read ``repro.__version__``: a release bump with
    unchanged sources keeps the warm cache."""
    entry = _registered()
    params = dict(entry.params)
    before = cache_key(entry, params)
    monkeypatch.setattr("repro.__version__", "99.0.0")
    assert cache_key(entry, params) == before


def test_stored_envelope_records_key_components(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.store(_scenario(), {"n": 3}, _result([[3]]), host_seconds=0.1)
    envelope = json.loads(path.read_text(encoding="utf-8"))
    components = envelope["key_components"]
    assert components["sources"] == sources_hash()
    assert components["params"] == {"n": 3}


# -- miss attribution ---------------------------------------------------------

def test_explain_cold_cache(tmp_path):
    cache = ResultCache(tmp_path)
    lines = cache.explain(_scenario(), {"n": 3})
    assert len(lines) == 1
    assert "no cached entry" in lines[0]


def test_explain_attributes_params_change(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store(_scenario(), {"n": 3}, _result([[3]]), host_seconds=0.1)
    lines = cache.explain(_scenario(), {"n": 4})
    assert any("params" in line for line in lines)


def test_explain_reports_hit(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store(_scenario(), {"n": 3}, _result([[3]]), host_seconds=0.1)
    lines = cache.explain(_scenario(), {"n": 3})
    assert any("identical" in line for line in lines)


# -- concurrent stores --------------------------------------------------------

_WRITERS = 4
_STORES = 200


def _store_result_repeatedly(root, barrier):
    cache = ResultCache(root)
    barrier.wait()
    for _ in range(_STORES):
        cache.store(_scenario(), {"n": 3}, _result([[3]]), host_seconds=0.1)


def _store_rig_repeatedly(root, barrier):
    cache = RigCache(root)
    data = np.arange(64, dtype=np.uint32)
    written = np.ones(64, dtype=bool)
    barrier.wait()
    for _ in range(_STORES):
        cache.store("shared-key", data, written, 7)
    assert cache.stores == _STORES


@pytest.mark.parametrize(
    "writer", [_store_result_repeatedly, _store_rig_repeatedly], ids=["result", "rig"]
)
def test_concurrent_same_key_stores_never_collide(tmp_path, writer):
    """Processes storing the same key at once must all succeed and leave
    one readable entry and no temp files behind."""
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(_WRITERS)
    workers = [
        context.Process(target=writer, args=(tmp_path, barrier)) for _ in range(_WRITERS)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert [worker.exitcode for worker in workers] == [0] * _WRITERS
    assert len(list(tmp_path.iterdir())) == 1
    if writer is _store_result_repeatedly:
        assert ResultCache(tmp_path).load(_scenario(), {"n": 3}) is not None
    else:
        data, written, writes = RigCache(tmp_path).load("shared-key")
        assert writes == 7 and data.sum() == sum(range(64)) and written.all()
