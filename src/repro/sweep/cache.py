"""Content-addressed, on-disk cache for scenario results.

A scenario is pure (LINT006-enforced), so its result is fully determined
by its inputs — and those inputs are exactly the cache key:

1. the scenario function's **source fingerprint** (SHA-256 of its source
   text, via the registry) — editing a scenario invalidates its entries,
   including scenarios registered outside the package (tests);
2. the **resolved parameters** (canonical JSON) — every distinct
   parameterisation caches separately (smoke and full runs never mix);
3. the **package sources hash** (:func:`sources_hash`) — one SHA-256 over
   every ``.py`` file of the ``repro`` package, so any edit to the
   library, this envelope code included, invalidates every entry, while
   an edit confined to the ``__version__`` line keeps the warm cache.

Entries are JSON envelopes under ``benchmarks/results/cache/`` by
default.  A corrupted or mismatched entry is deleted and treated as a
miss — the cache can always be rebuilt from scratch, so recovery never
raises.  Telemetry (hits/misses/stores/invalidations) feeds the sweep
report, and :meth:`ResultCache.explain` diffs the current key components
against the stored envelopes to attribute a miss (``repro sweep
--explain``).
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from .. import __version__
from ..scenarios.registry import Scenario
from ..scenarios.result import ScenarioResult, _canon
from .results_io import ensure_dir, write_atomically

#: The ``repro`` package directory whose sources fence every cache entry.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def sources_hash() -> str:
    """SHA-256 over every ``.py`` file of the ``repro`` package, computed
    once per process.

    Each file contributes its package-relative path and its bytes.  The
    ``__version__ =`` line of the package ``__init__.py`` is left out, so
    a release bump with otherwise unchanged sources keeps the warm cache.
    """
    digest = hashlib.sha256()
    for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
        rel = path.relative_to(_PACKAGE_ROOT).as_posix()
        data = path.read_bytes()
        if rel == "__init__.py":
            data = b"".join(
                line for line in data.splitlines(keepends=True)
                if not line.startswith(b"__version__ =")
            )
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def canonical_params(params: Mapping[str, object]) -> str:
    """Stable JSON for hashing: sorted keys, tuples already canonicalised."""
    return json.dumps({k: _canon(v) for k, v in params.items()}, sort_keys=True)


def key_components(scenario: Scenario, params: Mapping[str, object]) -> Dict[str, object]:
    """Every component of the content address, by name — hashed into the
    key, stored in the envelope, and diffed by :meth:`ResultCache.explain`."""
    return {
        "source": scenario.source_fingerprint(),
        "params": json.loads(canonical_params(params)),
        "sources": sources_hash(),
    }


def cache_key(scenario: Scenario, params: Mapping[str, object]) -> str:
    """The content address of one (scenario, params) result."""
    material = json.dumps(key_components(scenario, params), sort_keys=True)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _summarize(value: object) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return text[:16] + "…" if len(text) > 17 else text


@dataclass
class CacheTelemetry:
    """Hit/miss accounting for one sweep run."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidated: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidated": self.invalidated,
        }


@dataclass
class ResultCache:
    """Directory-backed content-addressed store of scenario results."""

    root: Path
    telemetry: CacheTelemetry = field(default_factory=CacheTelemetry)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # -- addressing --------------------------------------------------------
    def entry_path(self, scenario: Scenario, params: Mapping[str, object]) -> Path:
        key = cache_key(scenario, params)
        # Scenario name in the filename keeps the directory human-navigable;
        # the key suffix is the actual content address.
        return self.root / f"{scenario.name}-{key[:20]}.json"

    # -- read --------------------------------------------------------------
    def load(
        self, scenario: Scenario, params: Mapping[str, object]
    ) -> Optional[Tuple[ScenarioResult, float]]:
        """Cached ``(result, original_host_seconds)`` or ``None`` (miss).

        Any malformed entry — unreadable file, bad JSON, key mismatch,
        unparseable result — is deleted and reported as a miss.
        """
        path = self.entry_path(scenario, params)
        if not path.exists():
            self.telemetry.misses += 1
            return None
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            if envelope.get("key") != cache_key(scenario, params):
                raise ValueError("cache key mismatch")
            result = ScenarioResult.from_dict(envelope["result"])
            host_seconds = float(envelope.get("host_seconds", 0.0))
        except Exception:  # repro: noqa LINT007 (any corruption flavour means miss)
            # Corrupted entry: drop it so the next run regenerates cleanly.
            try:
                path.unlink()
            except OSError:
                pass
            self.telemetry.invalidated += 1
            self.telemetry.misses += 1
            return None
        self.telemetry.hits += 1
        return result, host_seconds

    # -- write -------------------------------------------------------------
    def store(
        self,
        scenario: Scenario,
        params: Mapping[str, object],
        result: ScenarioResult,
        host_seconds: float,
    ) -> Path:
        """Persist one result.  Concurrent same-key writers are safe: each
        writes its own temp file, and the last rename wins."""
        ensure_dir(self.root)
        path = self.entry_path(scenario, params)
        envelope = {
            "key": cache_key(scenario, params),
            "scenario": scenario.name,
            "params": json.loads(canonical_params(params)),
            "key_components": key_components(scenario, params),
            "repro_version": __version__,
            "host_seconds": host_seconds,
            "result": result.to_dict(),
        }
        text = json.dumps(envelope, indent=2, sort_keys=True)
        write_atomically(path, lambda handle: handle.write(text.encode("utf-8")))
        self.telemetry.stores += 1
        return path

    # -- explain -----------------------------------------------------------
    def explain(self, scenario: Scenario, params: Mapping[str, object]) -> List[str]:
        """Attribute a miss: diff the current key components against every
        stored entry for this scenario (``repro sweep --explain``)."""
        current = key_components(scenario, params)
        entries = sorted(self.root.glob(f"{scenario.name}-*.json")) if self.root.exists() else []
        if not entries:
            return ["no cached entry (cold cache for this scenario)"]
        lines: List[str] = []
        for path in entries:
            try:
                envelope = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                lines.append(f"{path.name}: unreadable entry")
                continue
            stored = envelope.get("key_components")
            if not isinstance(stored, dict):
                lines.append(f"{path.name}: entry predates key_components (re-stored on next run)")
                continue
            changed = [
                key
                for key in sorted(set(stored) | set(current))
                if stored.get(key) != current.get(key)
            ]
            if not changed:
                lines.append(f"{path.name}: key components identical (this entry hits)")
                continue
            for key in changed:
                lines.append(
                    f"{path.name}: {key} changed "
                    f"({_summarize(stored.get(key))} -> {_summarize(current.get(key))})"
                )
        return lines

    # -- maintenance -------------------------------------------------------
    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        if not self.root.exists():
            return 0
        removed = 0
        for entry in self.root.glob("*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed
