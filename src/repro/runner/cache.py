"""Content-addressed on-disk result cache.

A point's cache key is the SHA-256 of a canonical-JSON document
covering everything that determines its result:

* the sweep name and the per-point seed,
* the point config, canonicalized (dict order never matters, integral
  floats collapse to ints, tuples to lists — so a config that
  round-trips through JSON or ``dataclasses.asdict`` keys identically),
* a *code fingerprint* (:func:`code_fingerprint`): the hash of every
  ``.py`` file of the ``repro`` package, the raw value of every
  ``REPRO_*`` variable in :data:`repro.sim.envcfg.ENV_VARS`, and the
  sweep's extra ``fingerprint_paths``,
* whether the point ran under trace capture (traced and untraced
  results live in separate namespaces).

Entries are JSON files under ``.repro-cache/<k[:2]>/<key>.json``,
written atomically so concurrent workers never serve torn entries.
Because keys are content-addressed there is no invalidation protocol:
editing any simulator module, or running under a different
``REPRO_NOC_BATCH``, simply makes the points miss.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "cache_key",
    "canonical_json",
    "canonical_value",
    "code_fingerprint",
    "file_fingerprint",
]

CACHE_VERSION = 1
DEFAULT_CACHE_DIR = ".repro-cache"
#: the ``repro`` package directory, whose sources every key covers
PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def canonical_value(obj: Any) -> Any:
    """JSON-safe canonical form: equal configs => equal documents.

    bools stay bools (``True`` is not ``1``); integral floats collapse
    to ints (``1.0`` keys like ``1``); tuples/lists both become lists;
    sets are sorted; dataclasses become plain field dicts; dict keys
    are stringified (ordering is handled by ``sort_keys`` at dump
    time).
    """
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, float):
        if math.isfinite(obj) and obj.is_integer():
            return int(obj)
        return obj
    if isinstance(obj, int):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonical_value(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): canonical_value(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [canonical_value(v) for v in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [canonical_value(v) for v in obj]
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for a "
                    f"cache key: {obj!r}")


def canonical_json(obj: Any) -> str:
    return json.dumps(canonical_value(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def file_fingerprint(paths: Iterable[str]) -> str:
    """SHA-256 over the names and contents of ``paths`` (in order)."""
    h = hashlib.sha256()
    for path in paths:
        p = Path(path)
        h.update(p.name.encode())
        h.update(b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def code_fingerprint(extra_paths: Iterable[str] = ()) -> str:
    """Everything besides the point config that determines a result:
    every ``.py`` file under :data:`PACKAGE_ROOT`, ``extra_paths``, and
    the raw value of every ``REPRO_*`` variable."""
    from repro.sim import envcfg

    sources = sorted(str(p) for p in PACKAGE_ROOT.rglob("*.py"))
    env = {name: envcfg.raw(name) for name in envcfg.ENV_VARS}
    return hashlib.sha256(canonical_json({
        "files": file_fingerprint([*sources, *extra_paths]),
        "env": env,
    }).encode()).hexdigest()


def cache_key(spec, code: str, trace: bool = False) -> str:
    """The content address of one point's result; ``code`` is its
    :func:`code_fingerprint`."""
    payload = {
        "version": CACHE_VERSION,
        "sweep": spec.sweep,
        "seed": spec.seed,
        "config": canonical_value(spec.config),
        "code": code,
        "trace": bool(trace),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


class ResultCache:
    """Keyed JSON entries on disk, with hit/miss counters.

    ``refresh=True`` makes every lookup miss (forcing re-simulation)
    while still writing fresh entries — the ``--refresh-cache`` flag.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR,
                 refresh: bool = False):
        self.root = Path(root)
        self.refresh = refresh
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The entry for ``key``, or None (a miss).

        A missing file is a plain miss.  A file that exists but cannot
        be parsed — truncated by a crash or a full disk, garbled by
        manual editing — is *also* a miss, with a warning on stderr: the
        point silently re-simulates instead of aborting the sweep, and
        the eventual ``put`` overwrites the bad entry.  An entry missing
        the ``value`` field counts as corrupt too (schema guard)."""
        if not self.refresh:
            path = self._path(key)
            try:
                with open(path) as fh:
                    entry = json.load(fh)
            except FileNotFoundError:
                pass
            except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
                self.corrupt += 1
                print(f"warning: unreadable cache entry {path}: {exc}; "
                      f"re-simulating", file=sys.stderr)
            else:
                if isinstance(entry, dict) and "value" in entry:
                    self.hits += 1
                    return entry
                self.corrupt += 1
                print(f"warning: malformed cache entry {path} (no 'value' "
                      f"field); re-simulating", file=sys.stderr)
        self.misses += 1
        return None

    def put(self, key: str, entry: Dict[str, Any]) -> Path:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with open(tmp, "w") as fh:
            # unsorted: a served value keeps the key order the point
            # function built, so warm and cold runs serialize alike
            json.dump(entry, fh)
            fh.write("\n")
        tmp.replace(path)       # atomic: readers see whole entries only
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultCache({self.root}, hits={self.hits}, "
                f"misses={self.misses})")
