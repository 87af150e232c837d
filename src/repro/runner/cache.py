"""Content-hash result caching for simulation cells.

A cell is a pure function of its keyword arguments plus the code that
implements it, so its result can be cached under

    sha256(fn path + canonical-JSON kwargs + source fingerprint)

in ``results/.cache/<key>.json``.  The fingerprint covers every
``*.py`` file in the ``repro`` package: any code change invalidates
the whole cache, which keeps cached tables byte-identical to freshly
computed ones without tracking fine-grained dependencies.

The cache is also how an interrupted sweep resumes: every finished
cell is stored atomically as it completes, so running the same command
again computes only what is missing, and because the key carries the
code fingerprint it never mixes results of two versions of the code.

:mod:`repro.runtime` says whether ``execute`` uses the cache (``cache``)
and where it lives (``results_dir``, beside the benchmark tables).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Tuple

from repro import runtime

#: sentinel distinguishing "no cached value" from a cached ``None``
MISS = object()

_fingerprint: Optional[str] = None


def results_dir() -> Path:
    """Directory where benchmarks drop their regenerated tables."""
    root = Path(runtime.current().results_dir)
    root.mkdir(parents=True, exist_ok=True)
    return root


def cache_dir() -> Path:
    """Directory holding cached cell results."""
    path = results_dir() / ".cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


def code_fingerprint() -> str:
    """Hash of every ``repro/*.py`` source file, computed once per process."""
    global _fingerprint
    if _fingerprint is None:
        import repro

        digest = hashlib.sha256()
        package_root = Path(repro.__file__).parent
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _fingerprint = digest.hexdigest()
    return _fingerprint


def cell_key(fn: str, kwargs: Mapping[str, Any]) -> str:
    """Cache key for one cell: fn path + kwargs + code fingerprint."""
    payload = json.dumps(
        {"fn": fn, "kwargs": kwargs, "code": code_fingerprint()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def load(fn: str, kwargs: Mapping[str, Any]) -> Any:
    """The cached result for a cell, or :data:`MISS`."""
    path = cache_dir() / f"{cell_key(fn, kwargs)}.json"
    if not path.exists():
        return MISS
    try:
        return json.loads(path.read_text())["result"]
    except (json.JSONDecodeError, KeyError, TypeError):
        # not JSON, or JSON but not an entry object (null, [1], "x")
        warnings.warn(f"discarding corrupt cache entry {path.name}", stacklevel=2)
        return MISS  # corrupt or half-written entry: recompute
    except OSError:
        return MISS  # vanished or unreadable: recompute


def entries() -> Iterator[Tuple[str, Any, Any]]:
    """``(fn, kwargs, result)`` of every cell stored in :func:`cache_dir`."""
    for path in sorted(cache_dir().glob("*.json")):
        entry = json.loads(path.read_text())
        yield entry["fn"], entry["kwargs"], entry["result"]


def store(fn: str, kwargs: Mapping[str, Any], result: Any) -> Optional[Path]:
    """Persist one cell's result atomically; returns the path written.

    The cache is an optimization, never a correctness dependency: a
    result that cannot be serialized or written is computed-but-not
    -cached — one warning, ``None`` returned, and the run goes on.
    """
    path = cache_dir() / f"{cell_key(fn, kwargs)}.json"
    try:
        payload = json.dumps({"fn": fn, "kwargs": kwargs, "result": result})
    except (TypeError, ValueError) as exc:
        warnings.warn(f"cache store skipped for {fn}: {exc}", stacklevel=2)
        return None
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        warnings.warn(f"cache store failed for {fn}: {exc}", stacklevel=2)
        return None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return path
