"""Content-addressed, versioned artifact store for analysis results.

The Explorer is interactive: the same programs are re-analyzed over and
over while a user works (paper Ch. 2/4), and many concurrent clients ask
for the same corpus entries.  Every analysis artifact (parallelization
plan, loop profile, dyndep summary, Guru report, slices, simulated
parallel execution) is therefore keyed by a *content address*::

    key = sha256(schema version + program source + program name
                 + inputs + analysis options)

so a cache entry can never be served stale: any change to the workload
source text, its inputs, the analysis options, or the artifact schema
version produces a different key.  Explicit invalidation exists for
operators, but correctness never depends on it.

Storage is two-level: a bounded in-memory LRU in front of a JSON-file
tree on disk (``<root>/<key[:2]>/<key>.json``).  Disk entries are written
atomically (tmp + ``os.replace``); a truncated or corrupt file is treated
as a miss and quarantined (unlinked) rather than crashing the service.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from .metrics import NULL_METRICS, ServiceMetrics

#: A claim whose owner pid cannot be shown dead is still broken after
#: this many seconds — covers pid recycling and wedged owners.
CLAIM_TTL_S = 600.0
#: An empty/unparseable claim younger than this is assumed to be a
#: just-created file whose owner has not finished writing it yet.
CLAIM_GRACE_S = 5.0

#: Bump whenever the artifact payload layout changes — old cache entries
#: then miss (different key) instead of being misread.
#: v2: demand-driven slicing (``slices`` populated on request instead of
#: precomputed per Guru target) + the ``proc/`` per-procedure namespace.
#: v3: full jobs honour ``use_reductions`` / ``liveness_variant`` (v2
#: planned them with the defaults yet recorded the option).
SCHEMA_VERSION = 3


def canonical_json(obj) -> str:
    """The byte-stable encoding used both for hashing and for the
    batch-vs-sequential bit-identity checks."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def artifact_key(source: str, program_name: str, inputs, options: Dict,
                 schema_version: int = SCHEMA_VERSION) -> str:
    """Content address of one analysis request."""
    payload = canonical_json({
        "schema": schema_version,
        "source": source,
        "program": program_name,
        "inputs": [float(x) for x in inputs],
        "options": options,
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ArtifactStore:
    """Two-level (memory LRU + disk JSON) content-addressed store."""

    def __init__(self, root: Optional[str] = None, *,
                 memory_capacity: int = 128,
                 metrics: ServiceMetrics = NULL_METRICS):
        self.root = Path(root) if root is not None else None
        self.memory_capacity = max(0, memory_capacity)
        self.metrics = metrics
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, Dict]" = OrderedDict()
        #: Per-key write-version counters (guarded by ``_lock``).  Disk
        #: reads happen outside the lock; the version lets ``get`` detect
        #: that a concurrent ``put``/``invalidate``/``corrupt_on_disk``
        #: touched the key mid-read, so a stale snapshot never overwrites
        #: the fresher entry in the memory LRU.
        self._versions: Dict[str, int] = {}
        self._tmp_seq = 0
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    # -- paths -------------------------------------------------------------
    def _path(self, key: str) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / key[:2] / f"{key}.json"

    # -- core API ----------------------------------------------------------
    def get(self, key: str) -> Optional[Dict]:
        """The stored artifact for ``key``, or None on miss/corruption."""
        with self._lock:
            hit = self._memory.get(key)
            if hit is not None:
                self._memory.move_to_end(key)
                self.metrics.incr("cache_hits")
                self.metrics.incr("cache_hits_memory")
                return hit
            version = self._versions.get(key, 0)
        artifact = self._read_disk(key)
        if artifact is None:
            self.metrics.incr("cache_misses")
            return None
        with self._lock:
            # Fill the LRU only if no writer touched the key while the
            # disk read ran lock-free; a concurrent put (e.g. rewriting a
            # quarantined entry) must not be shadowed by our stale bytes.
            # The fresher value is already (or about to be) in memory.
            if self._versions.get(key, 0) == version:
                self._remember(key, artifact)
            else:
                artifact = self._memory.get(key, artifact)
        self.metrics.incr("cache_hits")
        self.metrics.incr("cache_hits_disk")
        return artifact

    def put(self, key: str, artifact: Dict) -> None:
        path = self._path(key)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            with self._lock:
                self._tmp_seq += 1
                seq = self._tmp_seq
            # Unique tmp name per write: two concurrent puts of the same
            # key must not interleave bytes into one shared tmp file.
            tmp = path.with_suffix(f".{os.getpid()}.{seq}.tmp")
            envelope = {"key": key, "schema": SCHEMA_VERSION,
                        "artifact": artifact}
            tmp.write_text(canonical_json(envelope))
            os.replace(tmp, path)
        with self._lock:
            self._versions[key] = self._versions.get(key, 0) + 1
            self._remember(key, artifact)
        self.metrics.incr("cache_stores")

    def invalidate(self, key: str) -> bool:
        """Drop one entry from both levels; True if anything was dropped."""
        dropped = False
        with self._lock:
            self._versions[key] = self._versions.get(key, 0) + 1
            if self._memory.pop(key, None) is not None:
                dropped = True
        path = self._path(key)
        if path is not None and path.exists():
            path.unlink()
            dropped = True
        if dropped:
            self.metrics.incr("cache_invalidations")
        return dropped

    def clear(self) -> None:
        with self._lock:
            for key in self._memory:
                self._versions[key] = self._versions.get(key, 0) + 1
            self._memory.clear()
        if self.root is not None:
            for path in self.root.glob("*/*.json"):
                path.unlink()

    def clear_memory(self) -> None:
        """Drop the LRU only (used by tests to force disk reads)."""
        with self._lock:
            self._memory.clear()

    def corrupt_on_disk(self, key: str) -> bool:
        """Fault-injection hook: overwrite the on-disk entry with
        truncated JSON and drop it from the memory LRU, so the next read
        exercises the quarantine-and-recompute path.  True if a disk
        entry existed to corrupt."""
        with self._lock:
            self._versions[key] = self._versions.get(key, 0) + 1
            self._memory.pop(key, None)
        path = self._path(key)
        if path is None or not path.exists():
            return False
        path.write_text('{"key": "corrupt', encoding="utf-8")
        self.metrics.incr("faults_corrupted")
        return True

    # -- cross-process single-flight claims --------------------------------
    # A *claim* is an O_CREAT|O_EXCL lock file next to the artifact
    # (``<root>/<key[:2]>/<key>.claim``) that marks one OS process as the
    # computer of that key.  Two server processes sharing a cache dir use
    # it so a key is computed exactly once: the loser polls the store
    # until the winner ``put``s the artifact and releases the claim.
    # Claims from dead pids (or older than CLAIM_TTL_S) are *broken*:
    # quarantined by rename — never trusted, never served — and the
    # breaker takes over the computation.

    def _claim_path(self, key: str) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / key[:2] / f"{key}.claim"

    def claim(self, key: str) -> bool:
        """Try to acquire the compute claim for ``key``.

        True: this process now owns the claim and must compute the
        artifact, then ``put`` it and ``release`` the claim (in that
        order).  False: another *live* process holds the claim — poll
        :meth:`get` until the artifact appears or the claim goes stale.
        Memory-only stores have no shared tree to protect, so the claim
        trivially succeeds."""
        path = self._claim_path(key)
        if path is None:
            return True
        path.parent.mkdir(parents=True, exist_ok=True)
        for _ in range(4):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                info = self._read_claim(path)
                stale = self._claim_is_stale(path, info)
                if stale is None:       # vanished: owner released mid-probe
                    continue
                if not stale:
                    return False
                if self._quarantine_claim(path):
                    continue            # broken: retry the acquire
                return False            # someone else broke+reacquired first
            with os.fdopen(fd, "w") as fh:
                fh.write(canonical_json({
                    "pid": os.getpid(),
                    "acquired_at": time.time(),
                }))
            self.metrics.incr("claims_acquired")
            return True
        return False

    def release(self, key: str) -> None:
        """Drop this process's claim on ``key``.  A claim that was broken
        (quarantined) by another process is not ours any more and is left
        alone."""
        path = self._claim_path(key)
        if path is None:
            return
        info = self._read_claim(path)
        if info is not None and info.get("pid") not in (None, os.getpid()):
            return
        try:
            path.unlink()
        except OSError:
            pass

    def claim_info(self, key: str) -> Optional[Dict]:
        """The live claim record for ``key`` ({"pid", "acquired_at"}), or
        None when unclaimed/unreadable."""
        path = self._claim_path(key)
        if path is None:
            return None
        return self._read_claim(path)

    @staticmethod
    def _read_claim(path: Path) -> Optional[Dict]:
        try:
            info = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return info if isinstance(info, dict) else None

    def _claim_is_stale(self, path: Path,
                        info: Optional[Dict]) -> Optional[bool]:
        """True = break it, False = live, None = claim file vanished."""
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return None
        pid = info.get("pid") if info else None
        if not isinstance(pid, int):
            # partial write in progress, or garbage: give the owner a
            # grace window to finish writing, then treat as abandoned
            return age > CLAIM_GRACE_S
        if pid == os.getpid():
            return False        # another thread of this process: live
        if age > CLAIM_TTL_S:
            return True
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True         # owner died mid-compute
        except PermissionError:
            pass                # exists but not ours to signal: live
        except OSError:
            pass
        return False

    def _quarantine_claim(self, path: Path) -> bool:
        """Atomically move a stale claim aside (never unlink-in-place:
        the rename loses any race with a concurrent breaker exactly
        once, so two breakers cannot both think they freed the slot)."""
        with self._lock:
            self._tmp_seq += 1
            seq = self._tmp_seq
        target = path.with_suffix(f".claim.stale.{os.getpid()}.{seq}")
        try:
            os.rename(path, target)
        except OSError:
            return False
        self.metrics.incr("claims_stale_broken")
        return True

    # -- introspection -----------------------------------------------------
    def keys(self) -> List[str]:
        seen = set()
        with self._lock:
            seen.update(self._memory)
        if self.root is not None:
            for path in self.root.glob("*/*.json"):
                seen.add(path.stem)
        return sorted(seen)

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        path = self._path(key)
        return path is not None and path.exists()

    def stats(self) -> Dict:
        with self._lock:
            in_memory = len(self._memory)
        on_disk = 0
        if self.root is not None:
            on_disk = sum(1 for _ in self.root.glob("*/*.json"))
        return {"memory_entries": in_memory,
                "memory_capacity": self.memory_capacity,
                "disk_entries": on_disk,
                "root": str(self.root) if self.root else None}

    # -- internals ---------------------------------------------------------
    def _remember(self, key: str, artifact: Dict) -> None:
        """Insert into the LRU (lock held by the caller)."""
        if self.memory_capacity <= 0:
            return
        self._memory[key] = artifact
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_capacity:
            self._memory.popitem(last=False)
            self.metrics.incr("cache_evictions")

    def _read_disk(self, key: str) -> Optional[Dict]:
        path = self._path(key)
        if path is None or not path.exists():
            return None
        try:
            envelope = json.loads(path.read_text())
            if envelope.get("schema") != SCHEMA_VERSION or \
                    envelope.get("key") != key:
                raise ValueError("schema/key mismatch")
            return envelope["artifact"]
        except (OSError, ValueError, KeyError, TypeError):
            # Truncated write, bit rot, or foreign layout: quarantine the
            # file and recompute instead of crashing the service.
            try:
                path.unlink()
            except OSError:
                pass
            self.metrics.incr("cache_corrupt")
            return None
