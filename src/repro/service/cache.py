"""Warm-start cache: serialized Pareto plan sets keyed by query signature.

The MPQ workflow (Figure 2 of the paper) already splits optimization from
run-time selection; a long-running service takes the next step and reuses
*whole optimization outcomes* across queries.  The cache stores the JSON
documents produced by :mod:`repro.core.serialize` in memory, bounded by
an LRU policy, optionally over a :class:`repro.store.PlanSetStore` so
warm state survives process restarts (and can be shared between worker
fleets and gateway shards).

Since the anytime redesign every entry carries an **alpha tag**: the
approximation rung the producing run achieved (``0`` for exact results,
the rung's alpha for plan sets an interrupted precision-ladder run left
behind).  Lookups state the loosest guarantee they accept
(``get(signature, max_alpha=...)``), so a partial anytime result can
never masquerade as an exact one, and a coarser entry never overwrites a
tighter one.
"""

from __future__ import annotations

import threading

from ..core import StoredPlanSet, decode_plan_set
from ..util import BoundedLRU


class WarmStartCache:
    """Bounded LRU cache of serialized plan-set documents.

    In-memory accesses are lock-protected: an optimizer session's pool
    feeds late (post-deadline) results into the cache from its executor
    callback thread while the main thread keeps reading it.

    Args:
        maxsize: Maximum number of in-memory entries (LRU eviction);
            ``0`` disables the in-memory tier (the store, when
            configured, still works).
        store: Optional :class:`repro.store.PlanSetStore` acting as the
            persistent tier under memory: misses consult it, puts write
            through to it (the store applies the same
            coarser-never-overwrites-tighter rule), and one store can be
            shared by many caches (e.g. gateway shards).  The cache does
            not own the store's lifecycle — whoever created it closes it.
    """

    def __init__(self, maxsize: int = 128, store=None) -> None:
        self.maxsize = maxsize
        self.store = store
        self._data = BoundedLRU(maxsize)  # signature -> (doc, alpha)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get_entry(self, signature: str) -> tuple[dict, float] | None:
        """Return ``(document, alpha)`` for a cached entry, or ``None``.

        ``alpha`` is the approximation tag of the stored plan set: the
        rung the producing run reached (``0`` for exact results).
        """
        with self._lock:
            entry = self._data.get(signature)
            if entry is not None:
                self.hits += 1
                return entry
        entry = self._store_entry(signature)
        with self._lock:
            if entry is None:
                self.misses += 1
            else:
                self._data.put(signature, entry)
                self.hits += 1
        return entry

    def _store_entry(self, signature: str,
                     max_alpha: float | None = None
                     ) -> tuple[dict, float] | None:
        """Read ``(doc, alpha)`` from the persistent store tier, if any.

        Store errors (a closed or concurrently rebuilt store) count as
        misses — the query is re-optimized rather than failing.
        """
        if self.store is None:
            return None
        try:
            doc = self.store.get(signature, max_alpha=max_alpha)
        except Exception:  # reprolint: disable=REP601
            return None  # store unavailable: counts as a miss
        if doc is None:
            return None
        return doc, float(doc.get("alpha", 0.0))

    def get(self, signature: str,
            max_alpha: float | None = None) -> dict | None:
        """Return the cached plan-set document, or ``None`` on a miss.

        Args:
            signature: Cache key.
            max_alpha: Only accept entries whose approximation tag is at
                most this loose — an entry produced by an interrupted
                anytime run (rung alpha above the caller's target) then
                counts as a miss instead of silently serving a coarser
                guarantee.  ``None`` accepts any tag (the pre-anytime
                behavior, when every entry was exact for its signature).
                When the in-memory entry is too coarse, the store is
                still consulted — another cache sharing it may have
                written a tighter one.
        """
        entry = self.get_entry(signature)
        if entry is None:
            return None
        doc, alpha = entry
        if max_alpha is not None and alpha > max_alpha + 1e-12:
            # Too coarse in memory; a tighter entry may live in the
            # store (written by another process/shard).
            tighter = self._store_entry(signature, max_alpha=max_alpha)
            if tighter is not None:
                with self._lock:
                    self._data.put(signature, tighter)
                return tighter[0]
            with self._lock:
                self.hits -= 1  # reclassify: tag too coarse is a miss
                self.misses += 1
            return None
        return doc

    def load(self, signature: str) -> StoredPlanSet | None:
        """Like :meth:`get`, but decoded into a :class:`StoredPlanSet`.

        Returns ``None`` for undecodable documents as well as misses.
        """
        doc = self.get(signature)
        if doc is None:
            return None
        try:
            return decode_plan_set(doc)
        except Exception:  # reprolint: disable=REP601
            return None  # undecodable document counts as a miss

    def put(self, signature: str, doc: dict,
            alpha: float = 0.0) -> None:
        """Insert a plan-set document, writing it through to the store.

        ``alpha`` tags the entry with the guarantee rung the producing
        run achieved (``0`` = exact).  A coarser entry never overwrites
        a tighter one under the same signature — an interrupted anytime
        run cannot degrade a previously cached exact result.
        """
        alpha = float(alpha)
        if self.store is not None:
            # Write-through to the persistent store tier; the store
            # applies the coarser-never-overwrites-tighter rule itself
            # and joins family metadata registered at miss time.  The
            # stored document must carry the tag it is cached under.
            store_doc = doc
            if abs(float(doc.get("alpha", 0.0)) - alpha) > 1e-12:
                store_doc = dict(doc, alpha=alpha)
            try:
                self.store.put(signature, store_doc)
            except Exception:
                # Persistent tier unavailable (disk fault, locked or
                # closed database): absorb — the memory tier still
                # serves — but count it so operators can see the store
                # silently shedding writes.
                self.store.counters.write_faults_absorbed += 1
        with self._lock:
            existing = self._data.get(signature)
            if existing is not None and existing[1] < alpha - 1e-12:
                return  # keep the tighter entry
            self._data.put(signature, (doc, alpha))
