"""Set-associative cache timing model (write-back, write-allocate, LRU).

Matches SimpleScalar's cache module in spirit: the cache decides hit or
miss and tracks dirty state; actual data always lives in main memory.
The paper's simulated configuration (Figure 1) is:

========  ======  =============
il1       8 KB    direct-mapped
dl1       8 KB    direct-mapped
il2       64 KB   2-way
dl2       128 KB  2-way
========  ======  =============
"""


class CacheStats:
    """Counters reported in Table 4 (#accesses, miss rate)."""

    __slots__ = ("accesses", "hits", "misses", "writebacks")

    def __init__(self):
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @property
    def miss_rate(self):
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self):
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def snapshot(self):
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "miss_rate": self.miss_rate,
        }


class Cache:
    """One cache level.

    Sets are dicts ``tag -> dirty_flag`` whose insertion order is the LRU
    order (Python dicts preserve insertion order; re-inserting on access
    moves a tag to MRU position).  This gives true-LRU with O(1) hits.
    """

    def __init__(self, name, size_bytes, assoc, block_bytes):
        if size_bytes % (assoc * block_bytes):
            raise ValueError("cache geometry does not divide evenly")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_bytes = block_bytes
        self.num_sets = size_bytes // (assoc * block_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self._block_shift = block_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        self._sets = [dict() for __ in range(self.num_sets)]
        self.stats = CacheStats()

    def __deepcopy__(self, memo):
        """Hand-rolled clone: the generic machinery walks every resident
        tag of every set, which makes checkpoint capture/restore
        (:mod:`repro.checkpoint`) pay thousands of deepcopy dispatches
        per cache.  Set contents are int->bool, so a plain dict copy per
        set is already a deep copy.  Fields move via getattr/setattr —
        touching ``__dict__`` would materialise it and cost the original
        (and the clone) CPython's inline-values attribute fast path on
        the per-access hot loop."""
        cls = type(self)
        names = cls.__dict__.get("_COPY_FIELDS")
        if names is None:
            names = cls._COPY_FIELDS = tuple(self.__dict__)
        clone = object.__new__(cls)
        memo[id(self)] = clone
        for name in names:
            setattr(clone, name, getattr(self, name))
        clone._sets = [dict(block_set) for block_set in self._sets]
        stats = CacheStats()
        for field in CacheStats.__slots__:
            setattr(stats, field, getattr(self.stats, field))
        clone.stats = stats
        return clone

    # ------------------------------------------------------------ access

    def access(self, addr, is_write=False):
        """Access one block.  Returns ``(hit, writeback_block_addr_or_None)``.

        On a miss the block is allocated (write-allocate); if a dirty
        victim is evicted its block address is returned so the caller can
        charge a writeback transfer.
        """
        block = addr >> self._block_shift
        cache_set = self._sets[block & self._set_mask]
        stats = self.stats
        stats.accesses += 1
        if block in cache_set:
            stats.hits += 1
            dirty = cache_set.pop(block) or is_write
            cache_set[block] = dirty          # move to MRU
            return True, None
        stats.misses += 1
        writeback = None
        if len(cache_set) >= self.assoc:
            victim, dirty = next(iter(cache_set.items()))
            del cache_set[victim]
            if dirty:
                stats.writebacks += 1
                writeback = victim << self._block_shift
        cache_set[block] = is_write
        return False, writeback

    def snapshot(self):
        """This level's section of the machine snapshot document."""
        return self.stats.snapshot()

    def probe(self, addr):
        """Return True when the block containing *addr* is resident.

        Does not touch LRU state or statistics.
        """
        block = addr >> self._block_shift
        return block in self._sets[block & self._set_mask]

    def flush(self):
        """Invalidate every block; returns the number of dirty lines dropped."""
        dirty_lines = 0
        for cache_set in self._sets:
            dirty_lines += sum(1 for dirty in cache_set.values() if dirty)
            cache_set.clear()
        return dirty_lines

    def block_addr(self, addr):
        """Base address of the block containing *addr*."""
        return (addr >> self._block_shift) << self._block_shift

    def __repr__(self):
        return "Cache(%s: %dB, %d-way, %dB blocks)" % (
            self.name, self.size_bytes, self.assoc, self.block_bytes)
