"""Set-associative cache with true-LRU replacement.

Models one level of the paper's hierarchy (Table 2: L1D = 256 sets x 32 B
blocks x 4-way; unified L2 = 1024 sets x 64 B x 4-way; both LRU).

The cache stores only block ids — this repository's timing model never
needs cached *data* (values come from the oracle trace), so a tag store is
exact for hit/miss behaviour while staying fast.  Each set is a plain list
of its resident block ids in recency order, most recent first: a hit is a
membership test plus a move to the front, a fill of a full set evicts the
last element, and no way array, global clock or exception sits on the
miss path.  Dirty blocks are kept in one set per cache.
"""

from __future__ import annotations

from dataclasses import dataclass


def _is_pow2(v: int) -> bool:
    return v > 0 and (v & (v - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    sets: int
    ways: int
    block_bytes: int

    def __post_init__(self) -> None:
        if not _is_pow2(self.sets):
            raise ValueError(f"{self.name}: sets must be a power of two")
        if not _is_pow2(self.block_bytes):
            raise ValueError(f"{self.name}: block size must be a power of two")
        if self.ways < 1:
            raise ValueError(f"{self.name}: ways must be >= 1")

    @property
    def capacity_bytes(self) -> int:
        return self.sets * self.ways * self.block_bytes

    @property
    def block_bits(self) -> int:
        return self.block_bytes.bit_length() - 1

    @property
    def set_mask(self) -> int:
        return self.sets - 1


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def snapshot(self) -> dict:
        return {"accesses": self.accesses, "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions,
                "writebacks": self.writebacks, "miss_rate": self.miss_rate}


class Cache:
    """One cache level.

    ``probe``/``install`` are split so the hierarchy can model non-inclusive
    fills; ``access`` is the common probe-then-fill path.  ``hit``/``fill``
    are the same operations keyed by a block id the caller already holds
    (see :meth:`block_of`).
    """

    __slots__ = ("config", "_block_bits", "_set_mask", "_ways", "_sets",
                 "_dirty", "stats")

    def __init__(self, config: CacheConfig):
        self.config = config
        self._block_bits = config.block_bits
        self._set_mask = config.set_mask
        self._ways = config.ways
        self.reset()

    def block_of(self, addr: int) -> int:
        """Global block id for an address."""
        return addr >> self._block_bits

    def reset(self) -> None:
        #: per set: resident block ids, most recently used first
        self._sets: list[list[int]] = [[] for _ in range(self.config.sets)]
        #: resident blocks written since their fill
        self._dirty: set[int] = set()
        self.stats = CacheStats()

    # -- core operations -----------------------------------------------------

    def hit(self, block: int, is_write: bool = False) -> bool:
        """Counted lookup of ``block``; a hit becomes most recently used."""
        stats = self.stats
        stats.accesses += 1
        lines = self._sets[block & self._set_mask]
        if block in lines:
            stats.hits += 1
            if lines[0] != block:
                lines.remove(block)
                lines.insert(0, block)
            if is_write:
                self._dirty.add(block)
            return True
        stats.misses += 1
        return False

    def fill(self, block: int, is_write: bool = False) -> int:
        """Make ``block`` resident and most recently used, evicting the
        least recently used block of a full set.

        Returns the evicted block id, or -1 when nothing was evicted.
        """
        lines = self._sets[block & self._set_mask]
        if block in lines:               # already present (racing install)
            if lines[0] != block:
                lines.remove(block)
                lines.insert(0, block)
            if is_write:
                self._dirty.add(block)
            return -1
        evicted = -1
        if len(lines) == self._ways:
            evicted = lines.pop()
            stats = self.stats
            stats.evictions += 1
            dirty = self._dirty
            if evicted in dirty:
                dirty.remove(evicted)
                stats.writebacks += 1
        lines.insert(0, block)
        if is_write:
            self._dirty.add(block)
        return evicted

    def probe(self, addr: int, *, is_write: bool = False,
              update_lru: bool = True, count: bool = True) -> bool:
        """Check for presence; touches LRU on hit.  Returns hit/miss."""
        block = addr >> self._block_bits
        if count and update_lru:
            return self.hit(block, is_write)
        lines = self._sets[block & self._set_mask]
        present = block in lines
        if count:
            stats = self.stats
            stats.accesses += 1
            if present:
                stats.hits += 1
            else:
                stats.misses += 1
        if present:
            if update_lru and lines[0] != block:
                lines.remove(block)
                lines.insert(0, block)
            if is_write:
                self._dirty.add(block)
        return present

    def install(self, addr: int, *, is_write: bool = False) -> int:
        """Fill the block at ``addr``; see :meth:`fill`."""
        return self.fill(addr >> self._block_bits, is_write)

    def access(self, addr: int, *, is_write: bool = False) -> bool:
        """Probe and fill on miss.  Returns True on hit."""
        block = addr >> self._block_bits
        if self.hit(block, is_write):
            return True
        self.fill(block, is_write)
        return False

    def contains(self, addr: int) -> bool:
        """Non-destructive presence check (no LRU update, no stats)."""
        block = addr >> self._block_bits
        return block in self._sets[block & self._set_mask]

    def utilization(self) -> float:
        """Fraction of ways currently holding a valid block."""
        valid = sum(len(lines) for lines in self._sets)
        return valid / (self.config.sets * self.config.ways)
