"""Property-based cache invariants."""

from hypothesis import given, settings, strategies as st

from repro.memory import Cache, CacheConfig

addr = st.integers(0, 1 << 20)


class TestCacheProperties:
    @given(st.lists(addr, min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_access_installs(self, addrs):
        """After accessing an address, it is always present."""
        c = Cache(CacheConfig("p", sets=8, ways=2, block_bytes=32))
        for a in addrs:
            c.access(a)
            assert c.contains(a)

    @given(st.lists(addr, min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_stats_conservation(self, addrs):
        """hits + misses == accesses, always."""
        c = Cache(CacheConfig("p", sets=4, ways=4, block_bytes=64))
        for a in addrs:
            c.access(a)
        assert c.stats.hits + c.stats.misses == c.stats.accesses

    @given(st.lists(st.tuples(st.sampled_from(["access", "install",
                                               "probe", "peek"]),
                              st.integers(0, 7), st.booleans()),
                    min_size=10, max_size=150))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_lru(self, ops):
        """The cache agrees with a straightforward ordered-list LRU model:
        hit/miss, the evicted block ``install`` returns, dirty write-backs,
        non-updating probes and re-installs of resident blocks, across
        several sets."""
        sets, ways = 2, 2
        c = Cache(CacheConfig("p", sets=sets, ways=ways, block_bytes=32))
        reference: list[list[int]] = [[] for _ in range(sets)]  # MRU last
        dirty: set[int] = set()
        writebacks = evictions = 0

        def touch(lines, bid, write):
            lines.remove(bid)
            lines.append(bid)
            if write:
                dirty.add(bid)

        for op, bid, write in ops:
            a = bid * 32 + bid % 32          # any byte of block ``bid``
            lines = reference[bid % sets]
            present = bid in lines
            if op == "peek":                 # probe without an LRU update
                assert c.probe(a, is_write=write, update_lru=False) == present
                if present and write:
                    dirty.add(bid)
            elif op == "probe":
                assert c.probe(a, is_write=write) == present
                if present:
                    touch(lines, bid, write)
            elif op == "access" and present:
                assert c.access(a, is_write=write)
                touch(lines, bid, write)
            elif present:                    # install of a resident block
                assert c.install(a, is_write=write) == -1
                touch(lines, bid, write)
            else:                            # fill, evicting the LRU block
                victim = -1
                if len(lines) == ways:
                    victim = lines.pop(0)
                    evictions += 1
                    if victim in dirty:
                        dirty.remove(victim)
                        writebacks += 1
                lines.append(bid)
                if write:
                    dirty.add(bid)
                if op == "access":
                    assert not c.access(a, is_write=write)
                else:
                    assert c.install(a, is_write=write) == victim
            assert c.stats.evictions == evictions
            assert c.stats.writebacks == writebacks
        for b in range(8):
            assert c.contains(b * 32) == (b in reference[b % sets])

    @given(st.lists(addr, min_size=1, max_size=100), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_recent_distinct_blocks_hit(self, addrs, ways):
        """The most recent `ways` distinct blocks of a set all hit."""
        c = Cache(CacheConfig("p", sets=1, ways=ways, block_bytes=32))
        recent: list[int] = []
        for a in addrs:
            c.access(a)
            bid = a >> 5
            if bid in recent:
                recent.remove(bid)
            recent.append(bid)
            recent = recent[-ways:]
        for bid in recent:
            assert c.contains(bid << 5)

    @given(st.lists(addr, min_size=1, max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_bounded(self, addrs):
        c = Cache(CacheConfig("p", sets=4, ways=2, block_bytes=32))
        for a in addrs:
            c.access(a)
        assert 0.0 < c.utilization() <= 1.0
        distinct = len({a >> 5 for a in addrs})
        valid = round(c.utilization() * 8)
        assert valid <= min(8, distinct)
