"""Property-based tests (hypothesis) for core data structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.compress import rice_compress, rice_decompress
from repro.dtu import Perm, Tlb
from repro.kernel.memalloc import OutOfMemory, PhysAllocator, PhysRegion
from repro.services.fsdata import BlockAllocator, FsError
from repro.sim import Channel, Simulator
from repro.sim.stats import Histogram, percentile
from repro.workloads.zipfian import ZipfianGenerator


# --------------------------------------------------------------- zipfian


@given(n=st.integers(1, 500), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_zipfian_stays_in_range(n, seed):
    gen = ZipfianGenerator(n, seed=seed)
    for _ in range(200):
        assert 0 <= gen.next() < n


@given(seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_zipfian_is_skewed_towards_small_keys(seed):
    gen = ZipfianGenerator(100, seed=seed)
    draws = [gen.next() for _ in range(3000)]
    low = sum(1 for d in draws if d < 10)
    # with theta=0.99, the top-10% of keys draw far more than 10% of hits
    assert low > 0.3 * len(draws)


# ---------------------------------------------------------- block allocator


@given(requests=st.lists(st.integers(1, 40), min_size=1, max_size=40),
       max_blocks=st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_block_allocator_never_double_allocates(requests, max_blocks):
    alloc = BlockAllocator(512)
    seen = set()
    extents = []
    for want in requests:
        try:
            extent = alloc.alloc_extent(want, max_blocks)
        except FsError:
            break
        blocks = set(range(extent.start, extent.start + extent.blocks))
        assert not blocks & seen, "block handed out twice"
        assert extent.blocks <= max_blocks
        seen |= blocks
        extents.append(extent)
    assert alloc.used_blocks == len(seen)


@given(requests=st.lists(st.integers(1, 30), min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_block_allocator_free_restores_everything(requests):
    alloc = BlockAllocator(256)
    extents = []
    for want in requests:
        try:
            extents.append(alloc.alloc_extent(want, 64))
        except FsError:
            break
    for extent in extents:
        alloc.free_extent(extent)
    assert alloc.free_blocks == 256


# ----------------------------------------------------------- phys allocator


@given(sizes=st.lists(st.integers(1, 1 << 16), min_size=1, max_size=25))
@settings(max_examples=40, deadline=None)
def test_phys_allocator_regions_never_overlap(sizes):
    alloc = PhysAllocator([PhysRegion(0, 0, 1 << 20)])
    regions = []
    for size in sizes:
        try:
            regions.append(alloc.alloc(size))
        except OutOfMemory:
            break
    regions.sort(key=lambda r: r.base)
    for a, b in zip(regions, regions[1:]):
        assert a.end <= b.base


@given(sizes=st.lists(st.integers(1, 1 << 14), min_size=1, max_size=20))
@settings(max_examples=30, deadline=None)
def test_phys_allocator_free_coalesces_fully(sizes):
    alloc = PhysAllocator([PhysRegion(0, 0, 1 << 20)])
    regions = [alloc.alloc(s) for s in sizes]
    for region in regions:
        alloc.free(region)
    assert alloc.free_bytes == 1 << 20
    # a single full-size allocation must fit again (no fragmentation)
    big = alloc.alloc((1 << 20) - 4096)
    assert big.size >= (1 << 20) - 4096


# ------------------------------------------------------------------- TLB


@given(ops=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 30)),
                    min_size=1, max_size=80),
       capacity=st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_tlb_never_exceeds_capacity_and_hits_are_correct(ops, capacity):
    tlb = Tlb(capacity, 4096)
    model = {}
    for act, vpage in ops:
        tlb.insert(act, vpage, vpage + 1000, Perm.RW)
        model[(act, vpage)] = vpage + 1000
        assert len(tlb) <= capacity
    # whatever is still in the TLB translates exactly as the model says
    for (act, vpage), ppage in model.items():
        got = tlb.lookup(act, vpage * 4096 + 7, Perm.R)
        if got is not None:
            assert got == ppage * 4096 + 7


# ------------------------------------------------------------- rice codec


@given(st.lists(st.integers(-2**15, 2**15 - 1), min_size=1, max_size=300))
@settings(max_examples=30, deadline=None)
def test_rice_codec_is_lossless(samples):
    original = np.array(samples, dtype=np.int16)
    frame = rice_compress(original)
    decoded = rice_decompress(frame)
    assert np.array_equal(decoded, original)


@given(st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_rice_codec_compresses_smooth_audio(seed):
    rng = np.random.default_rng(seed)
    t = np.arange(2048)
    audio = (200 * np.sin(2 * np.pi * t / 100)
             + rng.normal(0, 3, 2048)).astype(np.int16)
    frame = rice_compress(audio)
    assert len(frame) < 2 * len(audio)  # beats raw 16-bit PCM


# ---------------------------------------------------------------- channels


@given(st.lists(st.integers(), min_size=1, max_size=50),
       st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_channel_preserves_fifo_order_under_capacity(items, capacity):
    sim = Simulator()
    ch = Channel(sim, capacity=capacity)
    got = []

    def producer():
        for item in items:
            yield ch.put(item)

    def consumer():
        for _ in items:
            got.append((yield ch.get()))
            yield sim.timeout(1)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == items


# --------------------------------------------------------------- histogram


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
@settings(max_examples=40, deadline=None)
def test_histogram_quantiles_are_monotone_and_bounded(samples):
    hist = Histogram("h")
    for s in samples:
        hist.record(s)
    xs = sorted(hist.samples)
    q25, q50, q75 = (percentile(xs, q) for q in (0.25, 0.5, 0.75))
    assert hist.min <= q25 <= q50 <= q75 <= hist.max


@given(samples=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100),
       qs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10))
@settings(max_examples=40, deadline=None)
def test_histogram_quantile_is_monotone_in_q(samples, qs):
    hist = Histogram("h")
    for s in samples:
        hist.record(s)
    xs = sorted(hist.samples)
    values = [percentile(xs, q) for q in sorted(qs)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert hist.min <= hist.mean <= hist.max
    assert percentile(xs, 0.0) == hist.min
    assert percentile(xs, 1.0) == hist.max
    summary = hist.summary()
    assert hist.min <= summary["p50"] <= summary["p99"] <= hist.max


# ----------------------------------------------------------- TLB (section 3.6)


@given(ops=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 40)),
                    min_size=1, max_size=100),
       capacity=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_tlb_hit_after_fill_and_eviction_is_conservative(ops, capacity):
    """Inserting a translation makes it hit immediately; an insert into
    a full TLB returns exactly the entry it displaced (no silent drops)."""
    tlb = Tlb(capacity, 4096)
    resident = {}
    for act, vpage in ops:
        evicted = tlb.insert(act, vpage, vpage + 7, Perm.RW)
        resident[(act, vpage)] = vpage + 7
        if evicted is not None:
            key = (evicted.act, evicted.virt_page)
            assert key in resident and key != (act, vpage)
            del resident[key]
        # hit-after-fill: the just-inserted page translates
        assert tlb.lookup(act, vpage * 4096, Perm.R) == (vpage + 7) * 4096
        assert len(tlb) == len(resident) <= capacity


@given(vpages=st.lists(st.integers(0, 100), min_size=1, max_size=60,
                       unique=True),
       capacity=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_tlb_evicts_in_lru_order(vpages, capacity):
    """With untouched entries, evictions happen strictly in insertion
    order (LRU == FIFO without intervening lookups)."""
    tlb = Tlb(capacity, 4096)
    evictions = []
    for vpage in vpages:
        evicted = tlb.insert(1, vpage, vpage, Perm.RW)
        if evicted is not None:
            evictions.append(evicted.virt_page)
    assert evictions == vpages[:len(evictions)]


@given(capacity=st.integers(2, 8))
@settings(max_examples=20, deadline=None)
def test_tlb_lookup_refreshes_lru_position(capacity):
    """A lookup protects an entry: filling the TLB past capacity evicts
    the cold entries, never the one just touched."""
    tlb = Tlb(capacity, 4096)
    for vpage in range(capacity):
        tlb.insert(1, vpage, vpage, Perm.RW)
    assert tlb.lookup(1, 0, Perm.R) is not None  # touch page 0
    evicted = tlb.insert(1, capacity, capacity, Perm.RW)
    assert evicted is not None and evicted.virt_page == 1  # page 0 spared
    assert tlb.lookup(1, 0, Perm.R) is not None


@given(st.lists(st.floats(-1e5, 1e5), max_size=5))
@settings(max_examples=30, deadline=None)
def test_histogram_snapshot_never_crashes(samples):
    """Empty histograms report NaN statistics instead of raising."""
    import math

    hist = Histogram("maybe-empty")
    for s in samples:
        hist.record(s)
    if samples:
        assert hist.min <= hist.mean <= hist.max
    else:
        assert math.isnan(hist.mean)
        assert math.isnan(percentile(sorted(hist.samples), 0.5))
