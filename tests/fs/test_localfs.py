"""Local file system: read/write paths, caching, read-ahead, flush."""

import pytest

from repro.devices.ramdisk import RamDisk
from repro.errors import FileSystemError
from repro.fs.cache import PageCache
from repro.fs.localfs import LocalFileSystem, _coalesce_pages
from repro.util.units import KiB, MiB


def make_fs(engine, *, cache_pages=64, policy="write-through",
            readahead_pages=0, max_extent=0):
    device = RamDisk(engine, capacity_bytes=64 * MiB)
    cache = PageCache(cache_pages, policy=policy) if cache_pages else None
    return LocalFileSystem(engine, device, page_cache=cache,
                           readahead_pages=readahead_pages,
                           max_extent=max_extent), device


def run_io(engine, completion):
    engine.run()
    return completion.result()


class TestNamespace:
    def test_create_and_size(self, engine):
        fs, _dev = make_fs(engine)
        fs.create("f", 1 * MiB)
        assert fs.exists("f")
        assert fs.size_of("f") == 1 * MiB

    def test_duplicate_create_rejected(self, engine):
        fs, _dev = make_fs(engine)
        fs.create("f", 1024)
        with pytest.raises(FileSystemError):
            fs.create("f", 1024)

    def test_unknown_file_rejected(self, engine):
        fs, _dev = make_fs(engine)
        with pytest.raises(FileSystemError):
            fs.read("ghost", 0, 10)

    def test_bad_size_rejected(self, engine):
        fs, _dev = make_fs(engine)
        with pytest.raises(FileSystemError):
            fs.create("f", 0)


class TestReadPath:
    def test_cold_read_hits_device(self, engine):
        fs, device = make_fs(engine)
        fs.create("f", 1 * MiB)
        result = run_io(engine, fs.read("f", 0, 64 * KiB))
        assert result.success
        assert result.device_bytes == 64 * KiB
        assert device.stats.bytes_read == 64 * KiB
        assert result.cache_miss_pages == 16

    def test_warm_read_skips_device(self, engine):
        fs, device = make_fs(engine)
        fs.create("f", 1 * MiB)
        run_io(engine, fs.read("f", 0, 64 * KiB))
        before = device.stats.bytes_read
        result = run_io(engine, fs.read("f", 0, 64 * KiB))
        assert device.stats.bytes_read == before
        assert result.device_bytes == 0
        assert result.cache_hit_pages == 16

    def test_partial_overlap_fetches_only_missing(self, engine):
        fs, device = make_fs(engine)
        fs.create("f", 1 * MiB)
        run_io(engine, fs.read("f", 0, 32 * KiB))   # pages 0-7
        run_io(engine, fs.read("f", 0, 64 * KiB))   # pages 0-15
        assert device.stats.bytes_read == 64 * KiB  # 8 new pages only

    def test_unaligned_read_rounds_to_pages(self, engine):
        fs, device = make_fs(engine)
        fs.create("f", 1 * MiB)
        result = run_io(engine, fs.read("f", 100, 200))
        assert result.device_bytes == 4096  # one whole page

    def test_no_cache_reads_exact_bytes(self, engine):
        fs, device = make_fs(engine, cache_pages=0)
        fs.create("f", 1 * MiB)
        result = run_io(engine, fs.read("f", 100, 200))
        assert result.device_bytes == 200
        assert device.stats.bytes_read == 200

    def test_out_of_range_read_rejected(self, engine):
        fs, _dev = make_fs(engine)
        fs.create("f", 1024)
        with pytest.raises(FileSystemError):
            fs.read("f", 1000, 100)

    def test_fragmented_file_reads_all_extents(self, engine):
        fs, device = make_fs(engine, cache_pages=0, max_extent=4096)
        fs.create("f", 64 * KiB)
        result = run_io(engine, fs.read("f", 0, 64 * KiB))
        assert result.device_bytes == 64 * KiB
        assert device.stats.device_reads if hasattr(device.stats, "device_reads") else True

    def test_read_amplification_stat(self, engine):
        fs, _dev = make_fs(engine)
        fs.create("f", 1 * MiB)
        run_io(engine, fs.read("f", 100, 200))
        assert fs.stats.read_amplification == pytest.approx(4096 / 200)

    def test_error_inside_a_read_reaches_its_waiter(self, engine,
                                                    monkeypatch):
        # A read hands back its own process, so an exception raised
        # while it is served fails the process that waits on the read.
        fs, _dev = make_fs(engine)
        fs.create("f", 1 * MiB)

        def broken_issue(op, extents):
            raise RuntimeError("device queue corrupted")
            yield  # pragma: no cover

        monkeypatch.setattr(fs, "_issue", broken_issue)

        def reader(eng):
            return (yield fs.read("f", 0, 4096))
        process = engine.spawn(reader(engine))
        engine.run()
        with pytest.raises(RuntimeError, match="device queue corrupted"):
            process.result()


class TestReadAhead:
    def test_readahead_fetches_extra_pages(self, engine):
        fs, device = make_fs(engine, readahead_pages=4)
        fs.create("f", 1 * MiB)
        run_io(engine, fs.read("f", 0, 4096))
        assert device.stats.bytes_read == 5 * 4096

    def test_readahead_hit_after_sequential(self, engine):
        fs, device = make_fs(engine, readahead_pages=4)
        fs.create("f", 1 * MiB)
        run_io(engine, fs.read("f", 0, 4096))
        before = device.stats.bytes_read
        result = run_io(engine, fs.read("f", 4096, 4096))
        assert device.stats.bytes_read == before  # served by read-ahead
        assert result.device_bytes == 0

    def test_readahead_clamped_at_eof(self, engine):
        fs, device = make_fs(engine, readahead_pages=100)
        fs.create("f", 8192)
        run_io(engine, fs.read("f", 0, 4096))
        assert device.stats.bytes_read == 8192  # file only has 2 pages


class TestWritePath:
    def test_write_through_writes_device(self, engine):
        fs, device = make_fs(engine, policy="write-through")
        fs.create("f", 1 * MiB)
        result = run_io(engine, fs.write("f", 0, 64 * KiB))
        assert device.stats.bytes_written == 64 * KiB
        assert result.device_bytes == 64 * KiB

    def test_write_back_defers_device(self, engine):
        fs, device = make_fs(engine, policy="write-back")
        fs.create("f", 1 * MiB)
        run_io(engine, fs.write("f", 0, 64 * KiB))
        assert device.stats.bytes_written == 0

    def test_flush_writes_dirty_pages(self, engine):
        fs, device = make_fs(engine, policy="write-back")
        fs.create("f", 1 * MiB)
        run_io(engine, fs.write("f", 0, 8192))
        flushed = run_io(engine, fs.flush())
        assert flushed == 2
        assert device.stats.bytes_written == 8192

    def test_write_then_read_hits_cache(self, engine):
        fs, device = make_fs(engine, policy="write-through")
        fs.create("f", 1 * MiB)
        run_io(engine, fs.write("f", 0, 8192))
        result = run_io(engine, fs.read("f", 0, 8192))
        assert result.device_bytes == 0  # read-after-write coherence

    def test_writeback_eviction_reaches_device(self, engine):
        fs, device = make_fs(engine, cache_pages=2, policy="write-back")
        fs.create("f", 1 * MiB)
        run_io(engine, fs.write("f", 0, 8192))        # 2 dirty pages
        run_io(engine, fs.read("f", 16384, 8192))     # evicts both
        engine.run()
        assert device.stats.bytes_written == 8192


class TestDropCaches:
    def test_drop_caches_forces_cold_read(self, engine):
        fs, device = make_fs(engine)
        fs.create("f", 1 * MiB)
        run_io(engine, fs.read("f", 0, 64 * KiB))
        fs.drop_caches()
        run_io(engine, fs.read("f", 0, 64 * KiB))
        assert device.stats.bytes_read == 128 * KiB

    def test_drop_caches_without_cache_is_noop(self, engine):
        fs, _dev = make_fs(engine, cache_pages=0)
        assert fs.drop_caches() == 0


class TestReadPathProperties:
    from hypothesis import given, settings, strategies as st

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=255),   # offset (KiB units)
        st.integers(min_value=1, max_value=64)),   # length (KiB units)
        min_size=1, max_size=12),
        st.integers(min_value=0, max_value=64))    # cache pages
    @settings(max_examples=30, deadline=None)
    def test_amplification_bounded_by_page_rounding(self, ranges,
                                                    cache_pages):
        """Device traffic never exceeds the page-rounded request sizes,
        and with no cache it matches the requests exactly."""
        from repro.sim.engine import Engine
        engine = Engine()
        fs, device = make_fs(engine, cache_pages=cache_pages)
        fs.create("f", 1 * MiB)
        total_rounded = 0
        for offset_kib, length_kib in ranges:
            offset = offset_kib * KiB
            length = min(length_kib * KiB, 1 * MiB - offset)
            if length <= 0:
                continue
            run_io(engine, fs.read("f", offset, length))
            first_page = offset // 4096
            last_page = (offset + length - 1) // 4096
            total_rounded += (last_page - first_page + 1) * 4096
        assert device.stats.bytes_read <= total_rounded
        if cache_pages == 0:
            exact = sum(min(l * KiB, 1 * MiB - o * KiB)
                        for o, l in ranges
                        if min(l * KiB, 1 * MiB - o * KiB) > 0)
            assert device.stats.bytes_read == exact

    @given(st.lists(st.integers(min_value=0, max_value=63),
                    min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_second_pass_fully_cached(self, pages):
        """After touching a working set that fits the cache, re-reading
        it moves nothing from the device."""
        from repro.sim.engine import Engine
        engine = Engine()
        fs, device = make_fs(engine, cache_pages=64)
        fs.create("f", 1 * MiB)
        for page in pages:
            run_io(engine, fs.read("f", page * 4096, 4096))
        before = device.stats.bytes_read
        for page in pages:
            run_io(engine, fs.read("f", page * 4096, 4096))
        assert device.stats.bytes_read == before


class TestCoalesce:
    def test_examples(self):
        assert _coalesce_pages([]) == []
        assert _coalesce_pages([3]) == [(3, 3)]
        assert _coalesce_pages([1, 2, 3, 7, 9, 10]) == \
            [(1, 3), (7, 7), (9, 10)]
