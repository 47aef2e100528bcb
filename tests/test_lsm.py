"""Tests for the LevelDB-like LSM store (run over the Linux baseline,
which is the fastest host for exercising the store's file traffic)."""

from repro.apps.lsm import LsmStore
from repro.linuxsim import LinuxMachine
from repro.posix.vfs import LinuxVfs


def run_store(body, **store_kw):
    machine = LinuxMachine()
    out = {}

    def prog(api):
        store = LsmStore(LinuxVfs(api), api.compute, **store_kw)
        yield from store.open()
        yield from body(store, out)
        yield from store.close()
        out["store"] = store

    proc = machine.spawn("db", prog)
    machine.sim.run_until_event(proc.exit_event, limit=10**16)
    return out


def test_put_get_roundtrip():
    def body(store, out):
        yield from store.put("k1", b"v1")
        out["v"] = yield from store.get("k1")

    assert run_store(body)["v"] == b"v1"


def test_get_missing_returns_none():
    def body(store, out):
        out["v"] = yield from store.get("nope")

    assert run_store(body)["v"] is None


def test_overwrite_returns_latest():
    def body(store, out):
        yield from store.put("k", b"old")
        yield from store.put("k", b"new")
        out["v"] = yield from store.get("k")

    assert run_store(body)["v"] == b"new"


def test_flush_moves_data_to_sstable_and_get_still_works():
    def body(store, out):
        for i in range(60):  # 60 x ~300B blows the 16 KiB memtable
            yield from store.put(f"key{i:03d}", bytes(300))
        out["flushes"] = store.stats["flushes"]
        out["v"] = yield from store.get("key007")
        out["tables"] = len(store.tables)

    out = run_store(body)
    assert out["flushes"] >= 1
    assert out["v"] == bytes(300)
    assert out["tables"] >= 1


def test_model_equivalence_across_flushes():
    """The store must agree with a plain dict across flush/compaction."""
    import random
    rng = random.Random(11)
    keys = [f"k{i:02d}" for i in range(30)]
    ops = [(rng.choice(keys), bytes([rng.randrange(256)]) * rng.randrange(200, 900))
           for _ in range(400)]

    def body(store, out):
        model = {}
        for key, value in ops:
            yield from store.put(key, value)
            model[key] = value
        for key in keys:
            got = yield from store.get(key)
            assert got == model.get(key), key
        out["compactions"] = store.stats["compactions"]

    out = run_store(body)
    assert out["compactions"] >= 1  # enough churn to trigger a compaction


def test_delete_hides_key_even_after_flush():
    def body(store, out):
        yield from store.put("gone", b"x")
        for i in range(60):
            yield from store.put(f"fill{i}", bytes(300))
        yield from store.delete("gone")
        for i in range(60):
            yield from store.put(f"more{i}", bytes(300))
        out["v"] = yield from store.get("gone")

    assert run_store(body)["v"] is None


def test_scan_returns_sorted_range():
    def body(store, out):
        for i in range(40):
            yield from store.put(f"k{i:03d}", f"v{i}".encode())
        out["scan"] = yield from store.scan("k010", 5)

    scan = run_store(body)["scan"]
    assert [k for k, _ in scan] == [f"k{i:03d}" for i in range(10, 15)]
    assert scan[0][1] == b"v10"


def test_scan_merges_memtable_and_tables():
    def body(store, out):
        for i in range(60):  # forces a flush
            yield from store.put(f"k{i:03d}", bytes(300))
        yield from store.put("k000", b"fresh")  # newer value in memtable
        out["scan"] = yield from store.scan("k000", 2)

    scan = run_store(body)["scan"]
    assert scan[0] == ("k000", b"fresh")


def test_compaction_reduces_table_count():
    def body(store, out):
        for batch in range(6):
            for i in range(60):
                yield from store.put(f"b{batch}k{i:03d}", bytes(300))
        out["tables"] = len(store.tables)
        out["compactions"] = store.stats["compactions"]

    out = run_store(body)
    assert out["compactions"] >= 1
    assert out["tables"] < 6


def test_wal_written_on_every_put():
    machine = LinuxMachine()
    out = {}

    def prog(api):
        store = LsmStore(LinuxVfs(api), api.compute)
        yield from store.open()
        before = machine.fs.size("/db/wal") if machine.fs.exists("/db/wal") else 0
        yield from store.put("k", b"payload")
        out["wal"] = machine.fs.size("/db/wal")

    proc = machine.spawn("db", prog)
    machine.sim.run_until_event(proc.exit_event, limit=10**15)
    assert out["wal"] > len(b"payload")


class _StepVfs:
    """A file system whose every call is one bare generator step."""

    @staticmethod
    def _step(result=None):
        yield
        return result

    def mkdir(self, path):
        return self._step()

    def open(self, path, flags=0):
        return self._step(3)

    def write(self, fd, data):
        return self._step(len(data))

    def fsync(self, fd):
        return self._step()

    def seek(self, fd, offset):
        return self._step()

    def read(self, fd, length):
        return self._step(bytes(length))

    def close(self, fd):
        return self._step()


def _drive(gen):
    for _ in gen:
        pass


def test_closing_a_suspended_scan_does_not_yield():
    """A scan closed while it holds an open table fd must not yield
    again; the fds are closed only after a scan that returned or
    raised."""
    vfs = _StepVfs()
    store = LsmStore(vfs, lambda cycles: vfs._step())
    _drive(store.open())
    _drive(store.put("k1", b"v1"))
    _drive(store._flush())
    scan = store.scan("k", 1)
    for _ in range(3):      # compute, open the table, seek
        next(scan)
    scan.close()            # raised "generator ignored GeneratorExit"
