"""A LevelDB-like LSM-tree key-value store (the cloud service's DB).

A real implementation of the leveldb architecture over the POSIX shim:
a write-ahead log, an in-memory memtable, sorted-string-table files
flushed when the memtable fills, L0->L1 compaction, point lookups
through per-table indexes, and merging range scans.  All persistence
goes through the VFS, so the store pays m3fs extent-grant costs on M3v
and per-syscall costs on Linux — exactly the traffic Figure 10
measures.
"""

from __future__ import annotations

import itertools
import struct
from typing import Dict, Generator, Iterable, List, Optional, Tuple

from repro.posix.vfs import O_CREAT, O_TRUNC, O_WRONLY, Vfs

_table_ids = itertools.count(1)

TOMBSTONE = b"\x00__tombstone__"


class SSTable:
    """One immutable sorted table file + its in-memory index."""

    def __init__(self, path: str, level: int):
        self.path = path
        self.level = level
        # sorted keys with (offset, length) of the value in the file
        self.keys: List[str] = []
        self.index: Dict[str, Tuple[int, int]] = {}

    def locate(self, key: str) -> Optional[Tuple[int, int]]:
        return self.index.get(key)

    @staticmethod
    def encode(items: Iterable[Tuple[str, bytes]]):
        """Serialize sorted items; returns (blob, keys, index)."""
        blob = bytearray()
        keys: List[str] = []
        index: Dict[str, Tuple[int, int]] = {}
        for key, value in items:
            kb = key.encode()
            blob += struct.pack("<I", len(kb)) + kb
            blob += struct.pack("<I", len(value))
            index[key] = (len(blob), len(value))
            keys.append(key)
            blob += value
        return bytes(blob), keys, index


class LsmStore:
    """The store. All public methods are simulation generators."""

    MEMTABLE_LIMIT = 16 * 1024      # bytes before flush
    L0_COMPACT_AT = 4               # L0 tables before compaction
    # Calibrated against leveldb + musl on an 80 MHz core with 16 kB
    # L1 caches (the paper's platform): every operation walks a lot of
    # cold code, so per-op CPU costs are in the tens of kilocycles.
    PUT_CY = 40_000                 # memtable insert, WAL encode, skiplist
    GET_CY = 50_000                 # lookup path incl. bloom checks
    CMP_CY = 200                    # one key comparison (cold caches)
    SCAN_ENTRY_CY = 6_000           # merge-iterator step per scanned entry

    def __init__(self, vfs: Vfs, compute, root: str = "/db"):
        self.vfs = vfs
        self.compute = compute
        self.root = root
        self.mem: Dict[str, bytes] = {}
        self.mem_bytes = 0
        self.tables: List[SSTable] = []   # newest first
        self._wal_fd: Optional[int] = None
        self.stats = {"puts": 0, "gets": 0, "scans": 0, "flushes": 0,
                      "compactions": 0}

    # ------------------------------------------------------------- lifecycle

    def open(self) -> Generator:
        yield from self.vfs.mkdir(self.root)
        self._wal_fd = yield from self.vfs.open(f"{self.root}/wal",
                                                O_WRONLY | O_CREAT | O_TRUNC)

    def close(self) -> Generator:
        if self.mem:
            yield from self._flush()
        if self._wal_fd is not None:
            yield from self.vfs.close(self._wal_fd)
            self._wal_fd = None

    # ------------------------------------------------------------- mutations

    def put(self, key: str, value: bytes) -> Generator:
        yield from self.compute(self.PUT_CY)
        record = struct.pack("<I", len(key)) + key.encode() \
            + struct.pack("<I", len(value)) + value
        yield from self.vfs.write(self._wal_fd, record)
        if key not in self.mem:
            self.mem_bytes += len(key) + len(value)
        else:
            self.mem_bytes += len(value) - len(self.mem[key])
        self.mem[key] = value
        self.stats["puts"] += 1
        if self.mem_bytes >= self.MEMTABLE_LIMIT:
            yield from self._flush()

    def delete(self, key: str) -> Generator:
        yield from self.put(key, TOMBSTONE)

    # ------------------------------------------------------------- lookups

    def get(self, key: str) -> Generator:
        yield from self.compute(self.GET_CY)
        value = self.mem.get(key)
        if value is not None:
            return None if value == TOMBSTONE else value
        for table in self.tables:
            # binary search over the table's index
            yield from self.compute(
                self.CMP_CY * max(1, len(table.keys)).bit_length())
            loc = table.locate(key)
            if loc is None:
                continue
            offset, length = loc
            value = yield from self._read_at(table, offset, length)
            return None if value == TOMBSTONE else value
        return None

    def _read_at(self, table: SSTable, offset: int, length: int) -> Generator:
        fd = yield from self.vfs.open(table.path)
        yield from self.vfs.seek(fd, offset)
        value = yield from self.vfs.read(fd, length)
        yield from self.vfs.close(fd)
        return value

    def scan(self, start_key: str, count: int) -> Generator:
        """Range scan: merge memtable and all tables, newest wins."""
        self.stats["scans"] += 1
        # collect the candidate key space (index walk, charged per entry)
        merged: Dict[str, Tuple[int, Optional[SSTable]]] = {}
        for age, table in enumerate(self.tables):
            for key in table.keys:
                if key >= start_key and (key not in merged
                                         or merged[key][0] > age):
                    merged[key] = (age, table)
        for key in self.mem:
            if key >= start_key:
                merged[key] = (-1, None)
        selected = sorted(merged)[:count]
        yield from self.compute(self.SCAN_ENTRY_CY * max(1, len(merged)))

        results: List[Tuple[str, bytes]] = []
        open_fds: Dict[str, int] = {}
        # the fds are closed after a scan that returned or raised, but
        # not when the generator is closed (GeneratorExit is no
        # Exception): a closed generator must not yield
        try:
            for key in selected:
                age, table = merged[key]
                if table is None:
                    value = self.mem[key]
                else:
                    fd = open_fds.get(table.path)
                    if fd is None:
                        fd = yield from self.vfs.open(table.path)
                        open_fds[table.path] = fd
                    offset, length = table.index[key]
                    yield from self.vfs.seek(fd, offset)
                    value = yield from self.vfs.read(fd, length)
                if value != TOMBSTONE:
                    results.append((key, value))
        except Exception:
            yield from self._close_all(open_fds)
            raise
        yield from self._close_all(open_fds)
        return results

    def _close_all(self, fds: Dict[str, int]) -> Generator:
        for fd in sorted(fds.values()):
            yield from self.vfs.close(fd)

    # ----------------------------------------------------------- maintenance

    def _flush(self) -> Generator:
        """Memtable -> a new L0 table; truncate the WAL."""
        self.stats["flushes"] += 1
        items = sorted(self.mem.items())
        blob, keys, index = SSTable.encode(items)
        table = SSTable(f"{self.root}/sst{next(_table_ids):06d}", level=0)
        table.keys, table.index = keys, index
        fd = yield from self.vfs.open(table.path, O_WRONLY | O_CREAT)
        yield from self.vfs.write(fd, blob)
        yield from self.vfs.fsync(fd)
        yield from self.vfs.close(fd)
        self.tables.insert(0, table)
        self.mem.clear()
        self.mem_bytes = 0
        yield from self.vfs.close(self._wal_fd)
        self._wal_fd = yield from self.vfs.open(f"{self.root}/wal",
                                                O_WRONLY | O_CREAT | O_TRUNC)
        if sum(1 for t in self.tables if t.level == 0) >= self.L0_COMPACT_AT:
            yield from self._compact()

    def _compact(self) -> Generator:
        """Merge all tables into one L1 table (simple full compaction)."""
        self.stats["compactions"] += 1
        entries: Dict[str, bytes] = {}
        for table in reversed(self.tables):  # oldest first; newest wins
            fd = yield from self.vfs.open(table.path)
            pieces = []
            while True:
                piece = yield from self.vfs.read(fd, 256 * 1024)
                if not piece:
                    break
                pieces.append(piece)
            blob = b"".join(pieces)
            yield from self.vfs.close(fd)
            pos = 0
            while pos < len(blob):
                klen = struct.unpack_from("<I", blob, pos)[0]
                key = blob[pos + 4:pos + 4 + klen].decode()
                pos += 4 + klen
                vlen = struct.unpack_from("<I", blob, pos)[0]
                pos += 4
                entries[key] = bytes(blob[pos:pos + vlen])
                pos += vlen
            yield from self.compute(self.CMP_CY * max(1, len(table.keys)))
        live = sorted((k, v) for k, v in entries.items() if v != TOMBSTONE)
        blob, keys, index = SSTable.encode(live)
        merged = SSTable(f"{self.root}/sst{next(_table_ids):06d}", level=1)
        merged.keys, merged.index = keys, index
        fd = yield from self.vfs.open(merged.path, O_WRONLY | O_CREAT)
        yield from self.vfs.write(fd, blob)
        yield from self.vfs.fsync(fd)
        yield from self.vfs.close(fd)
        for table in self.tables:
            yield from self.vfs.unlink(table.path)
        self.tables = [merged]
