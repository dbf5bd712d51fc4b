"""Byte-addressable sparse main memory.

Memory is organised as 64 KiB pages materialised on first touch, so a
32 MiB-plus address space costs nothing until used.  All multi-byte
accesses are little-endian and must be naturally aligned (the ISA has no
unaligned accesses; the assembler keeps data aligned).

The integer value convention follows :mod:`repro.utils`: 64-bit reads
return canonical signed values, narrower loads zero- or sign-extend as the
opcode requires (the functional simulator picks; :meth:`load` here returns
unsigned raw bits for widths < 8).
"""

from __future__ import annotations

import struct

from ..errors import MemoryFault
from ..utils import to_signed64

PAGE_BITS = 16
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1

#: Precompiled scalar codecs for the widths the ISA knows.  Loads follow
#: the :meth:`MainMemory.load` convention (raw unsigned below 8 bytes,
#: canonical signed for 8); stores write masked low bytes, so the
#: unsigned 8-byte packer pairs with a pre-masked value.
_UNPACKERS = {1: struct.Struct("<B"), 4: struct.Struct("<I"),
              8: struct.Struct("<q")}
_PACKERS = {1: struct.Struct("<B"), 4: struct.Struct("<I"),
            8: struct.Struct("<Q")}


class MainMemory:
    """Sparse paged memory with byte/word/double access helpers."""

    def __init__(self, size_bytes: int):
        if size_bytes <= 0:
            raise ValueError("memory size must be positive")
        self.size_bytes = size_bytes
        self._pages: dict[int, bytearray] = {}

    # ------------------------------------------------------------------
    def _page_for(self, address: int) -> bytearray:
        index = address >> PAGE_BITS
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        return page

    def _check(self, address: int, nbytes: int) -> None:
        if address < 0 or address + nbytes > self.size_bytes:
            raise MemoryFault(address)
        if address % nbytes:
            raise MemoryFault(address, f"misaligned {nbytes}-byte access")

    # ------------------------------------------------------------------
    # Raw bulk access (loader, workload generators, result extraction).
    # ------------------------------------------------------------------
    def _page_chunks(self, address: int, total: int):
        """Yield ``(page, start, size)`` spans covering *total* bytes.

        The common page-walking loop under every bulk operation; callers
        bound-check *address*/*total* first.
        """
        offset = 0
        while offset < total:
            page = self._page_for(address + offset)
            start = (address + offset) & PAGE_MASK
            size = min(PAGE_SIZE - start, total - offset)
            yield page, start, size
            offset += size

    def write_bytes(self, address: int, payload: bytes) -> None:
        """Bulk write, page by page (no alignment requirement)."""
        if address < 0 or address + len(payload) > self.size_bytes:
            raise MemoryFault(address)
        src = memoryview(payload)
        offset = 0
        for page, start, size in self._page_chunks(address, len(payload)):
            page[start : start + size] = src[offset : offset + size]
            offset += size

    def read_bytes(self, address: int, nbytes: int) -> bytes:
        """Bulk read, page by page (no alignment requirement)."""
        if address < 0 or address + nbytes > self.size_bytes:
            raise MemoryFault(address)
        out = bytearray(nbytes)
        offset = 0
        for page, start, size in self._page_chunks(address, nbytes):
            out[offset : offset + size] = memoryview(page)[start : start + size]
            offset += size
        return bytes(out)

    # ------------------------------------------------------------------
    # Aligned block access (array readback, bulk initialisation).
    # ------------------------------------------------------------------
    def load_block(self, address: int, count: int, nbytes: int = 8) -> list[int]:
        """Aligned load of *count* scalars of width *nbytes*.

        Value convention matches :meth:`load` element-wise: canonical
        signed values for 8-byte scalars, raw unsigned bits below that.
        One precompiled :class:`struct.Struct` decodes each page-sized
        span through a memoryview — no per-element ``int.from_bytes``,
        no page lookup per scalar.
        """
        codec = _UNPACKERS.get(nbytes)
        if codec is None:
            raise MemoryFault(address, f"unsupported scalar width {nbytes}")
        total = count * nbytes
        self._check(address, nbytes)
        if address + total > self.size_bytes:
            raise MemoryFault(address + total - nbytes)
        out: list[int] = []
        # PAGE_SIZE is a multiple of every scalar width and the base is
        # aligned, so spans never split a scalar across pages.
        for page, start, size in self._page_chunks(address, total):
            view = memoryview(page)[start : start + size]
            out.extend(v for (v,) in codec.iter_unpack(view))
        return out

    def store_block(self, address: int, values, nbytes: int = 8) -> None:
        """Aligned store of a sequence of scalars of width *nbytes*.

        Each value's low *nbytes* bytes are written (the element-wise
        analogue of :meth:`store`), packed through the precompiled
        codecs straight into the backing pages.
        """
        codec = _PACKERS.get(nbytes)
        if codec is None:
            raise MemoryFault(address, f"unsupported scalar width {nbytes}")
        total = len(values) * nbytes
        self._check(address, nbytes)
        if address + total > self.size_bytes:
            raise MemoryFault(address + total - nbytes)
        mask = (1 << (nbytes * 8)) - 1
        pack_into = codec.pack_into
        index = 0
        for page, start, size in self._page_chunks(address, total):
            for pos in range(start, start + size, nbytes):
                pack_into(page, pos, values[index] & mask)
                index += 1

    # ------------------------------------------------------------------
    # Aligned scalar access (the functional simulator's hot path).
    # ------------------------------------------------------------------
    def load(self, address: int, nbytes: int) -> int:
        """Aligned load of 1/4/8 bytes.

        Returns the raw unsigned value for 1/4 bytes and the canonical
        signed value for 8 bytes.
        """
        self._check(address, nbytes)
        page = self._page_for(address)
        start = address & PAGE_MASK
        raw = int.from_bytes(page[start : start + nbytes], "little")
        return to_signed64(raw) if nbytes == 8 else raw

    def store(self, address: int, value: int, nbytes: int) -> None:
        """Aligned store of the low *nbytes* bytes of *value*."""
        self._check(address, nbytes)
        page = self._page_for(address)
        start = address & PAGE_MASK
        page[start : start + nbytes] = (value & ((1 << (nbytes * 8)) - 1)).to_bytes(
            nbytes, "little"
        )

    def load_f64(self, address: int) -> float:
        """Aligned load of an IEEE binary64 value."""
        self._check(address, 8)
        page = self._page_for(address)
        start = address & PAGE_MASK
        return struct.unpack_from("<d", page, start)[0]

    def store_f64(self, address: int, value: float) -> None:
        """Aligned store of an IEEE binary64 value."""
        self._check(address, 8)
        page = self._page_for(address)
        start = address & PAGE_MASK
        struct.pack_into("<d", page, start, value)

    # ------------------------------------------------------------------
    def touched_pages(self) -> int:
        """Number of materialised pages (diagnostics)."""
        return len(self._pages)

    def snapshot(self) -> dict[int, bytes]:
        """Immutable copy of every touched page (for equivalence checks)."""
        return {index: bytes(page) for index, page in self._pages.items()}

    def differences(self, other: "MainMemory") -> list[str]:
        """Where *other*'s contents differ from these: the first differing
        byte of each differing page, in address order, at most eight (then
        one "suppressed" line).  Empty when equal; an untouched page equals
        a zero page."""
        mismatches: list[str] = []
        zero = bytes(PAGE_SIZE)
        for index in sorted(set(self._pages) | set(other._pages)):
            a = bytes(self._pages.get(index, b"")) or zero
            b = bytes(other._pages.get(index, b"")) or zero
            if a == b:
                continue
            offset = next(i for i in range(PAGE_SIZE) if a[i] != b[i])
            mismatches.append(
                f"memory differs at 0x{(index << PAGE_BITS) + offset:x}: "
                f"expected byte 0x{a[offset]:02x}, got 0x{b[offset]:02x}"
            )
            if len(mismatches) == 8:
                mismatches.append("... further memory mismatches suppressed")
                break
        return mismatches
