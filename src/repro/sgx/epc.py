"""Enclave Page Cache (EPC) and its map (EPCM).

"EPC is a secure storage used by the processor ... divided into chunks of
4KB pages.  The processor tracks the metadata of the EPC in a secure
structure called EPCM, which is only accessible by hardware" (§II-A).

Pages are bookkeeping objects here; the *access rules* (only the owning
enclave, only in enclave mode) are enforced by :class:`repro.sgx.cpu.
EnclaveSession`, the single capability through which software touches
enclave memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import SgxEpcExhausted, SgxInstructionFault
from repro.sgx.structures import PAGE_SIZE, PageType, Permissions


@dataclass(slots=True)
class EpcmEntry:
    """EPCM metadata for one EPC page (hardware-only in real SGX)."""

    valid: bool = False
    page_type: PageType = PageType.REG
    owner_eid: int = -1
    vaddr: int = 0
    permissions: Permissions = Permissions.NONE


class EpcPage:
    """One 4 KB EPC page.

    ``data`` holds the byte content of REG pages.  SECS/TCS/VA pages carry
    a hardware object in ``hw_object`` instead (their content is never
    software-visible, so bytes would buy nothing but overhead).  The
    backing bytearray is allocated on first touch: a large EPC is mostly
    never-used zero pages, and allocating them eagerly costs seconds of
    real time per testbed.
    """

    __slots__ = ("index", "_data", "hw_object")

    def __init__(self, index: int) -> None:
        self.index = index
        self._data: bytearray | None = None
        self.hw_object: Any = None

    @property
    def data(self) -> bytearray:
        if self._data is None:
            self._data = bytearray(PAGE_SIZE)
        return self._data

    @data.setter
    def data(self, value: bytearray) -> None:
        self._data = value

    def wipe(self) -> None:
        self._data = None
        self.hw_object = None


class Epc:
    """A fixed-size EPC with allocation and EPCM bookkeeping."""

    def __init__(self, n_pages: int) -> None:
        if n_pages < 8:
            raise ValueError("EPC must have at least 8 pages")
        self.n_pages = n_pages
        self._pages = [EpcPage(i) for i in range(n_pages)]
        self._epcm = [EpcmEntry() for _ in range(n_pages)]
        # Free pages are the freed stack (last freed on top) above the
        # never-used indices ``_next..n_pages-1``, lowest first.
        self._freed: list[int] = []
        self._next = 0

    # ------------------------------------------------------------- queries
    @property
    def free_count(self) -> int:
        return len(self._freed) + self.n_pages - self._next

    @property
    def used_count(self) -> int:
        return self.n_pages - self.free_count

    def page(self, index: int) -> EpcPage:
        return self._pages[index]

    def entry(self, index: int) -> EpcmEntry:
        return self._epcm[index]

    def pages_of(self, eid: int) -> list[int]:
        """Indices of the valid pages owned by enclave ``eid``."""
        return [
            i for i, entry in enumerate(self._epcm) if entry.valid and entry.owner_eid == eid
        ]

    # ------------------------------------------------------------- lifecycle
    def alloc(
        self,
        owner_eid: int,
        vaddr: int,
        page_type: PageType,
        permissions: Permissions,
    ) -> EpcPage:
        """Allocate a free EPC page to an enclave.

        Raises :class:`SgxEpcExhausted` when the EPC is full — the caller
        (driver or hypervisor) is expected to evict a victim page first.
        """
        if self._freed:
            index = self._freed.pop()
        elif self._next < self.n_pages:
            index = self._next
            self._next += 1
        else:
            raise SgxEpcExhausted("no free EPC page")
        entry = self._epcm[index]
        entry.valid = True
        entry.page_type = page_type
        entry.owner_eid = owner_eid
        entry.vaddr = vaddr
        entry.permissions = permissions
        page = self._pages[index]
        page.wipe()
        return page

    def free(self, index: int) -> None:
        """Release a page back to the free pool, scrubbing its content."""
        entry = self._epcm[index]
        if not entry.valid:
            raise SgxInstructionFault(f"EPC page {index} is not allocated")
        entry.valid = False
        entry.owner_eid = -1
        entry.permissions = Permissions.NONE
        self._pages[index].wipe()
        self._freed.append(index)
