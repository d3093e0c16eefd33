"""EPC allocation/EPCM bookkeeping and MRENCLAVE computation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SgxEpcExhausted, SgxInstructionFault
from repro.sgx.epc import Epc
from repro.sgx.measurement import MeasurementLog
from repro.sgx.structures import PAGE_SIZE, PageType, Permissions, SecInfo


class TestEpc:
    def test_alloc_marks_entry(self):
        epc = Epc(16)
        page = epc.alloc(5, 0x1000, PageType.REG, Permissions.RW)
        entry = epc.entry(page.index)
        assert entry.valid and entry.owner_eid == 5 and entry.vaddr == 0x1000
        assert entry.permissions == Permissions.RW

    def test_exhaustion(self):
        epc = Epc(8)
        for i in range(8):
            epc.alloc(1, i * PAGE_SIZE, PageType.REG, Permissions.RW)
        with pytest.raises(SgxEpcExhausted):
            epc.alloc(1, 0x9000, PageType.REG, Permissions.RW)

    def test_free_recycles(self):
        epc = Epc(8)
        pages = [epc.alloc(1, i * PAGE_SIZE, PageType.REG, Permissions.RW) for i in range(8)]
        epc.free(pages[3].index)
        assert epc.free_count == 1
        epc.alloc(2, 0x0, PageType.REG, Permissions.R)  # reuses the slot

    def test_free_scrubs_content(self):
        epc = Epc(8)
        page = epc.alloc(1, 0, PageType.REG, Permissions.RW)
        page.data[:5] = b"SECRET"[:5]
        index = page.index
        epc.free(index)
        assert bytes(epc.page(index).data[:5]) == b"\x00" * 5

    def test_double_free_rejected(self):
        epc = Epc(8)
        page = epc.alloc(1, 0, PageType.REG, Permissions.RW)
        epc.free(page.index)
        with pytest.raises(SgxInstructionFault):
            epc.free(page.index)

    def test_pages_of_filters_by_owner(self):
        epc = Epc(16)
        epc.alloc(1, 0x1000, PageType.REG, Permissions.RW)
        epc.alloc(2, 0x2000, PageType.REG, Permissions.RW)
        epc.alloc(1, 0x3000, PageType.REG, Permissions.RW)
        assert len(epc.pages_of(1)) == 2
        assert len(epc.pages_of(2)) == 1

    def test_counts(self):
        epc = Epc(16)
        assert epc.free_count == 16 and epc.used_count == 0
        epc.alloc(1, 0, PageType.REG, Permissions.RW)
        assert epc.free_count == 15 and epc.used_count == 1

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Epc(4)


class OracleAllocator:
    """The original allocator: one list of every free index, popped from
    the end, initialised in descending order."""

    def __init__(self, n_pages):
        self.free = list(range(n_pages - 1, -1, -1))

    def alloc(self):
        return self.free.pop() if self.free else None

    def release(self, index):
        self.free.append(index)


def _alloc(epc):
    return epc.alloc(1, 0, PageType.REG, Permissions.RW).index


class TestEpcFreeList:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 63)), max_size=120))
    def test_allocation_order_matches_oracle(self, ops):
        epc, oracle = Epc(16), OracleAllocator(16)
        live = []
        for is_alloc, pick in ops:
            if is_alloc or not live:
                expected = oracle.alloc()
                if expected is None:
                    with pytest.raises(SgxEpcExhausted):
                        _alloc(epc)
                    continue
                assert _alloc(epc) == expected
                live.append(expected)
            else:
                index = live.pop(pick % len(live))
                epc.free(index)
                oracle.release(index)
            assert epc.free_count == len(oracle.free)
            assert epc.used_count == 16 - len(oracle.free)

    def test_counts_across_frees(self):
        epc = Epc(8)
        indices = [_alloc(epc) for _ in range(5)]
        for freed, index in enumerate(indices[1:4], start=1):
            epc.free(index)
            assert epc.free_count == 3 + freed and epc.used_count == 5 - freed
        assert [_alloc(epc) for _ in range(3)] == indices[3:0:-1]
        assert epc.free_count == 3 and epc.used_count == 5

    def test_exhaustion_after_frees_and_reallocations(self):
        epc = Epc(8)
        indices = [_alloc(epc) for _ in range(6)]
        epc.free(indices[2])
        epc.free(indices[0])
        assert sorted(_alloc(epc) for _ in range(4)) == [indices[0], indices[2], 6, 7]
        assert epc.free_count == 0
        with pytest.raises(SgxEpcExhausted):
            _alloc(epc)

    def test_freed_index_reads_empty(self):
        epc = Epc(8)
        page = epc.alloc(3, 0x5000, PageType.TCS, Permissions.RW)
        page.data[:4] = b"live"
        page.hw_object = object()
        epc.free(page.index)
        assert bytes(epc.page(page.index).data) == b"\x00" * PAGE_SIZE
        assert epc.page(page.index).hw_object is None
        entry = epc.entry(page.index)
        assert not entry.valid and entry.owner_eid == -1
        assert entry.permissions == Permissions.NONE
        assert epc.pages_of(3) == []


class TestMeasurement:
    def sec_info(self):
        return SecInfo(PageType.REG, Permissions.RW)

    def test_same_sequence_same_digest(self):
        logs = [MeasurementLog() for _ in range(2)]
        for log in logs:
            log.ecreate(0x1000, 0x4000)
            log.eadd(0x1000, self.sec_info())
            log.eextend(0x1000, b"A" * PAGE_SIZE)
        assert logs[0].finalize() == logs[1].finalize()

    def test_content_changes_digest(self):
        a, b = MeasurementLog(), MeasurementLog()
        for log, fill in ((a, b"A"), (b, b"B")):
            log.ecreate(0x1000, 0x4000)
            log.eadd(0x1000, self.sec_info())
            log.eextend(0x1000, fill * PAGE_SIZE)
        assert a.finalize() != b.finalize()

    def test_layout_changes_digest(self):
        a, b = MeasurementLog(), MeasurementLog()
        a.ecreate(0x1000, 0x4000)
        b.ecreate(0x1000, 0x8000)
        assert a.finalize() != b.finalize()

    def test_permissions_change_digest(self):
        a, b = MeasurementLog(), MeasurementLog()
        a.ecreate(0, 0x1000)
        b.ecreate(0, 0x1000)
        a.eadd(0, SecInfo(PageType.REG, Permissions.RW))
        b.eadd(0, SecInfo(PageType.REG, Permissions.RX))
        assert a.finalize() != b.finalize()

    def test_order_matters(self):
        a, b = MeasurementLog(), MeasurementLog()
        for log, order in ((a, (0x1000, 0x2000)), (b, (0x2000, 0x1000))):
            log.ecreate(0, 0x10000)
            for vaddr in order:
                log.eadd(vaddr, self.sec_info())
        assert a.finalize() != b.finalize()

    def test_no_updates_after_finalize(self):
        log = MeasurementLog()
        log.ecreate(0, 0x1000)
        log.finalize()
        with pytest.raises(SgxInstructionFault):
            log.eadd(0, self.sec_info())

    def test_eextend_requires_full_page(self):
        log = MeasurementLog()
        log.ecreate(0, 0x1000)
        with pytest.raises(SgxInstructionFault):
            log.eextend(0, b"short")

    def test_finalize_idempotent(self):
        log = MeasurementLog()
        log.ecreate(0, 0x1000)
        assert log.finalize() == log.finalize() == log.value
