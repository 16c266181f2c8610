"""Unit tests for page tables, PTEs, and protection."""

import pytest

from repro.errors import AddressError, PageFault, ProtectionFault
from repro.hw.pagetable import (
    PAGE_SIZE,
    PageTable,
    Perm,
    Pte,
    page_base,
    page_offset,
    pages_covering,
    vpn_of,
)

V = 0x10000
P = 0x40000


def table_with(perm=Perm.RW, user=True, uncached=False):
    table = PageTable("t")
    table.map_page(V, Pte(P, perm, user, uncached))
    return table


def test_translate_offset_preserved():
    table = table_with()
    assert table.translate(V + 0x123, "read") == P + 0x123


def test_unmapped_page_faults():
    table = PageTable()
    with pytest.raises(PageFault):
        table.translate(V, "read")


def test_read_only_blocks_writes():
    table = table_with(Perm.READ)
    assert table.translate(V, "read") == P
    with pytest.raises(ProtectionFault):
        table.translate(V, "write")


def test_write_only_blocks_reads():
    table = table_with(Perm.WRITE)
    with pytest.raises(ProtectionFault):
        table.translate(V, "read")


def test_kernel_mode_bypasses_perm_checks():
    table = table_with(Perm.NONE)
    assert table.translate(V, "write", user_mode=False) == P


def test_kernel_only_page_invisible_to_user():
    table = table_with(Perm.RW, user=False)
    with pytest.raises(PageFault):
        table.translate(V, "read")
    assert table.translate(V, "read", user_mode=False) == P


def test_pte_rejects_unaligned_frame():
    with pytest.raises(AddressError):
        Pte(0x1234, Perm.RW)


def test_pte_allows_unknown_access_rejected():
    with pytest.raises(ValueError):
        Pte(P, Perm.RW).allows("execute")


def test_map_unaligned_vaddr_rejected():
    table = PageTable()
    with pytest.raises(AddressError):
        table.map_page(V + 1, Pte(P, Perm.RW))


def test_double_map_rejected():
    table = table_with()
    with pytest.raises(AddressError):
        table.map_page(V, Pte(P, Perm.RW))


def test_map_range_multiple_pages():
    table = PageTable()
    table.map_range(V, P, 3 * PAGE_SIZE, Perm.RW)
    assert len(table) == 3
    assert table.translate(V + 2 * PAGE_SIZE + 5, "read") == (
        P + 2 * PAGE_SIZE + 5)


def test_map_range_rejects_partial_page():
    table = PageTable()
    with pytest.raises(AddressError):
        table.map_range(V, P, PAGE_SIZE + 1, Perm.RW)


def test_unmap():
    table = table_with()
    pte = table.unmap_page(V)
    assert pte.pframe == P
    with pytest.raises(PageFault):
        table.translate(V, "read")


def test_unmap_missing_faults():
    with pytest.raises(PageFault):
        PageTable().unmap_page(V)


def test_protect_page_changes_perm():
    table = table_with(Perm.RW)
    table.protect_page(V, Perm.READ)
    with pytest.raises(ProtectionFault):
        table.translate(V, "write")


def test_protect_preserves_flags():
    table = table_with(Perm.RW, uncached=True)
    table.protect_page(V, Perm.READ)
    assert table.lookup(V).uncached


def test_check_range_whole_span():
    table = PageTable()
    table.map_range(V, P, 2 * PAGE_SIZE, Perm.RW)
    table.check_range(V + 100, PAGE_SIZE, "write")  # crosses a boundary
    with pytest.raises(PageFault):
        table.check_range(V + PAGE_SIZE, 2 * PAGE_SIZE, "read")


def _first_page_fault(table, vaddr, nbytes, access):
    """What translating each page's base in turn raises first."""
    for vpn in pages_covering(vaddr, nbytes):
        try:
            table.translate(vpn * PAGE_SIZE, access)
        except (PageFault, ProtectionFault) as exc:
            return type(exc), exc.vaddr, exc.access
    return None


@pytest.mark.parametrize("access", ["read", "write"])
@pytest.mark.parametrize("vaddr, nbytes", [
    (V - 1, 1), (V - 1, 2), (V, 1), (V, PAGE_SIZE), (V, PAGE_SIZE + 1),
    (V + PAGE_SIZE - 1, 1), (V + PAGE_SIZE - 1, 2),
    (V + PAGE_SIZE, PAGE_SIZE), (V + 2 * PAGE_SIZE - 1, 2),
    (V, 3 * PAGE_SIZE), (V + 3 * PAGE_SIZE - 1, 1),
])
def test_check_range_faults_as_translating_each_page(vaddr, nbytes, access):
    """Pages: RW, read-only, kernel-only, then unmapped."""
    table = PageTable()
    table.map_page(V, Pte(P, Perm.RW))
    table.map_page(V + PAGE_SIZE, Pte(P + PAGE_SIZE, Perm.READ))
    table.map_page(V + 2 * PAGE_SIZE, Pte(P + 2 * PAGE_SIZE, Perm.RW,
                                          user=False))
    expected = _first_page_fault(table, vaddr, nbytes, access)
    if expected is None:
        table.check_range(vaddr, nbytes, access)
        return
    with pytest.raises((PageFault, ProtectionFault)) as info:
        table.check_range(vaddr, nbytes, access)
    assert (type(info.value), info.value.vaddr,
            info.value.access) == expected


def test_check_range_rejects_empty_range():
    with pytest.raises(AddressError):
        table_with().check_range(V, 0, "read")


def test_check_range_perm_enforced_every_page():
    table = PageTable()
    table.map_page(V, Pte(P, Perm.RW))
    table.map_page(V + PAGE_SIZE, Pte(P + PAGE_SIZE, Perm.READ))
    with pytest.raises(ProtectionFault):
        table.check_range(V, 2 * PAGE_SIZE, "write")


def test_contains_and_iteration():
    table = table_with()
    assert V in table
    assert (V + PAGE_SIZE) not in table
    pages = list(table.mapped_pages())
    assert pages[0][0] == vpn_of(V)


def test_helpers():
    assert page_base(V + 5) == V
    assert page_offset(V + 5) == 5
    assert list(pages_covering(0, 1)) == [0]
    assert list(pages_covering(PAGE_SIZE - 1, 2)) == [0, 1]
    with pytest.raises(AddressError):
        list(pages_covering(0, 0))
