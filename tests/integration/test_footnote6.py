"""Footnote 6: write-buffer collapsing vs. memory barriers.

"Some hardware devices (e.g. write buffers) may attempt to collapse
successive read/write operations to the same address.  In these cases
appropriate memory barrier commands should be used."

On a machine with a *relaxed* write buffer (loads bypass posted stores;
same-address loads are serviced from the buffer), the repeated-passing
sequence silently falls apart without MBs — and works with them.  On the
default strongly ordered machine, both variants work.
"""


from tests.conftest import ready_channel


def run_repeated5(relaxed, with_mb):
    ws, proc, src, dst, chan = ready_channel(
        "repeated5", relaxed_write_buffer=relaxed)
    ws.ram.write(src.paddr, b"footnote six")
    result = chan.initiate(src.vaddr, dst.vaddr, 64, with_retry=False,
                           with_mb=with_mb)
    return ws, result


def test_relaxed_buffer_without_mb_never_starts_a_dma():
    """The engine never assembles the pattern: stores collapse and the
    final load is serviced by the write buffer."""
    ws, result = run_repeated5(relaxed=True, with_mb=False)
    assert ws.engine.started_transfers() == []
    assert ws.engine.protocol.sequences_completed == 0


def test_relaxed_buffer_without_mb_is_a_silent_phantom_success():
    """Worse than failing: the forwarded final load returns the *size
    word* the store posted, which software cannot distinguish from a
    successful "64 bytes remaining" status — the initiation looks OK
    while no data will ever move.  This is why footnote 6 mandates the
    barriers rather than relying on the retry loop to catch it."""
    ws, result = run_repeated5(relaxed=True, with_mb=False)
    assert result.ok            # looks fine to the program...
    assert result.status == 64  # ...the store's own data word
    assert ws.engine.started_transfers() == []  # ...but nothing ran


def test_relaxed_buffer_with_mb_works():
    ws, result = run_repeated5(relaxed=True, with_mb=True)
    assert result.ok
    assert len(ws.engine.started_transfers()) == 1


def test_strong_buffer_works_either_way():
    for with_mb in (False, True):
        ws, result = run_repeated5(relaxed=False, with_mb=with_mb)
        assert result.ok, f"with_mb={with_mb}"


def test_relaxed_failure_is_the_forwarding_effect():
    """Without MBs the repeated loads are serviced by the write buffer
    and never reach the engine — exactly the parenthetical in the
    footnote ("collapsed in (or serviced by) the write buffer")."""
    ws, result = run_repeated5(relaxed=True, with_mb=False)
    assert ws.write_buffer.loads_forwarded > 0


def test_retry_loop_with_mb_still_terminates_relaxed():
    ws, proc, src, dst, chan = ready_channel(
        "repeated5", relaxed_write_buffer=True)
    result = chan.initiate(src.vaddr, dst.vaddr, 64, with_retry=True,
                           with_mb=True)
    assert result.ok


def test_other_methods_unaffected_by_relaxed_buffer():
    """Methods without repeated same-address stores survive relaxation
    as long as ordering is restored at their single load (which drains
    when the buffer is strongly ordered; in relaxed mode the final Halt
    drains and the engine sees the store late -> the load fails).  The
    keyed method's loads hit the *context page*, a different address
    from its stores, so only ordering matters.
    """
    ws, proc, src, dst, chan = ready_channel("keyed",
                                             relaxed_write_buffer=False)
    assert chan.initiate(src.vaddr, dst.vaddr, 64).ok
