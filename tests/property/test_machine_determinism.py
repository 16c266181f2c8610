"""Property: the whole machine is deterministic given its seed.

Reproducibility is load-bearing for every experiment in this repo, so it
gets its own tests: identical configs and seeds produce byte-identical
statistics, traces, and audit reports; different seeds genuinely vary
the stochastic parts and nothing else.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import DmaChannel
from repro.core.machine import MachineConfig, Workstation
from repro.core.report import machine_stats
from repro.obs.export import spans_jsonl
from repro.verify.stress import run_stress


def run_workload(seed: int, method: str = "keyed"):
    ws = Workstation(MachineConfig(method=method, seed=seed,
                                   spans_enabled=True))
    proc = ws.kernel.spawn()
    ws.kernel.enable_user_dma(proc)
    src = ws.kernel.alloc_buffer(proc, 16384)
    dst = ws.kernel.alloc_buffer(proc, 16384)
    chan = DmaChannel(ws, proc)
    for index in range(5):
        chan.dma(src.vaddr + index * 64, dst.vaddr + index * 64, 64)
    return ws


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_same_seed_same_stats(seed):
    a = run_workload(seed)
    b = run_workload(seed)
    assert machine_stats(a) == machine_stats(b)
    assert a.now == b.now


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_same_seed_same_trace(seed):
    a = run_workload(seed)
    b = run_workload(seed)
    assert (spans_jsonl(a.spans.all_spans())
            == spans_jsonl(b.spans.all_spans()))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1_000))
def test_stress_reports_reproducible(seed):
    first = run_stress("shrimp2", n_processes=3, dmas_each=8,
                       preempt_p=0.4, with_hooks=False, seed=seed)
    second = run_stress("shrimp2", n_processes=3, dmas_each=8,
                        preempt_p=0.4, with_hooks=False, seed=seed)
    assert vars(first) == vars(second)


def test_different_seeds_change_keys_not_results():
    a = run_workload(1)
    b = run_workload(2)
    # The behaviour (counters) is identical — keys differ but both runs
    # complete the same workload — while the secrets themselves differ.
    stats_a, stats_b = machine_stats(a), machine_stats(b)
    assert stats_a == stats_b
    key_a = a.kernel.processes[1].dma.key
    key_b = b.kernel.processes[1].dma.key
    assert key_a != key_b
