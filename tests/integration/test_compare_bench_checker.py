"""The compare_bench CLI's noise-free count gate over checker reports."""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))

from compare_bench import main as compare_main  # noqa: E402


def write(path, report):
    path.write_text(json.dumps(report))
    return str(path)


def scenario(name, orders=70, replayed=500, delivered=120, rate=1000.0):
    return {"name": name, "orders": orders,
            "incremental": {"orders_per_s": rate,
                            "journal_entries_replayed": replayed,
                            "accesses_delivered": delivered}}


def report(*scenarios):
    return {"benchmark": "checker_speed", "scenarios": list(scenarios)}


def gate(tmp_path, base, cand):
    return compare_main([write(tmp_path / "base.json", base),
                         write(tmp_path / "cand.json", cand)])


def test_equal_and_falling_counts_pass(tmp_path, capsys):
    base = report(scenario("a"), scenario("b"))
    cand = report(scenario("a"), scenario("b", replayed=400, delivered=90))
    assert gate(tmp_path, base, cand) == 0
    assert "benchmark gate passed" in capsys.readouterr().out


def test_rise_in_either_count_fails(tmp_path, capsys):
    base = report(scenario("a"), scenario("b"))
    cand = report(scenario("a", replayed=501), scenario("b", delivered=121))
    assert gate(tmp_path, base, cand) == 1
    out = capsys.readouterr().out
    assert "a (70 orders): journal_entries_replayed rose from 500 to 501" \
        in out
    assert "b (70 orders): accesses_delivered rose from 120 to 121" in out


def test_counts_gate_even_when_throughput_improves(tmp_path):
    base = report(scenario("a"))
    cand = report(scenario("a", replayed=600, rate=5000.0))
    assert gate(tmp_path, base, cand) == 1


def test_scenarios_sharing_a_name_are_told_apart_by_orders(tmp_path,
                                                           capsys):
    base = report(scenario("fig8", orders=56, replayed=900),
                  scenario("fig8", orders=21, replayed=100))
    cand = report(scenario("fig8", orders=56, replayed=900),
                  scenario("fig8", orders=21, replayed=101))
    assert gate(tmp_path, base, cand) == 1
    assert "fig8 (21 orders)" in capsys.readouterr().out
    ok = report(scenario("fig8", orders=56, replayed=900),
                scenario("fig8", orders=21, replayed=100))
    assert gate(tmp_path, base, ok) == 0


def test_scenarios_only_in_one_report_are_not_gated(tmp_path):
    base = report(scenario("a"), scenario("b", replayed=10))
    cand = report(scenario("a"), scenario("c", replayed=10 ** 6))
    assert gate(tmp_path, base, cand) == 0
