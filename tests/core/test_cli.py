"""Tests for the experiment CLI."""

import pytest

from repro.cli import COMMAND_HELP, COMMANDS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


def test_parser_knows_all_commands():
    parser = build_parser()
    args = parser.parse_args(["table1"])
    assert args.command == "table1"
    assert args.iterations == 50


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_table1_command(capsys):
    out = run_cli(capsys, "table1", "--iterations", "10")
    assert "Kernel-level DMA" in out
    assert "18.6" in out  # the paper column


def test_races_command(capsys):
    out = run_cli(capsys, "races")
    assert "shrimp2" in out and "NO" in out
    assert "extshadow" in out and "yes" in out


def test_attacks_command(capsys):
    out = run_cli(capsys, "attacks")
    assert "fig5-repeated3" in out
    assert "fig6-repeated4" in out
    assert "authorized-start" in out


def test_fig8_command(capsys):
    out = run_cli(capsys, "fig8")
    assert out.count("SAFE") == 4


def test_prove_command(capsys):
    out = run_cli(capsys, "prove")
    assert out.count("VERIFIED") == 3
    assert "lemma1: HOLDS" in out


def test_faults_command(capsys):
    out = run_cli(capsys, "faults")
    rows = {}
    for line in out.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 5 and cells[2].isdigit():
            rows[cells[0]] = tuple(cells[1:])
    assert rows == {
        "shrimp1": ("safe", "16", "34", "SAFE"),
        "shrimp2": ("unsafe", "24", "154", "UNSAFE-BASELINE"),
        "flash": ("unsafe", "24", "154", "UNSAFE-BASELINE"),
        "pal": ("unsafe", "24", "154", "UNSAFE-BASELINE"),
        "keyed": ("safe", "64", "4718", "SAFE"),
        "extshadow": ("safe", "24", "154", "SAFE"),
        "repeated3": ("unsafe", "32", "725", "UNSAFE-BASELINE"),
        "repeated4": ("unsafe", "52", "3883", "UNSAFE-BASELINE"),
        "repeated5": ("safe", "60", "16212", "SAFE"),
        "iommu": ("safe", "24", "160", "SAFE"),
        "iommu_noshootdown": ("unsafe", "24", "160", "UNSAFE-BASELINE"),
        "capio": ("safe", "64", "4788", "SAFE"),
        "capio_noepoch": ("unsafe", "64", "4788", "UNSAFE-BASELINE"),
    }
    assert ("hardened methods (shrimp1, keyed, extshadow, repeated5, "
            "iommu, capio) all SAFE: yes") in out
    assert "no method NEWLY-UNSAFE: yes" in out


def test_atomics_command(capsys):
    out = run_cli(capsys, "atomics")
    assert "keyed" in out and "extshadow" in out and "kernel" in out


def test_bus_command(capsys):
    out = run_cli(capsys, "bus", "--iterations", "5")
    assert "PCI 66" in out


def test_stress_command(capsys):
    out = run_cli(capsys, "stress", "--seed", "3")
    assert "shrimp2" in out
    assert "repeated5" in out


def test_generations_command(capsys):
    out = run_cli(capsys, "generations")
    assert "1990" in out and "1999" in out
    assert "dominates" in out


def test_crossover_command(capsys):
    out = run_cli(capsys, "crossover", "--iterations", "5")
    assert "Crossover sizes" in out
    assert "gigabit" in out


def test_hunt_command_rediscovers_and_gates(capsys):
    out = run_cli(capsys, "hunt", "--seed", "7",
                  "--max-candidates", "60",
                  "--methods", "repeated3,repeated4,shrimp1")
    assert "FOUND" in out
    assert "broken variants rediscovered (repeated3, repeated4): yes" in out
    assert "hardened methods survived (shrimp1): yes" in out


def test_hunt_command_k_fault_campaign(capsys):
    out = run_cli(capsys, "hunt", "--seed", "7",
                  "--max-candidates", "30",
                  "--methods", "shrimp1,extshadow",
                  "--k-faults", "2", "--max-combos", "40")
    assert "k-fault campaign (k=2)" in out
    assert "SAFE" in out
    assert "all campaigned methods SAFE under k=2 faults: yes" in out


def test_hunt_command_writes_json_report(capsys, tmp_path):
    import json

    path = tmp_path / "hunt.json"
    out = run_cli(capsys, "hunt", "--seed", "7",
                  "--max-candidates", "40",
                  "--methods", "repeated3", "--output", str(path))
    assert f"wrote {path}" in out
    payload = json.loads(path.read_text())
    assert payload["seed"] == 7
    assert payload["hunts"][0]["method"] == "repeated3"
    assert payload["hunts"][0]["found"] is True
    assert payload["hunts"][0]["shrunk"]["length"] <= 4
    assert payload["spans"]  # obs spans were threaded through
    assert "check" in payload["phases"]


ALL_SUBCOMMANDS = sorted(COMMANDS) + ["all"]


@pytest.mark.parametrize("name", ALL_SUBCOMMANDS)
def test_help_smoke_every_subcommand(capsys, name):
    """`repro <cmd> --help` exits 0 and shows the shared option group."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([name, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--seed" in out
    assert "--json" in out


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for name in ALL_SUBCOMMANDS:
        assert name in out


def test_every_subcommand_has_help_text():
    assert set(COMMAND_HELP) == set(COMMANDS) | {"all"}


@pytest.mark.parametrize("name", ALL_SUBCOMMANDS)
def test_shared_seed_and_json_options_parse(name):
    """--seed/--json (and the --output alias) parse on every subcommand."""
    args = build_parser().parse_args(
        [name, "--seed", "11", "--json", "out.json"])
    assert args.seed == 11
    assert args.output == "out.json"
    args = build_parser().parse_args([name, "--output", "alias.json"])
    assert args.output == "alias.json"


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_soak_command_defaults():
    args = build_parser().parse_args(["soak"])
    assert args.tenants == 200
    assert args.duration == 20
    assert args.skew == "zipf"
    assert args.fault_rate == 0.0
    assert args.shards == 4


def test_soak_command_runs_and_writes_report(capsys, tmp_path):
    import json

    out = tmp_path / "soak.json"
    trend = tmp_path / "trend.json"
    stdout = run_cli(capsys, "soak", "--tenants", "12", "--duration", "3",
                     "--shards", "2", "--seed", "3",
                     "--fault-rate", "0.1",
                     "--json", str(out), "--trend", str(trend))
    assert "verdict" in stdout
    report = json.loads(out.read_text())
    assert report["benchmark"] == "service_soak"
    assert report["requests"]["wrong_transfers"] == 0
    assert "_service" not in report
    trend_report = json.loads(trend.read_text())
    assert trend_report["kind"] == "service_trend"


def test_serve_command_serves_one_connection(capsys):
    """End-to-end: `repro serve` answers a request over TCP."""
    import asyncio
    import json
    import threading

    from repro.service.frontend import serve_forever, ServiceConfig

    async def scenario():
        ready = asyncio.Event()
        task = asyncio.get_running_loop().create_task(serve_forever(
            ServiceConfig(shards=1, seed=3), ready=ready,
            max_connections=1, tick_wall=True))
        await ready.wait()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", ready.port)
        writer.write(json.dumps({"tenant": "cli", "size": 256}).encode()
                     + b"\n")
        await writer.drain()
        response = json.loads(await reader.readline())
        writer.close()
        await task
        return response

    response = asyncio.run(scenario())
    assert response["ok"] is True
    assert response["bytes_moved"] == 256
    assert threading.active_count() >= 1  # smoke: no leaked loops


def test_hunt_command_missing_attack_fails_gate(capsys, monkeypatch):
    """If rediscovery fails, the command exits non-zero (the CI gate)."""
    def never_finds(methods=None, config=None, tracer=None, profiler=None):
        from repro.verify.synth.search import HuntReport

        return [HuntReport(method=m, seed=0)
                for m in (methods or ("repeated3",))]

    monkeypatch.setattr("repro.verify.synth.run_hunt", never_finds)
    with pytest.raises(SystemExit):
        main(["hunt", "--max-candidates", "5",
              "--methods", "repeated3"])
