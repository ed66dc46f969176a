"""Command-line interface: exit codes, outputs, frozen CSV header."""

import csv
import io

import pytest

from commsched.cli import BENCHMARK_HEADER, main
from commsched.scenarios import canned_scenario, generate_random

MINIMAL = """SCENARIO v1
[AGENTS]
agent id=a0 base=0 capability=7
cost agent=a0 task=t0 time=1 energy=1
[TASKS]
task id=t0 required=1 reward=0 size=0 preds= owner=a0 category= storage=0
[CONTACTS]
[SCRIPT]
[CONFIG]
horizon seconds=4 steps=4
objective kind=makespan
cycle broadcast=1 plan=1 execute=4 budget_nodes=100
comm_energy per_bit=0
[END]
"""

CYCLIC = MINIMAL.replace(
    "task id=t0 required=1 reward=0 size=0 preds= owner=a0 category= storage=0",
    "task id=t0 required=1 reward=0 size=0 preds=t1 owner=a0 category= storage=0\n"
    "task id=t1 required=1 reward=0 size=0 preds=t0 owner=a0 category= storage=0",
).replace("cost agent=a0 task=t0 time=1 energy=1",
          "cost agent=a0 task=t0 time=1 energy=1\ncost agent=a0 task=t1 time=1 energy=1")


@pytest.fixture
def scenario_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestSolve:
    def test_minimal_scenario(self, tmp_path, scenario_file):
        out = tmp_path / "result.txt"
        rc = main(["solve", scenario_file("min.scn", MINIMAL), "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "status optimal" in text
        assert text.count("placement ") == 1

    def test_relay_output_contains_two_hops(self, tmp_path, scenario_file):
        out = tmp_path / "relay.txt"
        rc = main(["solve", scenario_file("relay.scn", canned_scenario("relay").to_text()),
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "comm src=rover dst=relay task=sample_rover" in text
        assert "comm src=relay dst=base task=sample_rover" in text

    def test_cyclic_scenario_exits_2(self, capsys, scenario_file):
        rc = main(["solve", scenario_file("cyc.scn", CYCLIC)])
        assert rc == 2
        assert "cycle" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert main(["solve", "/nonexistent.scn"]) == 2

    @pytest.mark.parametrize("nodes", ["-5", "0", "many"])
    def test_bad_budget_exits_2(self, capsys, scenario_file, nodes):
        with pytest.raises(SystemExit) as exc:
            main(["solve", scenario_file("min.scn", MINIMAL), "--budget-nodes", nodes])
        assert exc.value.code == 2
        assert "--budget-nodes" in capsys.readouterr().err

    def test_budget_overrides_scenario(self, tmp_path, scenario_file, capsys):
        rc = main(["solve", scenario_file("min.scn", MINIMAL), "--budget-nodes", "1",
                   "--out", str(tmp_path / "r.txt")])
        assert rc == 0
        assert "nodes=1 " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    @pytest.mark.parametrize("level", ["9", "-1"])
    def test_capability_outside_3_bits_exits_2(self, capsys, scenario_file, command, level):
        text = MINIMAL.replace("capability=7", f"capability={level}")
        assert main([command, scenario_file("cap.scn", text)]) == 2
        assert "capability" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "simulate", "export"])
    def test_missing_field_exits_2(self, capsys, scenario_file, command):
        text = MINIMAL.replace("horizon seconds=4 steps=4", "horizon seconds=4")
        assert main([command, scenario_file("min.scn", text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing field 'steps'" in err

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_zero_steps_exits_2(self, capsys, scenario_file, command):
        text = MINIMAL.replace("horizon seconds=4 steps=4", "horizon seconds=4 steps=0")
        assert main([command, scenario_file("min.scn", text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at least one step" in err

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_unknown_agent_exits_2(self, capsys, scenario_file, command):
        text = MINIMAL.replace("[CONTACTS]\n", "[CONTACTS]\nrate src=a0 dst=zz start=0 end=3 bps=5\n")
        assert main([command, scenario_file("min.scn", text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: rate src=a0 dst=zz ") and "unknown agent 'zz'" in err

    def test_objective_override(self, tmp_path, scenario_file):
        out = tmp_path / "r.txt"
        rc = main(["solve", scenario_file("min.scn", MINIMAL), "--objective", "reward",
                   "--out", str(out)])
        assert rc == 0
        assert "value 0" in out.read_text()


class TestSimulate:
    def test_static_scenario_digests_agree(self, tmp_path, scenario_file):
        out = tmp_path / "sim"
        rc = main(["simulate", scenario_file("relay.scn", canned_scenario("relay").to_text()),
                   "--cycles", "2", "--out", str(out)])
        assert rc == 0
        digests = (out / "digests.txt").read_text().splitlines()
        by_cycle = {}
        for line in digests:
            cycle, agent, sha = line.split()
            by_cycle.setdefault(cycle, set()).add(sha)
        assert all(len(shas) == 1 for shas in by_cycle.values())
        assert (out / "trace.txt").exists()

    @pytest.mark.parametrize("cycles", ["0", "-2"])
    def test_non_positive_cycles_exit_2(self, capsys, scenario_file, cycles):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", scenario_file("min.scn", MINIMAL), "--cycles", cycles])
        assert exc.value.code == 2
        assert "--cycles" in capsys.readouterr().err

    def test_horizon_longer_than_execute_phase_exits_2(self, capsys, scenario_file):
        text = canned_scenario("relay").to_text()
        assert "execute=30 " in text  # the relay horizon is 8 s
        path = scenario_file("relay.scn", text.replace("execute=30 ", "execute=1 "))
        assert main(["simulate", path, "--cycles", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario:") and "execute phase" in err

    def test_negative_script_rate_exits_2(self, capsys, scenario_file):
        text = canned_scenario("relay").to_text()
        assert "link src=rover dst=base bps=0" in text
        path = scenario_file("relay.scn", text.replace("dst=base bps=0", "dst=base bps=-5"))
        assert main(["simulate", path, "--cycles", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "negative rate" in err

    def test_rerun_reproduces_trace(self, tmp_path, scenario_file):
        path = scenario_file("mule.scn", canned_scenario("data_mule").to_text())
        outs = []
        for sub in ("s1", "s2"):
            out = tmp_path / sub
            assert main(["simulate", path, "--cycles", "2", "--out", str(out)]) == 0
            outs.append((out / "trace.txt").read_text())
        assert outs[0] == outs[1]


class TestBenchmark:
    def test_header_is_frozen(self):
        assert BENCHMARK_HEADER[:5] == ["scenario", "objective", "budget_nodes", "status", "nodes"]
        assert BENCHMARK_HEADER[-1] == "error"

    def test_zero_science_corpus_has_zero_deltas(self, tmp_path):
        paths = []
        for seed in range(2):
            sc = generate_random(3, 0.0, 1, seed=seed)
            path = tmp_path / f"s{seed}.scn"
            path.write_text(sc.to_text())
            paths.append(str(path))
        out = tmp_path / "bench.csv"
        rc = main(["benchmark", *paths, "--objective", "reward", "--budget-nodes", "500",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 2
        for row in rows:
            assert row["error"] == ""
            assert row["shared_value"] == row["selfish_value"] == "0"
            assert row["collected_shared"] == row["collected_selfish"] == "0"

    @pytest.mark.parametrize("nodes", ["0", "500,-1", "x"])
    def test_bad_budget_list_exits_2(self, scenario_file, nodes):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", scenario_file("min.scn", MINIMAL), "--budget-nodes", nodes])
        assert exc.value.code == 2

    def test_broken_scenario_goes_to_error_column(self, tmp_path, scenario_file):
        bad = scenario_file("bad.scn", "not a scenario\n")
        out = tmp_path / "bench.csv"
        rc = main(["benchmark", bad, "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert rows and all(r["error"] for r in rows)


class TestRender:
    def test_schedule_svg(self, tmp_path, scenario_file):
        sched = tmp_path / "sched.txt"
        rc = main(["solve", scenario_file("relay.scn", canned_scenario("relay").to_text()),
                   "--out", str(sched)])
        assert rc == 0
        out = tmp_path / "sched.svg"
        assert main(["render", str(sched), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg") and "sample_rover" in svg

    def test_identical_bytes(self, tmp_path, scenario_file):
        sched = tmp_path / "sched.txt"
        main(["solve", scenario_file("relay.scn", canned_scenario("relay").to_text()),
              "--out", str(sched)])
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["render", str(sched), "--out", str(a)]) == 0
        assert main(["render", str(sched), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["render", "/nonexistent", "--out", str(tmp_path / "x.svg")]) == 2

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(bytes(range(128, 256)) * 2)
        assert main(["render", str(path), "--out", str(tmp_path / "x.svg")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "x.svg").exists()


class TestExportAndGenerate:
    def test_export_declares_binaries(self, tmp_path, scenario_file):
        out = tmp_path / "model.lp"
        rc = main(["export", scenario_file("relay.scn", canned_scenario("relay").to_text()),
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "Binaries" in text and text.endswith("End\n")

    def test_generate_round_trips(self, tmp_path):
        out = tmp_path / "gen.scn"
        rc = main(["generate", "--agents", "4", "--science-fraction", "0.5",
                   "--samples", "2", "--seed", "3", "--out", str(out)])
        assert rc == 0
        from commsched.scenarios import parse_scenario

        text = out.read_text()
        assert parse_scenario(text).to_text() == text

    @pytest.mark.parametrize(
        "flag, value",
        [("--agents", "1"), ("--agents", "51"), ("--science-fraction", "-1"),
         ("--science-fraction", "5"), ("--samples", "-1")],
    )
    def test_generate_out_of_range_exits_2(self, tmp_path, capsys, flag, value):
        args = {"--agents": "3", "--science-fraction": "0.5", "--samples": "1", flag: value}
        out = tmp_path / "gen.scn"
        rc = main(["generate", *(x for kv in args.items() for x in kv), "--out", str(out)])
        assert rc == 2
        assert "must" in capsys.readouterr().err
        assert not out.exists()


class TestUnwritableOut:
    @pytest.mark.parametrize("command", ["solve", "export", "simulate", "benchmark"])
    def test_missing_directory_exits_2(self, tmp_path, capsys, scenario_file, command):
        path = scenario_file("min.scn", MINIMAL)
        args = [command, path, "--cycles", "1"] if command == "simulate" else [command, path]
        # simulate creates missing directories, so its --out sits under a file.
        (tmp_path / "file").write_text("")
        parent = "file" if command == "simulate" else "missing"
        assert main([*args, "--out", str(tmp_path / parent / "out")]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")

    def test_generate_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "gen.scn"
        assert main(["generate", "--agents", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_render_missing_directory_exits_2(self, tmp_path, capsys, scenario_file):
        sched = tmp_path / "sched.txt"
        assert main(["solve", scenario_file("min.scn", MINIMAL), "--out", str(sched)]) == 0
        capsys.readouterr()
        assert main(["render", str(sched), "--out", str(tmp_path / "missing" / "s.svg")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
