"""Command-line interface: exit codes, outputs, frozen CSV header."""

import csv
import io
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from commsched.cli import BENCHMARK_HEADER, build_parser, main
from commsched.distsim import trace_from_text
from commsched.model import check_schedule
from commsched.scenarios import canned_scenario, generate_random, parse_scenario
from commsched.solver import SolveBudget, result_from_text

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


#: Two 1,000-bit products cross one shared 1 kbps channel (a0>a2 and a1>a3)
#: to sinks worth 10 each; in 3 one-second steps only one crossing fits.
SHARED_CHANNEL = """SCENARIO v1
[AGENTS]
agent id=a0
agent id=a1
agent id=a2
agent id=a3
cost agent=a0 task=s0 time=1 energy=1
cost agent=a1 task=s1 time=1 energy=1
cost agent=a2 task=k0 time=1 energy=1
cost agent=a3 task=k1 time=1 energy=1
[TASKS]
task id=s0 size=1000 owner=a0
task id=s1 size=1000 owner=a1
task id=k0 required=0 reward=10 preds=s0 owner=a2
task id=k1 required=0 reward=10 preds=s1 owner=a3
[CONTACTS]
rate src=a0 dst=a2 start=0 end=2 bps=1000
rate src=a1 dst=a3 start=0 end=2 bps=1000
rate src=a2 dst=a0 start=0 end=2 bps=1000
rate src=a3 dst=a1 start=0 end=2 bps=1000
rate src=a2 dst=a3 start=0 end=2 bps=1000
rate src=a3 dst=a2 start=0 end=2 bps=1000
[CONFIG]
horizon seconds=3 steps=3
objective kind=reward
cycle broadcast=5 plan=1 execute=3 budget_nodes=2000
interference cap=1000 links=a0>a2,a1>a3
[END]
"""


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

    @pytest.mark.parametrize("command", ["solve", "simulate", "export"])
    @pytest.mark.parametrize(
        "old, new",
        [
            ("time=1 energy=1", "time=1/0 energy=1"),
            ("horizon seconds=4 ", "horizon seconds=4/0 "),
            ("[CONFIG]", "at t=1/0 agent id=a0 enabled=0\n[CONFIG]"),
        ],
        ids=["cost", "horizon", "script"],
    )
    def test_zero_denominator_exits_2(self, capsys, scenario_file, command, old, new):
        text = MINIMAL.replace(old, new)
        assert main([command, scenario_file("min.scn", text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "zero denominator" in err

    @pytest.mark.parametrize("command", ["solve", "simulate", "export"])
    def test_cost_of_unknown_task_exits_2(self, capsys, scenario_file, command):
        text = MINIMAL.replace("[TASKS]\n", "cost agent=a0 task=zz time=1 energy=1\n[TASKS]\n")
        assert main([command, scenario_file("min.scn", text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cost agent=a0 task=zz ") and "unknown task 'zz'" in err

    @pytest.mark.parametrize("command", ["solve", "simulate", "export"])
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("capability=7", "capability=7 pos=5:100,0;0:10,0", "pos times must strictly increase"),
            ("time=1 energy=1", "time=1 energy=1\ncost agent=a0 task=t0 time=3 energy=1",
             "a second cost for this agent and task"),
            ("horizon seconds=4 steps=4", "horizon seconds=4 steps=4\nhorizon seconds=2 steps=2",
             "a second 'horizon' record"),
        ],
        ids=["pos", "cost", "horizon"],
    )
    def test_ambiguous_record_exits_2(self, capsys, scenario_file, command, old, new, message):
        text = MINIMAL.replace(old, new)
        line = next(ln for ln in text.splitlines() if ln not in MINIMAL.splitlines())
        assert main([command, scenario_file("min.scn", text)]) == 2
        assert capsys.readouterr().err == f"error: {line}: {message}\n"

    @pytest.mark.parametrize("command", ["solve", "export"])
    def test_negative_channel_capacity_exits_2(self, capsys, scenario_file, command):
        text = SHARED_CHANNEL.replace("cap=1000", "cap=-8")
        assert main([command, scenario_file("shared.scn", text)]) == 2
        assert "invalid scenario: interference set 0: negative capacity" in capsys.readouterr().err

    def test_declared_channel_is_planned(self, tmp_path, scenario_file):
        out = tmp_path / "result.txt"
        path = scenario_file("shared.scn", SHARED_CHANNEL)
        assert main(["solve", path, "--out", str(out)]) == 0
        p = parse_scenario(SHARED_CHANNEL).to_problem()
        schedule = result_from_text(out.read_text()).incumbent
        assert schedule.objective_value == 10
        assert check_schedule(p, schedule) == []

    def test_objective_override(self, tmp_path, scenario_file):
        out = tmp_path / "r.txt"
        rc = main(["solve", scenario_file("min.scn", MINIMAL), "--objective", "reward",
                   "--out", str(out)])
        assert rc == 0
        assert "value 0" in out.read_text()


class TestSizeLimit:
    """A horizon of 10^8 steps is refused from the predicted column count."""

    @pytest.mark.parametrize("command", ["solve", "simulate", "export"])
    def test_huge_horizon_exits_2(self, capsys, scenario_file, command):
        text = canned_scenario("relay").to_text().replace("steps=8\n", "steps=100000000\n")
        assert main([command, scenario_file("big.scn", text)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: the encoding would have 3000000000 binary columns"
        )

    def test_huge_horizon_fills_the_benchmark_error_column(self, tmp_path, scenario_file):
        text = canned_scenario("relay").to_text().replace("steps=8\n", "steps=100000000\n")
        out = tmp_path / "bench.csv"
        assert main(["benchmark", scenario_file("big.scn", text), "--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert rows and all("binary columns" in r["error"] for r in rows)


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

    def test_more_optional_tasks_than_reward_slots_exits_2(self, capsys, scenario_file):
        path = scenario_file("gen.scn", generate_random(2, 1.0, 6, seed=0).to_text())
        assert main(["simulate", path, "--cycles", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "invalid scenario: agent p1 owns 12 optional tasks, more than its 10 reward slots\n"

    def test_declared_channel_is_planned(self, capsys, scenario_file):
        assert main(["simulate", scenario_file("shared.scn", SHARED_CHANNEL), "--cycles", "1"]) == 0
        trace = trace_from_text(capsys.readouterr().out)
        assert trace.select(event="flood")[0].fields()["complete"] == "1"
        assert {r.fields()["value"] for r in trace.select(event="digest")} == {"10"}

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

    @pytest.mark.parametrize(
        "text",
        [
            "hello world\n",
            "a b c d\n",
            "0 plan a0\n",
            "1 x y z\n",
            "",
            "SCHEDULE v1\nhello world\n",
            "SCHEDULE v1\nvalue\n",
            "SCHEDULE v1\ncomm src=a dst=b task=t start=0 end=0\n",
            "SCHEDULE v1\nplacement agent=a task=t start=0 start=5\n",
            "SCHEDULE v1\nplacement agent=a task=t start=0 garbage\n",
            "RESULT v1\nstatus optimal\n",
        ],
    )
    def test_text_that_is_not_a_trace_exits_2(self, tmp_path, capsys, text):
        """Nor a schedule or a result: no reader accepts it, so no file is written."""
        path = tmp_path / "notes.txt"
        path.write_text(text)
        assert main(["render", str(path), "--out", str(tmp_path / "x.svg")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot parse input: ")
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "hello world",
            "comm src=a dst=b task=t start=0 end=0",
            "placement agent=a task=t start=0 start=5",
            "placement agent=a task=t start=0 garbage",
            "placement agent=a task=t start=x",
            "value 3",
        ],
    )
    def test_bad_schedule_record_is_named(self, tmp_path, capsys, line):
        path = tmp_path / "sched.txt"
        path.write_text(f"RESULT v1\nstatus optimal\nvalue 0\nbound 0\nnodes 1\n"
                        f"SCHEDULE v1\nvalue 0\nmakespan 0\n{line}\n")
        assert main(["render", str(path), "--out", str(tmp_path / "x.svg")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot parse input: {line}: ")
        assert not (tmp_path / "x.svg").exists()

    def test_trace_svg(self, tmp_path, scenario_file):
        sim = tmp_path / "sim"
        assert main(["simulate", scenario_file("relay.scn", canned_scenario("relay").to_text()),
                     "--cycles", "1", "--out", str(sim)]) == 0
        out = tmp_path / "trace.svg"
        assert main(["render", str(sim / "trace.txt"), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg") and "cycle 0" in svg and "sample_rover" in svg

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

    def test_generate_warns_when_simulate_would_reject(self, tmp_path, capsys):
        out = tmp_path / "gen.scn"
        rc = main(["generate", "--agents", "2", "--science-fraction", "1", "--samples", "6",
                   "--out", str(out)])
        assert rc == 0 and out.exists()
        assert capsys.readouterr().err == (
            "warning: simulate will reject this scenario:"
            " agent p1 owns 12 optional tasks, more than its 10 reward slots\n"
        )
        assert main(["simulate", str(out), "--cycles", "1"]) == 2

    def test_generate_warns_when_solve_would_reject(self, tmp_path, capsys):
        out = tmp_path / "gen.scn"
        assert main(["generate", "--agents", "15", "--out", str(out)]) == 0 and out.exists()
        err = capsys.readouterr().err
        assert err.startswith("warning: solve and simulate will reject this scenario:"
                              " the encoding would have 226440 binary columns")
        assert main(["solve", str(out)]) == 2

    def test_generate_without_warning(self, tmp_path, capsys):
        assert main(["generate", "--agents", "3", "--out", str(tmp_path / "gen.scn")]) == 0
        assert capsys.readouterr().err == ""

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


class TestGeneratedScenarios:
    @given(
        agents=st.integers(2, 3),
        science=st.floats(0, 1),
        samples=st.integers(0, 8),
        seed=st.integers(0, 2**16),
    )
    @example(agents=2, science=1.0, samples=6, seed=0)  # an agent owns 12 optional tasks
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_never_crash_the_cli(self, tmp_path, agents, science, samples, seed):
        sc = generate_random(agents, science, samples, seed)
        sc = replace(sc, cycle=replace(sc.cycle, budget=SolveBudget(1)))
        path = tmp_path / "gen.scn"
        path.write_text(sc.to_text())
        out = str(tmp_path / "out")
        assert main(["solve", str(path), "--budget-nodes", "1", "--out", out]) in (0, 2)
        assert main(["simulate", str(path), "--cycles", "1", "--out", out]) in (0, 2)


def documented_options() -> dict[str, set[str]]:
    """The long options of each subcommand in README.md's "Command line" block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    options: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("commsched "):
            current = options.setdefault(line.split()[1], set())
        current.update(re.findall(r"--[a-z][a-z-]*", line))
    return options


def test_readme_documents_every_option():
    (subparsers,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    parsed = {
        name: {opt for action in sub._actions for opt in action.option_strings if opt != "--help"}
        - {"-h"}
        for name, sub in subparsers.choices.items()
    }
    assert documented_options() == parsed
