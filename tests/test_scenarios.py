"""Scenario builders, the bandwidth model, and the file format."""

import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from commsched import Objective, brute_force, check_schedule, validate_problem
from commsched.scenarios import (
    DEFAULT_COSTS,
    MAX_BINARY_COLUMNS,
    MBPS,
    ScenarioFormatError,
    UnknownScenario,
    canned_scenario,
    generate_random,
    geometric_rates,
    parse_scenario,
    puffer_network,
)


class TestRoverNetwork:
    def test_science_rewards(self):
        net, _ = puffer_network(1, {1: 1})
        rewards = {t.category: t.reward for t in net.tasks if not t.required}
        assert rewards == {"collect": 5, "analyze": 10, "store": 20}

    def test_single_rover_is_a_chain(self):
        net, owners = puffer_network(1)
        assert net.M == 4
        ids = net.task_ids
        assert all(owners[t] == "p1" for t in ids)
        by_id = net.by_id
        assert by_id["localize_p1"].predecessors == {"capture_p1"}
        assert by_id["plan_p1"].predecessors == {"localize_p1"}
        assert by_id["drive_p1"].predecessors == {"plan_p1"}

    def test_three_rovers_one_zone_three_slots(self):
        net, owners = puffer_network(3, {2: 3})
        housekeeping = [t for t in net.tasks if t.required]
        science = [t for t in net.tasks if not t.required]
        assert len(housekeeping) == 12 and len(science) == 9
        assert all(owners[t.id] == "base" for t in science if t.category == "store")

    def test_relocatable_housekeeping_costs_twice_a_science_task(self):
        relocatable = DEFAULT_COSTS["localize"] + DEFAULT_COSTS["plan"]
        assert relocatable == 2 * DEFAULT_COSTS["collect"]
        assert relocatable == 2 * DEFAULT_COSTS["analyze"]


class TestGeometricRates:
    def test_close_range_tier(self):
        assert geometric_rates((0, 0), (3, 0)) == 11 * MBPS

    def test_long_range_tier(self):
        assert geometric_rates((0, 0), (100, 0)) == MBPS

    def test_intermediate_tier(self):
        assert geometric_rates((0, 0), (10, 0)) == Fraction(11, 2) * MBPS

    def test_out_of_range(self):
        assert geometric_rates((0, 0), (201, 0)) == 0

    def test_obstruction_blocks(self):
        wall = ((10, -5), (12, -5), (12, 5), (10, 5))
        assert geometric_rates((0, 0), (20, 0), (wall,)) == 0
        assert geometric_rates((0, 0), (20, 30), (wall,)) == MBPS

    def test_segment_inside_polygon_blocks(self):
        box = ((-50, -50), (50, -50), (50, 50), (-50, 50))
        assert geometric_rates((-1, 0), (1, 0), (box,)) == 0


class TestGenerator:
    def test_same_seed_same_bytes(self):
        a = generate_random(5, 0.5, 2, seed=9).to_text()
        b = generate_random(5, 0.5, 2, seed=9).to_text()
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_random(5, 0.5, 2, seed=1).to_text() != generate_random(
            5, 0.5, 2, seed=2
        ).to_text()

    def test_zero_science_fraction_has_no_optionals(self):
        p = generate_random(4, 0.0, 3, seed=4).to_problem()
        assert all(t.required for t in p.network.tasks)

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_scenarios_validate(self, seed):
        p = generate_random(3 + seed % 4, 0.5, 3, seed=seed).to_problem()
        assert validate_problem(p).ok

    def test_agent_bounds(self):
        with pytest.raises(ValueError):
            generate_random(1, 0.5, 1, seed=0)
        with pytest.raises(ValueError):
            generate_random(51, 0.5, 1, seed=0)


class TestCanned:
    def test_unknown_name(self):
        with pytest.raises(UnknownScenario):
            canned_scenario("warp_drive")

    @pytest.mark.parametrize("name", ["relay", "science_cluster", "assembly_line", "data_mule"])
    def test_all_validate(self, name):
        assert validate_problem(canned_scenario(name).to_problem()).ok

    def test_relay_forces_multi_hop(self):
        p = canned_scenario("relay").to_problem()
        s = brute_force(p, interference=False)
        assert s.objective_value == 20
        third_party = [c for c in s.comms if c.dst not in ("rover", "base") or c.src not in ("rover", "base")]
        assert any(c.dst == "relay" for c in s.comms)
        assert not check_schedule(p, s)

    def test_assembly_line_analyzes_en_route(self):
        p = canned_scenario("assembly_line").to_problem()
        s = brute_force(p)
        assert s.objective_value == 35
        analyze = s.placement_of("analyze_p1_s1")
        assert analyze is not None and analyze.agent == "h1"

    def test_data_mule_transfers_before_window(self):
        p = canned_scenario("data_mule").to_problem()
        s = brute_force(p)
        assert s.objective_value == 20
        to_mule = [c for c in s.comms if c.dst == "mule"]
        from_mule = [c for c in s.comms if c.src == "mule"]
        assert to_mule and from_mule
        assert max(c.end for c in to_mule) < min(c.start for c in from_mule)
        assert min(c.start for c in from_mule) >= 5


class TestFileFormat:
    def test_round_trip_bytes(self):
        for name in ("relay", "science_cluster", "assembly_line", "data_mule"):
            text = canned_scenario(name).to_text()
            assert parse_scenario(text).to_text() == text
        text = generate_random(4, 0.5, 2, seed=11).to_text()
        assert parse_scenario(text).to_text() == text

    def test_round_trip_problem_equivalence(self):
        sc = generate_random(3, 0.5, 1, seed=13)
        p1 = sc.to_problem()
        p2 = parse_scenario(sc.to_text()).to_problem()
        assert p1 == p2

    def test_unknown_field_rejected(self):
        text = canned_scenario("relay").to_text().replace(
            "agent id=rover", "agent id=rover color=red", 1
        )
        with pytest.raises(ScenarioFormatError):
            parse_scenario(text)

    def test_unknown_section_rejected(self):
        text = canned_scenario("relay").to_text().replace("[SCRIPT]", "[EXTRAS]\nfoo bar\n[SCRIPT]")
        with pytest.raises(ScenarioFormatError):
            parse_scenario(text)

    def test_contacts_and_geometry_exclusive(self):
        text = canned_scenario("relay").to_text().replace(
            "[SCRIPT]", "[GEOMETRY]\nobstruction points=0,0;1,0;1,1\n[SCRIPT]"
        )
        with pytest.raises(ScenarioFormatError):
            parse_scenario(text)

    @pytest.mark.parametrize("level", ["9", "8", "-1"])
    def test_capability_outside_3_bits_rejected(self, level):
        text = canned_scenario("relay").to_text().replace(
            "agent id=relay base=0 capability=7", f"agent id=relay base=0 capability={level}", 1
        )
        assert text != canned_scenario("relay").to_text()
        with pytest.raises(ScenarioFormatError, match="capability"):
            parse_scenario(text)

    def test_negative_script_rate_rejected(self):
        text = canned_scenario("relay").to_text()
        text = text.replace("link src=rover dst=base bps=0", "link src=rover dst=base bps=-1/2")
        with pytest.raises(ValueError, match="negative rate"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("agent id=rover base=0", "agent base=0", "id"),
            ("task=deliver_base time=1 energy=1", "task=deliver_base time=1", "energy"),
            ("task id=sample_rover ", "task ", "id"),
            ("rate src=rover dst=relay", "rate dst=relay", "src"),
            ("[CONTACTS]", "[GEOMETRY]\nobstruction\n[CONTACTS]", "points"),
            ("dst=base bps=0", "dst=base", "bps"),
            ("[CONFIG]", "at t=1 agent enabled=0\n[CONFIG]", "id"),
            ("[CONFIG]", "at t=1 zone agent=rover\n[CONFIG]", "in"),
            ("horizon seconds=8 steps=8", "horizon seconds=8", "steps"),
            ("objective kind=reward", "objective terms=reward:1", "kind"),
            (" budget_nodes=2000", "", "budget_nodes"),
            ("[END]", "interference links=rover>relay\n[END]", "cap"),
            ("comm_energy per_bit=0", "comm_energy", "per_bit"),
        ],
        ids=[
            "agent", "cost", "task", "rate", "obstruction", "link-event", "agent-event",
            "zone-event", "horizon", "objective", "cycle", "interference", "comm_energy",
        ],
    )
    def test_missing_field_rejected(self, old, new, field):
        text = canned_scenario("relay").to_text()
        assert text.count(old) == 1
        with pytest.raises(ScenarioFormatError, match=f"missing field '{field}'"):
            parse_scenario(text.replace(old, new))

    @pytest.mark.parametrize(
        "old, new, agent",
        [
            ("cost agent=base task=deliver_base", "cost agent=zz task=deliver_base", "zz"),
            ("owner=rover", "owner=zz", "zz"),
            ("rate src=rover dst=relay", "rate src=rover dst=zz", "zz"),
            ("link src=rover dst=base", "link src=qq dst=base", "qq"),
            ("[CONFIG]", "at t=1 agent id=zz enabled=0\n[CONFIG]", "zz"),
            ("[CONFIG]", "at t=1 zone agent=qq in=0\n[CONFIG]", "qq"),
            ("[END]", "interference cap=5 links=rover>relay,relay>zz\n[END]", "zz"),
        ],
        ids=["cost", "task-owner", "rate", "link-event", "agent-event", "zone-event", "interference"],
    )
    def test_unknown_agent_rejected(self, old, new, agent):
        text = canned_scenario("relay").to_text()
        assert text.count(old) == 1
        bad = text.replace(old, new)
        line = next(ln for ln in bad.splitlines() if agent in ln)
        with pytest.raises(ScenarioFormatError, match=f"unknown agent '{agent}'") as exc:
            parse_scenario(bad)
        assert str(exc.value).startswith(line)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("pos=0:10,0", "pos=0:10/0,0"),
            ("task=deliver_base time=1 ", "task=deliver_base time=1/0 "),
            ("size=2000000", "size=1/0"),
            ("reward=20", "reward=20/0"),
            ("dst=base start=0 end=7 bps=1000000", "dst=base start=0 end=7 bps=1/0"),
            ("at t=0 link", "at t=1/0 link"),
            ("dst=base bps=0", "dst=base bps=0/0"),
            ("[CONFIG]", "at t=1/0 zone agent=rover in=0\n[CONFIG]"),
            ("horizon seconds=8 ", "horizon seconds=8/0 "),
            ("objective kind=reward", "objective kind=weighted terms=reward:1/0"),
            ("cycle broadcast=5 ", "cycle broadcast=5/0 "),
            ("[END]", "interference cap=1/0 links=rover>relay\n[END]"),
            ("per_bit=0", "per_bit=1/00"),
        ],
        ids=[
            "agent-pos", "cost", "task-size", "task-reward", "rate", "link-event-time",
            "link-event-bps", "zone-event-time", "horizon", "objective", "cycle",
            "interference", "comm_energy",
        ],
    )
    def test_zero_denominator_rejected(self, old, new):
        text = canned_scenario("relay").to_text()
        assert text.count(old) == 1
        bad = text.replace(old, new)
        line = next(ln for ln in bad.splitlines() if "/0" in ln)
        with pytest.raises(ScenarioFormatError, match="zero denominator") as exc:
            parse_scenario(bad)
        assert str(exc.value).startswith(line)

    def test_cost_of_unknown_task_rejected(self):
        text = canned_scenario("relay").to_text()
        line = "cost agent=rover task=zz time=1 energy=1"
        bad = text.replace("[TASKS]", f"{line}\n[TASKS]")
        with pytest.raises(ScenarioFormatError, match="unknown task 'zz'") as exc:
            parse_scenario(bad)
        assert str(exc.value).startswith(line)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("pos=0:10,0", "pos=5:100,0;0:10,0", "pos times must strictly increase"),
            ("pos=0:10,0", "pos=0:10,0;0:30,0", "pos times must strictly increase"),
            (
                "cost agent=base task=deliver_base time=1 energy=1",
                "cost agent=base task=deliver_base time=1 energy=1\n"
                "cost agent=base task=deliver_base time=3 energy=1",
                "a second cost for this agent and task",
            ),
            (
                "horizon seconds=8 steps=8",
                "horizon seconds=8 steps=8\nhorizon seconds=4 steps=4",
                "a second 'horizon' record",
            ),
            (
                "objective kind=reward",
                "objective kind=reward\nobjective kind=energy",
                "a second 'objective' record",
            ),
            (
                "budget_nodes=2000",
                "budget_nodes=2000\ncycle broadcast=1 plan=1 execute=30 budget_nodes=5",
                "a second 'cycle' record",
            ),
            (
                "comm_energy per_bit=0",
                "comm_energy per_bit=0\ncomm_energy per_bit=1",
                "a second 'comm_energy' record",
            ),
        ],
        ids=["pos-unsorted", "pos-tied", "cost", "horizon", "objective", "cycle", "comm_energy"],
    )
    def test_ambiguous_record_rejected(self, old, new, message):
        text = canned_scenario("relay").to_text()
        assert text.count(old) == 1
        bad = text.replace(old, new)
        line = next(ln for ln in bad.splitlines() if ln not in text.splitlines())
        with pytest.raises(ScenarioFormatError, match=message) as exc:
            parse_scenario(bad)
        assert str(exc.value).startswith(line)

    def test_rate_and_interference_records_may_repeat(self):
        text = canned_scenario("relay").to_text()
        rate = "rate src=rover dst=relay start=0 end=7 bps=1000000"
        channel = "interference cap=5 links=rover>relay"
        text = text.replace(rate, f"{rate}\n{rate}").replace("[END]", f"{channel}\n{channel}\n[END]")
        sc = parse_scenario(text)
        assert sc.rates.count(sc.rates[0]) == 2
        assert len(sc.interference) == 2

    def test_zero_steps_rejected(self):
        text = canned_scenario("relay").to_text().replace("steps=8", "steps=0")
        with pytest.raises(ValueError, match="at least one step"):
            parse_scenario(text).to_problem()

    def test_missing_header_rejected(self):
        with pytest.raises(ScenarioFormatError):
            parse_scenario("[AGENTS]\n")

    def test_weighted_objective_round_trip(self):
        sc = canned_scenario("relay")
        from dataclasses import replace

        sc = replace(sc, objective=Objective.weighted([("reward", 3), ("energy", Fraction(1, 2))]))
        text = sc.to_text()
        again = parse_scenario(text)
        assert again.objective == sc.objective
        assert again.to_text() == text


class TestSizeGuard:
    @pytest.mark.parametrize(
        "make", [lambda: canned_scenario("relay"), lambda: generate_random(3, 0.5, 1, 2)]
    )
    def test_huge_horizon_is_rejected_from_the_estimate(self, make):
        sc = replace(make(), steps=10**9)
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"binary columns .*, more than {MAX_BINARY_COLUMNS}"):
            sc.to_problem()
        assert time.perf_counter() - started < 1

    def test_number_with_exponent_is_refused_at_once(self):
        text = canned_scenario("relay").to_text()
        line = next(ln for ln in text.splitlines() if ln.startswith("rate "))
        bad = text.replace(line, line.rsplit("=", 1)[0] + "=1e99999999")
        started = time.perf_counter()
        with pytest.raises(ValueError, match="without an exponent"):
            parse_scenario(bad)
        assert time.perf_counter() - started < 1

    def test_limit_is_inclusive(self):
        sc = canned_scenario("relay")
        n, m = len(sc.agents), len(sc.tasks)
        steps = MAX_BINARY_COLUMNS // (n * n * m + 2 * n * m)
        assert replace(sc, steps=steps).to_problem().horizon.num_steps == steps
        with pytest.raises(ValueError, match="binary columns"):
            replace(sc, steps=steps + 1).to_problem()


SEED_TEXTS = tuple(
    canned_scenario(name).to_text() for name in ("relay", "science_cluster", "assembly_line", "data_mule")
) + tuple(
    generate_random(agents, 0.5, samples, seed).to_text()
    for agents, samples, seed in ((2, 1, 0), (3, 2, 1))
)
#: Characters a substitution draws: digits, signs, separators, letters.
ALPHABET = "0123456789-+=,;:/.>[]# xe\n"
#: Replacement values, huge and degenerate, beside the values in the text.
EDGE_VALUES = ("9" * 40, "-" + "9" * 40, "1e99999999", "0", "-1", "1/0", "", "x")


@st.composite
def mutated_scenario(draw):
    """A scenario text with one to three character substitutions, value
    swaps, duplicated or deleted lines, or dropped fields."""
    lines = draw(st.sampled_from(SEED_TEXTS)).splitlines()
    values = sorted({t.split("=", 1)[1] for ln in lines for t in ln.split() if "=" in t})
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        kind = draw(st.sampled_from(("char", "value", "duplicate", "delete", "drop")))
        if kind == "char" and lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i] = lines[i][:j] + draw(st.sampled_from(ALPHABET)) + lines[i][j + 1 :]
        elif kind == "value" and any("=" in t for t in tokens):
            j = draw(st.sampled_from([j for j, t in enumerate(tokens) if "=" in t]))
            value = draw(st.sampled_from(EDGE_VALUES + tuple(values)))
            tokens[j] = tokens[j].split("=", 1)[0] + "=" + value
            lines[i] = " ".join(tokens)
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "delete":
            del lines[i]
        elif kind == "drop" and len(tokens) > 1:
            del tokens[draw(st.integers(1, len(tokens) - 1))]
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@given(text=mutated_scenario())
@settings(max_examples=800, deadline=None)
def test_mutated_scenario_raises_only_value_errors(text):
    try:
        p = parse_scenario(text).to_problem()
        event(f"valid={validate_problem(p).ok}")
    except ScenarioFormatError:
        event("ScenarioFormatError")
    except ValueError:
        event("ValueError")
