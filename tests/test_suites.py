import json
import os
import random
import subprocess
import sys
import time

import pytest

import germlab.suites as suites
from germlab.chabauty import BudgetError
from germlab.plcircle import T_GROUP
from germlab.suites import (
    _tree_pair,
    available_suites,
    make_cocycle_check,
    make_elliptic_check,
    make_level_check,
    replay,
    resolve_config,
    run_suite,
    spell,
)
from germlab.treesgff import PermGroupPair, cyclic_perms

# small overrides so the whole registry runs quickly; empty means defaults
FAST = {
    "pl-axioms": {"words": 15},
    "germ-ff": {"commutators": 15},
    "compress": {"instances": 10},
    "chabauty-net": {"net": 4},
    "micro-support": {"instances": 6},
    "v-germs": {"samples": 25},
    "gff-cocycle": {"pairs": 10, "elliptic": 6},
    "fullgroup-qi": {"radius_c0": 80, "radius_c01": 160},
    "proj-bn": {"n_max": 5, "words": 10},
}


def test_registry_lists_eleven_suites():
    names = available_suites()
    assert len(names) == 11
    assert names == sorted(names)
    assert "neumann" in names and "gff-levels" in names


def test_every_suite_passes():
    for name in available_suites():
        report = run_suite(name, FAST.get(name), seed=3)
        failed = [c for c in report.checks if c["status"] != "pass"]
        assert not failed, (name, failed)


def test_reports_are_byte_identical_across_reruns():
    for name in ("v-germs", "neumann", "pl-axioms"):
        first = run_suite(name, FAST.get(name), seed=11).to_bytes()
        second = run_suite(name, FAST.get(name), seed=11).to_bytes()
        assert first == second


def test_report_shape_and_ordering():
    report = run_suite("compress", FAST["compress"], seed=2)
    data = json.loads(report.to_bytes())
    assert set(data) == {"schema", "suite", "seed", "config", "checks"}
    assert data["schema"] == 1
    assert data["suite"] == "compress"
    assert data["seed"] == 2
    assert data["config"]["instances"] == 10
    ids = [c["id"] for c in data["checks"]]
    assert ids == sorted(ids)
    for record in data["checks"]:
        assert set(record) == {"id", "status", "witness"}
        assert record["status"] in ("pass", "fail", "skipped")


def test_timings_stay_out_of_canonical_bytes():
    report = run_suite("neumann", seed=0)
    assert set(report.elapsed_ms) == {c["id"] for c in report.checks}
    assert b"elapsed" not in report.to_bytes()


def test_replay_reproduces_each_record():
    report = json.loads(run_suite("v-germs", FAST["v-germs"], seed=9).to_bytes())
    for record in report["checks"]:
        assert replay(report, record["id"]) == record


def test_replay_unknown_check_id():
    report = json.loads(run_suite("neumann", seed=0).to_bytes())
    with pytest.raises(ValueError, match="unknown check id"):
        replay(report, "no-such-check")


def test_unknown_suite_and_bad_config():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")
    with pytest.raises(ValueError, match="unknown config key 'depth'"):
        resolve_config("neumann", {"depth": 3})
    with pytest.raises(ValueError, match="must be an integer"):
        resolve_config("neumann", {"n_max": "six"})
    with pytest.raises(ValueError, match="must be an integer"):
        resolve_config("neumann", {"n_max": True})
    with pytest.raises(ValueError, match="nonnegative"):
        resolve_config("neumann", {"n_max": -1})


def test_config_defaults_are_echoed_after_override():
    merged = resolve_config("gff-cocycle", {"pairs": 2})
    assert merged == {"pairs": 2, "depth": 4, "elliptic": 20}


def test_empty_conjugator_net_fails_and_replays_to_failure():
    # a zero-length net can never stabilize, so two of the three checks
    # fail honestly; the saved witness must fail again under replay
    report = run_suite("chabauty-net", {"net": 0}, seed=0)
    by_id = {c["id"]: c for c in report.checks}
    assert by_id["stabilization"]["status"] == "fail"
    assert by_id["frozen-index"]["status"] == "fail"
    assert by_id["negative-control"]["status"] == "pass"
    assert not report.all_pass()
    data = json.loads(report.to_bytes())
    again = replay(data, "stabilization")
    assert again["status"] == "fail"
    assert again == by_id["stabilization"]


def test_chabauty_net_probes_each_radius_once(monkeypatch):
    probes, conjugators = [], []
    probe, conjugator = suites.conjugate_net_probe, suites.expanding_conjugator

    def counting_probe(group, h_spec, net, limit, radius):
        probes.append((len(net), radius))
        return probe(group, h_spec, net, limit, radius)

    def counting_conjugator(n):
        conjugators.append(n)
        return conjugator(n)

    monkeypatch.setattr(suites, "conjugate_net_probe", counting_probe)
    monkeypatch.setattr(suites, "expanding_conjugator", counting_conjugator)
    for config, want in (({}, [(10, 3), (3, 3)]), ({"radius": 2}, [(10, 3), (3, 2), (10, 2)]),
                         ({"net": 1}, [(1, 3), (3, 3)])):
        report = run_suite("chabauty-net", config, seed=0)
        assert probes == want
        assert sorted(conjugators) == list(range(1, max(want[0][0], 3) + 1))
        # a check replayed alone builds what it needs for itself
        data = json.loads(report.to_bytes())
        for check in report.checks:
            assert replay(data, check["id"]) == check
        probes.clear()
        conjugators.clear()


def test_crashing_check_becomes_fail_record():
    # radius 0 is rejected inside the patch builder; the crash must land
    # in the report as a failure, not escape the runner
    report = run_suite("fullgroup-qi", {"radius_c0": 0, "radius_c01": 0}, seed=0)
    by_id = {c["id"]: c for c in report.checks}
    assert by_id["qi-c0"]["status"] == "fail"
    assert "ValueError" in by_id["qi-c0"]["witness"]["error"]
    assert by_id["return-times"]["status"] == "pass"
    assert not report.all_pass()


def test_checks_survive_python_O():
    # a verification written as assert would vanish under -O; force the
    # compressor's derived-group check to fail and expect a failing report
    code = (
        "import sys\n"
        "import germlab.plcircle as pl\n"
        "from germlab.suites import run_suite\n"
        "pl.in_derived_F = lambda f: False\n"
        "report = run_suite('compress', {'instances': 1})\n"
        "sys.stdout.write(str(sys.flags.optimize) + report.to_bytes().decode())\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout[0] == "1"
    by_id = {c["id"]: c for c in json.loads(done.stdout[1:])["checks"]}
    for check in ("arc-instances", "pinned-example"):
        assert by_id[check]["status"] == "fail"
        assert "RuntimeError" in by_id[check]["witness"]["error"]
    assert by_id["cylinder-instances"]["status"] == "pass"


def test_compress_failure_witnesses_are_pinned(monkeypatch):
    # the witness is built only when a check fails; its bytes are those
    # the suite wrote when it built one for every instance
    import germlab.suites as suites
    from germlab.plcircle import ArcSet

    def arc_witness():
        report = run_suite("compress", {"instances": 3}, seed=5)
        return {c["id"]: c for c in report.to_json()["checks"]}["arc-instances"]["witness"]

    monkeypatch.setattr(suites, "in_derived_F", lambda f: False)
    assert arc_witness() == {"alpha": "1/8", "beta": "5/16", "region": [["1/8", "9/16"]],
                             "reason": "compressor outside derived group"}
    monkeypatch.setattr(suites, "in_derived_F", lambda f: True)
    monkeypatch.setattr(ArcSet, "subset_of", lambda self, other: False)
    assert arc_witness() == {"alpha": "1/8", "beta": "5/16", "region": [["1/8", "9/16"]],
                             "reason": "image escapes target"}


def test_spell_words():
    assert spell(T_GROUP.gens, "aA").is_identity()
    assert spell(T_GROUP.gens, "ab") == T_GROUP.gens["a"] * T_GROUP.gens["b"]
    with pytest.raises(ValueError, match="unknown generator letter"):
        spell(T_GROUP.gens, "ax")


def test_check_factories_run_standalone():
    rng = random.Random(4)
    ray = (0, 1, 0, 1, 0, 1)
    assert make_cocycle_check(_tree_pair(), 3, 2)(rng)["pairs"] == 3
    assert make_elliptic_check(_tree_pair(), ray, 4)(rng)["elements"] == 4
    out = make_level_check(_tree_pair(), ray, 2, 4)(rng)
    assert out["pairs"] > 0


@pytest.mark.parametrize("degree", range(3, 8))
def test_cocycle_ball_count_is_the_geometric_sum(degree):
    small = cyclic_perms(degree)
    # the dihedral group: the rotations and the reflections, one fixing 0
    large = small | {tuple((k - i) % degree for i in range(degree)) for k in range(degree)}
    pair = PermGroupPair(degree, small, large)
    for depth in range(13):
        want = 1 + sum(degree * (degree - 1) ** k for k in range(depth))
        assert make_cocycle_check(pair, 0, depth)(random.Random(0))["vertices"] == want


def test_cocycle_ball_count_at_depth_100000_is_fast():
    # summing the depth big-integer terms took 21.9 s on a 2-vCPU host; the
    # walk stops growing, and the closed form is one power
    start = time.perf_counter()
    out = make_cocycle_check(_tree_pair(), 5, 100_000)(random.Random(0))
    assert time.perf_counter() - start < 1.0
    assert out["pairs"] == 5 and out["vertices"].bit_length() == 200_001


@pytest.mark.parametrize("depth, want", [
    (4, {"pairs": 3132, "levels": 9}),
    (5, {"pairs": 12732, "levels": 11}),
])
def test_level_check_counts_are_pinned(depth, want):
    ray = (0, 1) * 4
    assert make_level_check(_tree_pair(), ray, depth, 4)(random.Random(0)) == want


def test_level_check_obeys_budget(monkeypatch):
    # at max_dist 4 the depth-4 ball has 3,132 level pairs and the depth-3
    # ball 732; the tree pair was built at import, under the default budget
    monkeypatch.setenv("GERMLAB_BUDGET", "1000")
    witnessed = []
    original = suites.level_transitivity_witness

    def counting(*args):
        witnessed.append(args[2:4])
        return original(*args)

    monkeypatch.setattr(suites, "level_transitivity_witness", counting)
    # a budget stop is an error, not a failed check
    with pytest.raises(BudgetError, match="^3132 level pairs exceed the 1000-element budget$"):
        run_suite("gff-levels", {"depth": 4})
    assert witnessed == []
    [check] = run_suite("gff-levels", {"depth": 3}).checks
    assert check["status"] == "pass" and check["witness"]["pairs"] == len(witnessed) == 732


def test_level_check_needs_a_ray_longer_than_the_depth():
    # a depth-6 ball holds the whole ray prefix (0, 1, 0, 1, 0, 1), which has no level
    ray = (0, 1) * 3
    make_level_check(_tree_pair(), ray, 5, 100)
    for depth in (6, 7):
        with pytest.raises(ValueError, match="depth must be below the ray length 6, got %d" % depth):
            make_level_check(_tree_pair(), ray, depth, 4)
    with pytest.raises(ValueError, match="below the ray length 8, got 8"):
        run_suite("gff-levels", {"depth": 8})


def test_seed_changes_report_but_not_validity():
    a = run_suite("germ-ff", FAST["germ-ff"], seed=1)
    b = run_suite("germ-ff", FAST["germ-ff"], seed=2)
    assert a.all_pass() and b.all_pass()
    assert json.loads(a.to_bytes())["seed"] == 1
    assert json.loads(b.to_bytes())["seed"] == 2
