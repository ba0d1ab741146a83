import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import germlab.chabauty as chabauty
import germlab.cli as cli
from germlab.cli import main
from germlab.projline import LM_GROUP, image_interval, interval_inside
from germlab.suites import _tree_pair


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_pl_groups(capsys):
    code, out, _ = run(capsys, "eval", "--group", "F", "--word", "ab", "--at", "3/8")
    assert code == 0 and out.strip() == "3/16"
    code, out, _ = run(capsys, "eval", "--group", "T", "--word", "c", "--at", "0")
    assert code == 0 and out.strip() == "3/4"


def test_eval_cantor_group(capsys):
    code, out, _ = run(capsys, "eval", "--group", "V", "--word", "a",
                       "--cylinder", "01")
    assert code == 0 and out.strip() == "10"


def test_eval_argument_mismatches(capsys):
    code, _, err = run(capsys, "eval", "--group", "F", "--word", "ab")
    assert code == 2 and "--at is required" in err
    code, _, err = run(capsys, "eval", "--group", "V", "--word", "a")
    assert code == 2 and "--cylinder is required" in err
    code, _, err = run(capsys, "eval", "--group", "F", "--word", "c", "--at", "0")
    assert code == 2 and "not in group F" in err


def test_compress_arcs_reports_containment(capsys):
    code, out, _ = run(capsys, "compress", "--arcs", "1/4:3/4",
                       "--beta", "7/8", "--alpha", "1/8")
    assert code == 0
    data = json.loads(out)
    assert data["in_derived"] is True
    for lo, hi in data["image"]:
        lo, hi = Fraction(lo), Fraction(hi)
        assert hi <= Fraction(1, 8) or lo >= Fraction(7, 8)


def test_compress_cylinder_mode(capsys):
    code, out, _ = run(capsys, "compress", "--cylinder", "0", "--target", "11")
    assert code == 0
    data = json.loads(out)
    assert all(w.startswith("11") for w in data["image"])
    code, _, err = run(capsys, "compress", "--cylinder", "0")
    assert code == 2 and "--target" in err


def test_compress_proj_finds_short_word(capsys):
    code, out, _ = run(capsys, "compress-proj", "--i1", "0,1",
                       "--i2", "1/3,1/2", "--max-len", "6")
    assert code == 0
    word = json.loads(out)["word"]
    g = LM_GROUP.spell(word)
    assert interval_inside(image_interval(g, (0, 1)), (Fraction(1, 3), Fraction(1, 2)))


def test_compress_proj_reports_failure(capsys):
    code, out, _ = run(capsys, "compress-proj", "--i1", "0,1",
                       "--i2", "1/1000,2/1000", "--max-len", "1")
    assert code == 1 and json.loads(out)["word"] is None


def test_chabauty_agreement(capsys):
    code, out, _ = run(capsys, "chabauty", "--group", "F",
                       "--h", "support:1/4:1/2", "--k", "germ:0", "--radius", "3")
    assert code == 0
    assert json.loads(out) == {"agree_radius": 3, "witness_elements": []}


def test_chabauty_disagreement_witnesses(capsys):
    code, out, _ = run(capsys, "chabauty", "--group", "F",
                       "--h", "whole", "--k", "trivial", "--radius", "2")
    assert code == 0
    data = json.loads(out)
    assert data["agree_radius"] == 0
    assert data["witness_elements"] == ["A", "B", "a", "b"]


def test_chabauty_conjugate_and_v_specs(capsys):
    code, out, _ = run(capsys, "chabauty", "--group", "F",
                       "--h", "conj:a:germ:0", "--k", "germ:0", "--radius", "2")
    assert code == 0 and json.loads(out)["agree_radius"] == 2
    code, out, _ = run(capsys, "chabauty", "--group", "V",
                       "--h", "support:01", "--k", "trivial", "--radius", "2")
    assert code == 0 and json.loads(out)["agree_radius"] == 2


def _walked(monkeypatch):
    """The list of the (element, word) pairs that chabauty.walk yields."""
    walked, walk = [], chabauty.walk
    monkeypatch.setattr(chabauty, "walk", lambda *a: (walked.append(s) or s for s in walk(*a)))
    return walked


def test_chabauty_pinned_conjugate_germ_walks_one_ball(capsys, monkeypatch):
    walked = _walked(monkeypatch)
    code, out, _ = run(capsys, "chabauty", "--group", "F", "--h", "germ:0",
                       "--k", "conj:ab:germ:1/2", "--radius", "4")
    assert code == 0
    assert out.strip() == '{"agree_radius":0,"witness_elements":["B","b"]}'
    # one walk, up to the first word of length 2
    assert len(walked) == 6


# stdout of the full-ball scan, at radii past the first disagreement
CHABAUTY_PAST_THE_FIRST_SHELL = [
    (("F", "support:1/4:1/2", "germ:0", "5"),
     '{"agree_radius":3,"witness_elements":'
     '["ABab","AbaB","BAba","BabA","aBAb","abAB","bABa","baBA"]}'),
    (("F", "germ:1/2", "germ:0;1/2", "5"),
     '{"agree_radius":2,"witness_elements":["ABa","Aba"]}'),
    (("T", "germ:1/2", "support:1/4:3/4", "5"),
     '{"agree_radius":2,"witness_elements":["ABa","Aba"]}'),
    (("T", "support:0:1/2", "germ:1", "5"),
     '{"agree_radius":3,"witness_elements":'
     '["ABab","AbaB","BAba","BabA","aBAb","aaBA","abAA","abAB","bABa","baBA"]}'),
    (("V", "conj:a:support:0", "support:0", "4"),
     '{"agree_radius":1,"witness_elements":["Ab","Ba"]}'),
    (("F", "whole", "trivial", "5"),
     '{"agree_radius":0,"witness_elements":["A","B","a","b"]}'),
]


@pytest.mark.parametrize("argv, want", CHABAUTY_PAST_THE_FIRST_SHELL,
                         ids=["-".join(argv[:2]) for argv, _ in CHABAUTY_PAST_THE_FIRST_SHELL])
def test_chabauty_stops_after_the_first_disagreeing_shell(capsys, monkeypatch, argv, want):
    calls = []
    contains = chabauty.SubgroupSpec.contains

    def counting(spec, element):
        calls.append(element)
        return contains(spec, element)

    monkeypatch.setattr(chabauty.SubgroupSpec, "contains", counting)
    walked = _walked(monkeypatch)
    group, h, k, radius = argv
    code, out, _ = run(capsys, "chabauty", "--group", group, "--h", h, "--k", k,
                       "--radius", radius)
    assert code == 0 and out == want + "\n"
    # both specs are tested on the words up to the first disagreeing length
    # only, and the walk stops at the first longer word
    shell, tested = len(json.loads(want)["witness_elements"][0]), len(walked)
    size = len(chabauty.ball(cli._GROUPS[group], shell))
    assert len(calls) == 2 * size and tested == size + 1


def test_chabauty_rejects_bad_spec(capsys):
    code, _, err = run(capsys, "chabauty", "--group", "F",
                       "--h", "nonsense", "--k", "trivial", "--radius", "1")
    assert code == 2 and "cannot parse subgroup spec" in err


@pytest.mark.parametrize("spec", ["conj:a", "conj:"])
def test_chabauty_conjugate_spec_needs_an_inner_spec(capsys, spec):
    code, out, err = run(capsys, "chabauty", "--group", "F",
                         "--h", spec, "--k", "trivial", "--radius", "1")
    assert code == 2 and out == ""
    assert err == "error: conjugate spec %r must look like conj:WORD:SPEC\n" % spec


@pytest.mark.parametrize("argv", [
    ("eval", "--group", "F", "--word", "a", "--at", "1/0"),
    ("compress", "--arcs", "0:1/0", "--beta", "0", "--alpha", "1/2"),
    ("chabauty", "--group", "F", "--h", "support:0:1/0", "--k", "whole", "--radius", "1"),
    ("compress-proj", "--i1", "1/0,1", "--i2", "0,1", "--max-len", "2"),
    ("compress-proj", "--i1", "0,3", "--i2", "0,1", "--max-len", "-1"),
    ("compress-proj", "--i1", "0,1", "--i2", "2,1", "--max-len", "2"),
    ("neumann", "--n", "-1", "--r", "2"),
    ("neumann", "--n", "3", "--r", "-1"),
    ("tree-verify", "--suite", "levels", "--depth", "8"),
    ("verify", "gff-levels", "--set", "depth=8"),
], ids=["eval-zero-denominator", "compress-zero-denominator",
        "chabauty-zero-denominator", "compress-proj-zero-denominator",
        "compress-proj-negative-max-len", "compress-proj-reversed-i2",
        "neumann-negative-n", "neumann-negative-r",
        "tree-verify-depth-past-the-ray", "verify-depth-past-the-ray"])
def test_bad_numbers_exit_2_with_a_message(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_neumann_sweep_pinned(capsys):
    code, out, _ = run(capsys, "neumann", "--n", "6", "--r", "3")
    assert code == 0
    assert json.loads(out) == {
        "groups": 6, "r_max": 3, "covers_checked": 137, "max_min_index": 3,
    }


def test_schreier_writes_dot_and_reports(capsys, tmp_path):
    target = tmp_path / "patch.dot"
    code, out, _ = run(capsys, "schreier", "--u", "0", "--x", "0,0",
                       "--radius", "6", "--out", str(target))
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == [] and data["one_dense"] is True
    text = target.read_text()
    assert text.startswith("graph")
    assert '"0" -- "2";' in text
    # the u(p) notation names the same base point
    code, again, _ = run(capsys, "schreier", "--u", "0", "--x", "0(0)",
                         "--radius", "6", "--out", str(target))
    assert code == 0 and again == out and target.read_text() == text


def test_tree_verify_batteries(capsys):
    code, out, _ = run(capsys, "tree-verify", "--suite", "germ", "--count", "5")
    assert code == 0 and json.loads(out)["status"] == "pass"
    code, out, _ = run(capsys, "tree-verify", "--suite", "levels", "--depth", "2")
    assert code == 0 and json.loads(out)["witness"]["pairs"] > 0
    code, _, err = run(capsys, "tree-verify", "--suite", "cocycle", "--f", "dihedral")
    assert code == 2 and "supported point groups" in err
    # 1 + 5 (4^10000 - 1) / 3 vertices: 6,021 digits, past str(int)'s limit
    code, out, _ = run(capsys, "tree-verify", "--suite", "cocycle", "--depth", "10000",
                       "--count", "2")
    assert code == 0 and out == '{"status":"pass","suite":"cocycle","witness":%s}\n' % (
        '{"pairs":2,"vertices":%s}' % Decimal(1 + 5 * (4 ** 10000 - 1) // 3))


def test_tree_verify_rejects_omega_3(capsys):
    # in A_3 only the identity fixes a color, so there are no half-tree permuters
    code, out, err = run(capsys, "tree-verify", "--omega", "3", "--suite", "germ")
    assert code == 2 and out == ""
    assert "fixes a color" in err and "Traceback" not in err


def test_tree_verify_rejects_omega_1(capsys):
    code, out, err = run(capsys, "tree-verify", "--omega", "1", "--suite", "cocycle")
    assert code == 2 and out == ""
    assert "fixes a color" in err


def test_tree_verify_rejects_negative_count(capsys):
    code, out, err = run(capsys, "tree-verify", "--suite", "cocycle", "--count", "-3")
    assert code == 2 and out == ""
    assert "count must be nonnegative" in err


def test_tree_verify_rejects_negative_depth(capsys):
    code, out, err = run(capsys, "tree-verify", "--suite", "cocycle", "--depth", "-1")
    assert code == 2 and out == ""
    assert "depth must be nonnegative" in err


def test_tree_verify_obeys_budget(capsys, monkeypatch):
    # the compose table of A_5 has 60^2 entries
    monkeypatch.setenv("GERMLAB_BUDGET", "1000")
    code, out, err = run(capsys, "tree-verify", "--suite", "cocycle", "--count", "1")
    assert code == 2 and out == ""
    assert "budget" in err and "Traceback" not in err


def test_tree_verify_gates_the_degree_before_building_its_groups(capsys, monkeypatch):
    # omega! passes the default budget from omega 9 on; the cyclic group
    # holds omega^2 entries, so it is built after the gate
    monkeypatch.delenv("GERMLAB_BUDGET", raising=False)
    built = []
    monkeypatch.setattr(cli, "cyclic_perms", built.append)
    code, out, err = run(capsys, "tree-verify", "--omega", "3000", "--suite", "germ")
    assert code == 2 and out == "" and built == []
    assert err == "error: 3000! permutations exceed the 200000-element budget\n"


def test_chabauty_budget_error_names_the_radius(capsys, monkeypatch):
    monkeypatch.setenv("GERMLAB_BUDGET", "20")
    # two specs that agree on the whole ball, so the walk must reach radius 3
    code, out, err = run(capsys, "chabauty", "--group", "F", "--h", "whole",
                         "--k", "whole", "--radius", "3")
    assert code == 2 and out == ""
    assert "budget at radius 3 of 3, with 20 elements" in err
    assert "Traceback" not in err


def test_small_budget_does_not_stop_the_import(tmp_path):
    # the suites build their tree pair on first use, not at import
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, GERMLAB_BUDGET="20")
    done = subprocess.run(
        [sys.executable, "-m", "germlab.cli", "eval", "--group", "F", "--word", "ab",
         "--at", "3/8"], env=env, capture_output=True, text=True, cwd=tmp_path)
    assert done.returncode == 0 and done.stdout.strip() == "3/16", done.stderr


def test_compress_proj_obeys_budget(capsys, monkeypatch):
    monkeypatch.setenv("GERMLAB_BUDGET", "5")
    code, out, err = run(capsys, "compress-proj", "--i1", "0,1",
                         "--i2", "1/3,1/2", "--max-len", "6")
    assert code == 2 and out == ""
    assert "budget" in err and "Traceback" not in err


def test_neumann_obeys_budget(capsys, monkeypatch):
    monkeypatch.setenv("GERMLAB_BUDGET", "20")
    # 22 coset sets by order 3
    code, out, err = run(capsys, "neumann", "--n", "6", "--r", "3")
    assert code == 2 and out == ""
    assert "budget" in err and "Traceback" not in err


def test_neumann_order_19_answers_under_the_default_budget(capsys, monkeypatch):
    # Z/19 has two subgroups; no search over its 2^18 subsets is made
    monkeypatch.delenv("GERMLAB_BUDGET", raising=False)
    code, out, err = run(capsys, "neumann", "--n", "19", "--r", "1")
    assert code == 0 and err == ""
    assert json.loads(out) == {"groups": 19, "r_max": 1, "covers_checked": 19,
                               "max_min_index": 1}


@pytest.mark.parametrize("argv, budget, message", [
    # 204,892 coset sets by order 14; the loop over them would run for minutes
    (("neumann", "--n", "24", "--r", "5"), None, "204892 coset sets"),
    (("schreier", "--x", "0,1", "--radius", "20000"), "1000", "40001 vertices"),
    (("tree-verify", "--suite", "levels", "--depth", "7"), None, "204732 level pairs"),
], ids=["neumann", "schreier", "tree-verify-levels"])
def test_commands_stop_at_the_budget_before_looping(tmp_path, argv, budget, message):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {k: v for k, v in os.environ.items() if k != "GERMLAB_BUDGET"}
    env["PYTHONPATH"] = src
    if budget is not None:
        env["GERMLAB_BUDGET"] = budget
    dot = tmp_path / "patch.dot"
    if argv[0] == "schreier":
        argv += ("--out", str(dot))
    done = subprocess.run([sys.executable, "-m", "germlab.cli", *argv], env=env,
                          capture_output=True, text=True, cwd=tmp_path, timeout=2)
    assert done.returncode == 2 and done.stdout == ""
    assert message in done.stderr and "budget" in done.stderr
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert not dot.exists()


def test_verify_and_replay_exit_2_at_the_budget(capsys, monkeypatch, tmp_path):
    # a budget stop is no verdict: no report, no record, exit 2; the tree
    # pair's 60^2 compose table is built first, under the default budget
    _tree_pair()
    monkeypatch.setenv("GERMLAB_BUDGET", "1000")
    code, out, err = run(capsys, "verify", "gff-levels", "--set", "depth=4")
    assert code == 2 and out == ""
    assert err == "error: 3132 level pairs exceed the 1000-element budget\n"
    saved = tmp_path / "levels.json"
    code, _, _ = run(capsys, "verify", "gff-levels", "--out", str(saved))
    assert code == 0
    monkeypatch.setenv("GERMLAB_BUDGET", "700")
    code, out, err = run(capsys, "replay", str(saved), "level-witnesses")
    assert code == 2 and out == ""
    assert err == "error: 732 level pairs exceed the 700-element budget\n"


def test_verify_writes_deterministic_report(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    code, _, err = run(capsys, "verify", "v-germs", "--seed", "5",
                       "--set", "samples=20", "--out", str(first))
    assert code == 0
    assert "[pass] moved-points" in err
    code, _, _ = run(capsys, "verify", "v-germs", "--seed", "5",
                     "--set", "samples=20", "--out", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_reads_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nsamples = 20\n")
    out_file = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify", "v-germs", "--seed", "5",
                     "--config", str(cfg), "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["config"] == {"samples": 20}
    assert report["schema"] == 1


def test_verify_error_paths(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "nosuch")
    assert code == 2 and "unknown suite" in err
    code, _, err = run(capsys, "verify", "neumann", "--set", "nonsense")
    assert code == 2 and "key=value" in err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("justakey\n")
    code, _, err = run(capsys, "verify", "neumann", "--config", str(cfg))
    assert code == 2 and "expected 'key = value'" in err


def test_verify_failure_exit_code_and_replay(capsys, tmp_path):
    saved = tmp_path / "fail.json"
    code, _, _ = run(capsys, "verify", "chabauty-net", "--set", "net=0",
                     "--out", str(saved))
    assert code == 1
    code, out, _ = run(capsys, "replay", str(saved), "stabilization")
    assert code == 1
    record = json.loads(out)
    assert record["status"] == "fail"
    saved_record = [
        c for c in json.loads(saved.read_text())["checks"]
        if c["id"] == "stabilization"
    ][0]
    assert record == saved_record


def test_replay_passing_check(capsys, tmp_path):
    saved = tmp_path / "ok.json"
    code, _, _ = run(capsys, "verify", "neumann", "--out", str(saved))
    assert code == 0
    code, out, _ = run(capsys, "replay", str(saved), "sweep")
    assert code == 0 and json.loads(out)["status"] == "pass"
    code, _, err = run(capsys, "replay", str(saved), "bogus")
    assert code == 2 and "unknown check id" in err
    # a report holding a ball count past str(int)'s limit reads back
    run(capsys, "verify", "gff-cocycle", "--set", "depth=10000", "--set", "pairs=2",
        "--out", str(saved))
    code, out, _ = run(capsys, "replay", str(saved), "cocycle-identity")
    assert code == 0 and '"status":"pass"' in out and out[:-1] in saved.read_text()


def test_budget_env_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("GERMLAB_BUDGET", "3")
    code, _, err = run(capsys, "chabauty", "--group", "F",
                       "--h", "whole", "--k", "trivial", "--radius", "2")
    assert code == 2 and "budget" in err


def test_negative_radius_is_rejected(capsys):
    code, out, err = run(capsys, "chabauty", "--group", "F",
                         "--h", "whole", "--k", "trivial", "--radius", "-3")
    assert code == 2 and out == ""
    assert "radius must be nonnegative" in err and "Traceback" not in err


def test_replay_rejects_non_object_report(capsys, tmp_path):
    saved = tmp_path / "list.json"
    saved.write_text("[1, 2, 3]\n")
    code, out, err = run(capsys, "replay", str(saved), "sweep")
    assert code == 2 and out == ""
    assert "must be a JSON object" in err
    saved.write_text('{"suite": "neumann", "config": [1]}\n')
    code, out, err = run(capsys, "replay", str(saved), "sweep")
    assert code == 2 and out == ""
    assert "config must be an object" in err


def test_non_integer_budget_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("GERMLAB_BUDGET", "lots")
    code, out, err = run(capsys, "chabauty", "--group", "F",
                         "--h", "whole", "--k", "trivial", "--radius", "2")
    assert code == 2 and out == ""
    assert "GERMLAB_BUDGET" in err and "'lots'" in err
