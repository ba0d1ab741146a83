"""germlab benchmark: three workloads timed end to end, and a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; germlab is imported from ``src/``.
Every run starts fresh child processes (``worker.py``) pinned to one CPU,
with ``PYTHONHASHSEED`` fixed and ``GERMLAB_BUDGET`` removed so the default
budget governs.  Each child runs its items one after another, a closed
loop with one client.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:

* ``wall_s``: wall time of one pass of the workload, as the sum over its
  items of each item's median time (the items run over and over, in pass
  order, for ``--seconds``);
* ``setup_s``: median time for a fresh process to import germlab and build
  the workload's inputs;
* ``peak_rss_mib``: peak resident memory of the process running the items.

``--trace 1`` reports the per-layer metrics (see ``layers.py``): span
counts and self times from one traced pass, fixed-input rows, the
per-suite times and import time of the untraced pass beside it, and the
tracing overhead.

Every item's output is checked against ``reference.json``; a failed
check, a crash, or a differing output counts the item as failed
(``fail_frac`` = failed / attempted), and the run then exits 1.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--record`` rewrites ``reference.json`` from runs at
the default seed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("kernel-laws", "chabauty-probes", "region-dynamics")
DEFAULT_SEED = 0  # the seed reference.json is recorded at
SETUP_SAMPLES = 8  # fresh set-up processes before the timed items, and again after
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr, exit status 2."""


# -- child processes -----------------------------------------------------------


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("GERMLAB_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def _pin():
    """Keep the child on one CPU, the last one this process may use."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})


def _child(mode, workload, seed, size, seconds=0.0):
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), size, str(seconds)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S, preexec_fn=_pin,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("%s child ran over %d s" % (mode, CHILD_TIMEOUT_S)) from exc
    if proc.returncode != 0:
        raise BenchError("%s child failed (exit %d):\n%s" % (mode, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = ROOT / "src" / "germlab" / "__init__.py"
    if Path(result["germlab_file"]).resolve() != expected.resolve():
        raise BenchError("germlab was imported from %s, not %s" % (result["germlab_file"], expected))
    return result


def _setup_samples(workload, seed, size, n, warm=True):
    if warm:
        _child("setup", workload, seed, size)  # compiles bytecode; not timed
    return [_child("setup", workload, seed, size) for _ in range(n)]


# -- statistics and context ------------------------------------------------------


def tail(samples):
    """Median, the highest percentile with at least 10 samples beyond it, n,
    and the samples in the order they were taken."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "samples": list(samples)}
    if n > 10:
        # ordered[n - 11] has exactly 10 samples above it
        out["p%d" % (100 * (n - 10) // n)] = ordered[n - 11]
    return out


def context():
    """Ungated facts about the machine and the code under test."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "src_lines": lines}


# -- checking outputs --------------------------------------------------------------


def check_pass(records, expected, seed, seeded):
    """Failed item ids of one pass: errors, and outputs that differ from ``expected``."""
    failed = []
    for item_id, record in records.items():
        want = expected.get(item_id)
        if "error" in record:
            failed.append(item_id)
        elif want is None:
            failed.append(item_id)  # an item the reference does not know
        elif (item_id not in seeded or seed == DEFAULT_SEED) and record["output"] != want:
            failed.append(item_id)
    return failed


# -- one run ---------------------------------------------------------------------------


def measure(workload, seed, seconds, size, reference):
    """Untraced run: end-to-end metrics, and the items attempted and failed."""
    setups = _setup_samples(workload, seed, size, SETUP_SAMPLES)
    result = _child("run", workload, seed, size, seconds)
    # samples on both sides of the timed items see the machine they saw
    setups += _setup_samples(workload, seed, size, SETUP_SAMPLES, warm=False)
    expected = reference[size][workload]
    seeded = set(result["seeded"])
    samples = result["samples"]
    attempted = failed = 0
    for n in range(max(len(runs) for runs in samples.values())):
        one = {k: runs[n] for k, runs in samples.items() if len(runs) > n}
        bad = set(check_pass(one, expected, seed, seeded))
        # every run of an item must reproduce its first run exactly
        bad.update(k for k, r in one.items() if r.get("output") != samples[k][0].get("output"))
        attempted += len(one)
        failed += len(bad)
        for item_id in sorted(bad):
            _report_failure(workload, n, item_id, one[item_id], expected.get(item_id))
    # one pass is estimated item by item, so a slow spell of the host spoils
    # one sample of one item rather than a whole pass
    item_s = {k: tail([r["s"] for r in runs]) for k, runs in samples.items()}
    passes = [sum(runs[n]["s"] for runs in samples.values())
              for n in range(min(len(runs) for runs in samples.values()))]
    setup_s = [s["setup_s"] for s in setups] + [result["setup_s"]]
    metrics = {
        "wall_s": sum(t["median"] for t in item_s.values()),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mib": result["peak_rss_mib"],
    }
    detail = {"measured_s": result["measured_s"], "passes": tail(passes),
              "items": item_s, "setup_s": tail(setup_s)}
    return metrics, END_TO_END_UNITS, attempted, failed, detail


def measure_traced(workload, seed, size, reference):
    """Traced run: per-layer metrics; tracing must not change any output."""
    setups = _setup_samples(workload, seed, size, SETUP_SAMPLES)
    result = _child("trace", workload, seed, size)
    expected = dict(reference[size][workload], **reference[size]["rows"])
    seeded = set(result["seeded"])
    untraced, traced = result["untraced"]["items"], result["traced"]["items"]
    rows = {k: {"output": v} for k, v in result["row_outputs"].items()}
    bad = set(check_pass(dict(untraced, **rows), expected, seed, seeded))
    # the traced pass repeats the same items: it must reproduce every output
    bad.update(k for k, r in traced.items() if "error" in r or r["output"] != untraced[k].get("output"))
    for item_id in sorted(bad):
        record = untraced.get(item_id) or rows[item_id]
        _report_failure(workload, "traced", item_id, record, expected.get(item_id))
    metrics = dict(result["layers"])
    units = result["units"]
    # suite times come from the untraced pass, free of tracing overhead
    for name in units:
        if name.startswith("suites."):
            record = untraced.get("suite:" + name[len("suites."):-len("_s")])
            metrics[name] = record["s"] if record else 0.0
    metrics["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    metrics["trace.overhead_ratio"] = result["traced"]["wall_s"] / result["untraced"]["wall_s"]
    attempted = len(untraced) + len(rows)
    detail = {"spans": result["spans"], "spans_file": result["spans_file"],
              "untraced_wall_s": result["untraced"]["wall_s"],
              "traced_wall_s": result["traced"]["wall_s"]}
    return metrics, units, attempted, len(bad), detail


def _report_failure(workload, where, item_id, record, want):
    print("FAIL %s pass %s item %s: got %s, want %s" % (
        workload, where, item_id,
        json.dumps({k: v for k, v in record.items() if k != "s"}), json.dumps(want),
    ), file=sys.stderr)


# -- reference recording ------------------------------------------------------------------


def record(path):
    """Rewrite the reference from traced runs at the default seed."""
    reference = {}
    for size in ("full", "tiny"):
        section = {}
        for workload in WORKLOADS:
            result = _child("trace", workload, DEFAULT_SEED, size)
            items = result["untraced"]["items"]
            errors = {k: v for k, v in items.items() if "error" in v}
            if errors:
                raise BenchError("cannot record %s: %s" % (workload, json.dumps(errors)))
            section[workload] = {k: v["output"] for k, v in items.items()}
            section["rows"] = result["row_outputs"]
        reference[size] = section
    with open(path, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- entry point ------------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the benchmark's own tests")
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference file from default-seed runs")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "germlab" / "__init__.py").is_file():
        raise BenchError("no src/germlab under %s: run from the root of a germlab checkout" % ROOT)
    if args.record:
        record(args.reference)
        return 0
    with open(args.reference, encoding="ascii") as fh:
        reference = json.load(fh)
    if args.trace:
        metrics, units, attempted, failed, detail = measure_traced(
            args.workload, args.seed, args.size, reference)
    else:
        metrics, units, attempted, failed, detail = measure(
            args.workload, args.seed, args.seconds, args.size, reference)
    summary = dict(
        workload=args.workload, seed=args.seed, size=args.size, trace=args.trace,
        fail_frac={"value": failed / attempted, "unit": "ratio"}, timings=detail, context=context(),
    )
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
