"""One workload process of the benchmark; ``run.py`` starts a fresh one per run.

    python3 perfbench/worker.py setup|run|trace WORKLOAD SEED SIZE SECONDS

``setup`` times importing germlab and building the workload's inputs.
``run`` does the same set-up, then runs the items of the workload in pass
order, over and over, for about SECONDS, each item only after the previous
one returned.
``trace`` runs one pass untraced and one traced, then the fixed-input
rows; it writes the spans to ``.perfbench/WORKLOAD.spans`` and the self
time of each span name to ``.perfbench/WORKLOAD.self.json``.  The last
line on stdout is one JSON object with the results.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

# spans of the traced pass, and self time by span name, land here
SPAN_DIR = Path(".perfbench")


def _setup(workload, seed, size):
    start = time.perf_counter()
    import germlab.cli  # noqa: F401 - imports every germlab module

    imported = time.perf_counter()
    import workloads

    items = workloads.build(workload, seed, size)
    done = time.perf_counter()
    return items, {
        "import_s": imported - start,
        "setup_s": done - start,
        "seeded": [item.id for item in items if item.seeded],
    }


def _run_item(item):
    from workloads import ItemFailed

    start = time.perf_counter()
    try:
        record = {"output": item.run()}
    except ItemFailed as exc:
        record = {"error": "check failed", "witness": exc.witness}
    except Exception as exc:  # noqa: BLE001 - a crash is a failed item
        record = {"error": "%s: %s" % (type(exc).__name__, exc),
                  "traceback": traceback.format_exc(limit=4)}
    record["s"] = time.perf_counter() - start
    return record


def _pass(items, tracer=None):
    start = time.perf_counter()
    records = {}
    for item in items:
        if tracer is None:
            records[item.id] = _run_item(item)
        else:
            records[item.id] = tracer.run("item:" + item.id, lambda: _run_item(item))
    return {"wall_s": time.perf_counter() - start, "items": records}


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed, size, seconds):
    """Run the items in pass order, over and over, for SECONDS.

    The first pass always runs whole.  After it, an item starts only if
    its previous time still fits before the deadline, and the run stops at
    the first one that does not: every run measures about SECONDS, however
    long a pass is, and the items at the head of the pass get one more
    sample than the rest.
    """
    items, setup = _setup(workload, seed, size)
    samples = {item.id: [] for item in items}
    start = time.perf_counter()
    deadline = start + seconds
    ran = 0
    while True:
        item = items[ran % len(items)]
        done = samples[item.id]
        if ran >= len(items) and time.perf_counter() + done[-1]["s"] > deadline:
            break
        done.append(_run_item(item))
        ran += 1
    return dict(setup, samples=samples, measured_s=time.perf_counter() - start,
                peak_rss_mib=_peak_rss_mib())


def trace(workload, seed, size):
    items, setup = _setup(workload, seed, size)
    import layers
    import workloads
    from tracer import Tracer

    untraced = _pass(items)
    tracer = Tracer()
    seen = layers.Observations()
    namespaces = [m for name, m in sys.modules.items() if name.startswith("germlab")]
    for owner, attr, name in layers.COUNTED:
        tracer.count(owner, attr, name)
    tracer.instrument(layers.TRACED_MODULES, seen.hooks(), namespaces + [workloads])
    try:
        traced = _pass(items, tracer)
    finally:
        tracer.restore()
    stats = tracer.aggregate()
    SPAN_DIR.mkdir(exist_ok=True)
    spans_file = SPAN_DIR / ("%s.spans" % workload)
    tracer.write(spans_file)
    with open(SPAN_DIR / ("%s.self.json" % workload), "w", encoding="ascii") as fh:
        json.dump(dict(sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])), fh, indent=1)
    metrics = layers.span_metrics(stats, tracer.counts, seen)
    rows, row_outputs = layers.fixed_rows(size)
    metrics.update(rows)
    return dict(setup, untraced=untraced, traced=traced, spans=len(tracer), spans_file=str(spans_file),
                layers=metrics, units=layers.metric_units(), row_outputs=row_outputs)


def main(argv):
    mode, workload, seed, size, seconds = argv
    seed, seconds = int(seed), float(seconds)
    if mode == "setup":
        _, result = _setup(workload, seed, size)
    elif mode == "run":
        result = run(workload, seed, size, seconds)
    elif mode == "trace":
        result = trace(workload, seed, size)
    else:
        raise SystemExit("unknown mode %r" % mode)
    import germlab

    result["germlab_file"] = germlab.__file__
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
