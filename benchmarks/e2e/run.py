"""The repo's benchmark of record: five workloads from kernel to fabric.

    python3 benchmarks/e2e/run.py [--workload a,b] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick] [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --update-golden

Every rep and every set-up sample is a fresh child process (``child.py``),
reps go round-robin across the selected workloads, and every delivered
report is checked against ``golden.json`` (default seed) or a local
reference run (any other seed).  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the full record,
with quartiles and the host stamp, goes to ``--out``.  README.md has the
metric and workload tables and the noise protocol.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

#: Fresh-process set-up samples per workload (rep children count).
SETUP_SAMPLES = 12
CHILD_TIMEOUT_S = 150.0

#: Simulated-time metrics: they repeat exactly, so --compare wants equality.
EXACT_METRICS = ("exec_err_pct", "exec_acc_pct", "model_speedup", "fail_frac")


def load_contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------- #
# Children
# --------------------------------------------------------------------- #


class ChildFailed(Exception):
    pass


def launch(mode, workload, seed, quick, scratch):
    """Run one child in its own fresh temp dir; return its result with
    ``setup_s`` (spawn timestamp to the child's "ready") filled in."""
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(dir=scratch))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [sys.executable, str(HERE / "child.py"), "--mode", mode,
               "--workload", workload, "--seed", str(seed)]
    if quick:
        command.append("--quick")
    spawned_t = time.monotonic()
    # Its own session, so a timeout can kill the child's job processes too.
    proc = subprocess.Popen(
        command, cwd=tmp, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload} {mode} child exceeded {CHILD_TIMEOUT_S:g} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode} child exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_t"] - spawned_t
    return result


# --------------------------------------------------------------------- #
# References: golden for the default seed, local runs otherwise
# --------------------------------------------------------------------- #


def import_suite():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import suite

    return suite


def compute_reference(suite, spec):
    """Run ``spec`` and its cycle-by-cycle twin locally (untimed)."""
    from repro.harness.pool import execute_spec

    report, _ = execute_spec(spec)
    cc_spec = suite.cc_reference_spec(spec)
    cc = report if cc_spec == spec else execute_spec(cc_spec)[0]
    return {
        "digest": report.digest(),
        "instructions": report.instructions,
        "cc_target_cycles": cc.target_cycles,
        "cc_sim_time_s": cc.sim_time_s,
    }


def references(suite, names, seed, quick, golden):
    """Per workload, one reference entry per distinct spec."""
    refs = {}
    for name in names:
        specs, _ = suite.workload_specs(name, seed, quick)
        refs[name] = []
        for spec in specs:
            label = suite.spec_label(spec)
            if label not in golden:
                golden[label] = compute_reference(suite, spec)
            refs[name].append(golden[label])
    return refs


def load_golden():
    return json.loads(GOLDEN.read_text())["specs"] if GOLDEN.exists() else {}


def update_golden(suite):
    specs = {}
    for quick in (False, True):
        references(suite, list(suite.WORKLOADS), suite.DEFAULT_SEED, quick, specs)
    doc = {"seed": suite.DEFAULT_SEED, "specs": dict(sorted(specs.items()))}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(specs)} reference entries to {GOLDEN}")


# --------------------------------------------------------------------- #
# Measuring
# --------------------------------------------------------------------- #


def check_rep(result, refs):
    """Count the rep's failed operations and derive its simulated-time
    metrics against the cycle-by-cycle references."""
    for n, error in list(result["errors"].items())[:5]:
        print(f"error: operation {n}: {error}", file=sys.stderr)
    result["attempted"] = len(result["digests"])
    result["failed"] = sum(
        digest != refs[index]["digest"]
        for index, digest in zip(result["spec_indices"], result["digests"])
    )
    delivered = [(refs[int(index)], spec) for index, spec in result["per_spec"].items()]
    if not delivered:
        raise ChildFailed("the rep delivered no report at all")
    result["exec_err_pct"] = 100.0 * sum(
        abs(spec["target_cycles"] - ref["cc_target_cycles"]) / ref["cc_target_cycles"]
        for ref, spec in delivered
    ) / len(delivered)
    result["model_speedup"] = sum(
        ref["cc_sim_time_s"] / spec["sim_time_s"] for ref, spec in delivered
    ) / len(delivered)
    result["exact"] = {
        layer: sum(spec["exact"][layer] for _, spec in delivered) / len(delivered)
        for layer in delivered[0][1]["exact"]
    }
    return result


def measure(names, seed, seconds, quick, refs, scratch):
    """Warm-up, reps round-robin across workloads, then set-up samples."""
    reps = {name: [] for name in names}
    setups = {name: [] for name in names}
    for name in names:  # discarded: fills __pycache__ and the page cache
        launch("setup", name, seed, quick, scratch)
    budget = 0.0 if quick else seconds
    active = list(names)
    while active:
        for name in list(active):
            result = check_rep(launch("rep", name, seed, quick, scratch), refs[name])
            reps[name].append(result)
            setups[name].append(result["setup_s"])
            measured = sum(r["wall_s"] for r in reps[name])
            # Stop where one more rep would overshoot the budget by more
            # than stopping here undershoots it.
            if measured + 0.5 * result["wall_s"] > budget:
                active.remove(name)
    wanted = 1 if quick else SETUP_SAMPLES
    for _ in range(wanted):
        for name in names:
            if len(setups[name]) < wanted:
                setups[name].append(launch("setup", name, seed, quick, scratch)["setup_s"])
    return {name: summarize(reps[name], setups[name]) for name in names}


def spread(values):
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    return {"min": ordered[0], "q1": q1, "median": median, "q3": q3, "max": ordered[-1],
            "n": len(ordered), "samples": list(values)}


def summarize(reps, setups):
    """One workload's end-to-end metrics from its reps and set-up samples.

    Host times are the best rep, not the median: on a shared host
    interference only ever adds time, so the minimum is the figure that
    repeats (README.md, "Noise protocol", has the measurements).
    """
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics = {}

    def put(name, unit, value, values=None):
        metrics[name] = {"value": value, "unit": unit}
        if values is not None:
            metrics[name].update(spread(values))

    walls = [r["wall_s"] for r in reps]
    kips = [r["instructions"] / r["wall_s"] / 1e3 for r in reps]
    rss = [r["peak_rss_kb"] / 1024.0 for r in reps]
    put("setup_s", "s", min(setups), setups)
    put("wall_s", "s", min(walls), walls)
    put("sim_kips", "kinstr/s", max(kips), kips)
    put("peak_rss_mb", "MB", statistics.median(rss), rss)
    first = reps[0]
    put("exec_err_pct", "%", first["exec_err_pct"])
    put("exec_acc_pct", "%", 100.0 - first["exec_err_pct"])
    put("model_speedup", "x", first["model_speedup"])
    put("fail_frac", "fraction", failed / attempted)
    # Simulated time must not depend on which rep delivered it.
    repeatable = all(
        (r["exec_err_pct"], r["model_speedup"], r["exact"])
        == (first["exec_err_pct"], first["model_speedup"], first["exact"])
        for r in reps
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and repeatable,
        "reps": len(reps),
        "metrics": metrics,
        "exact": first["exact"],
    }


def measure_traced(names, seed, quick, refs, scratch, contract):
    """One traced child per workload; returns per-layer metrics and spans."""
    layer_names = [m["name"] for m in contract["per_layer"]]
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    docs, spans = {}, []
    for name in names:
        result = check_rep(launch("trace", name, seed, quick, scratch), refs[name])
        layers = dict(result["exact"])
        layers.update(result["layers"])
        for span in result["spans"]:
            span["workload"] = name
        spans.extend(result["spans"])
        docs[name] = {
            "attempted": result["attempted"],
            "failed": result["failed"],
            "correct": result["failed"] == 0,
            "exact": result["exact"],
            # A layer the workload never enters reads 0.
            "metrics": {
                layer: {"value": layers.get(layer, 0.0), "unit": units[layer]}
                for layer in layer_names
            },
        }
    return docs, spans


# --------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------- #


def host_stamp():
    from repro.harness.hostinfo import host_fingerprint

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the checkout is not a git repository
    return {"host": host_fingerprint(), "nproc": os.cpu_count(), "commit": commit}


def print_table(docs):
    for name, doc in docs.items():
        print(f"{name}: {doc['attempted']} attempted, {doc['failed']} failed")
        for metric, entry in doc["metrics"].items():
            detail = ""
            if "median" in entry:
                detail = (f"  (min {entry['min']:.4g}, median {entry['median']:.4g}, "
                          f"q1-q3 {entry['q1']:.4g}-{entry['q3']:.4g}, n={entry['n']})")
            print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}{detail}")


def final_line(docs, wanted):
    """The driver's result object; metric names carry the workload only
    when several were run."""
    metrics = {}
    for name, doc in docs.items():
        for metric in wanted:
            entry = doc["metrics"][metric]
            key = metric if len(docs) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    return {
        "correct": all(doc["correct"] for doc in docs.values()),
        "attempted": sum(doc["attempted"] for doc in docs.values()),
        "failed": sum(doc["failed"] for doc in docs.values()),
        "metrics": metrics,
    }


def compare(path_a, path_b):
    """B against A: each end-to-end metric against its bound, simulated
    metrics and exact counts for equality; per-layer times are never
    compared.  Returns the exit code."""
    contract = load_contract()
    rules = {m["name"]: m for m in contract["end_to_end"]}
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in (path_a, path_b))
    for doc in (a, b):
        if not doc.get("comparable", True):
            print("warning: a --quick result is not comparable")
    bad = 0
    print("workload       metric                      A ->            B   B worse by (of bound)")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, entry in wa["metrics"].items():
            if metric not in wb["metrics"]:
                continue
            va, vb = entry["value"], wb["metrics"][metric]["value"]
            if metric in EXACT_METRICS:
                verdict = "ok" if va == vb else "DIFFERS"
                print(f"{name:14s} {metric:16s} {va:12.6g} -> {vb:12.6g}  exact     {verdict}")
            elif metric not in rules:
                continue
            else:
                rule = rules[metric]
                worse = (vb - va) / va if rule["better"] == "lower" else (va - vb) / va
                verdict = "ok" if worse <= rule["bound"] else "WORSE"
                print(f"{name:14s} {metric:16s} {va:12.6g} -> {vb:12.6g}  {worse:+7.2%} "
                      f"of {rule['bound']:.0%}  {verdict}")
            bad += verdict != "ok"
        if wa["exact"] != wb["exact"]:
            moved = sorted(k for k in wa["exact"] if wa["exact"][k] != wb["exact"].get(k))
            print(f"{name:14s} exact counts differ: {', '.join(moved)}")
            bad += 1
    print("agree" if not bad else f"{bad} outside bounds")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", "--workloads", default=None,
                        help="comma-separated workload names (default: all five)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="1 rep, 1 set-up sample, a tenth of every size; not comparable")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="result file (default: benchmarks/e2e/out/result.json)")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    contract = load_contract()
    suite = import_suite()
    if args.update_golden:
        update_golden(suite)
        return 0

    names = args.workload.split(",") if args.workload else list(suite.WORKLOADS)
    unknown = [name for name in names if name not in suite.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(suite.WORKLOADS)}")
    seed = suite.DEFAULT_SEED if args.seed is None else args.seed
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds

    scratch = OUT / f"tmp-{os.getpid()}"
    stamp = host_stamp()
    stamp.update(seed=seed, seconds=seconds, quick=args.quick, trace=bool(args.trace),
                 loadavg_start=os.getloadavg()[0])
    started = time.monotonic()
    refs = references(suite, names, seed, args.quick, load_golden())
    try:
        if args.trace:
            docs, spans = measure_traced(names, seed, args.quick, refs, scratch, contract)
            OUT.mkdir(exist_ok=True)
            with open(OUT / "trace.jsonl", "w") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
            wanted = [m["name"] for m in contract["per_layer"]]
        else:
            docs = measure(names, seed, seconds, args.quick, refs, scratch)
            wanted = [m["name"] for m in contract["end_to_end"]]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    stamp.update(loadavg_end=os.getloadavg()[0], elapsed_s=time.monotonic() - started)
    stamp["noisy_host"] = max(stamp["loadavg_start"], stamp["loadavg_end"]) > stamp["nproc"]

    record = {"stamp": stamp, "comparable": not args.quick, "workloads": docs}
    out = args.out or OUT / ("trace-result.json" if args.trace else "result.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    print_table(docs)
    if stamp["noisy_host"]:
        print(f"warning: load average exceeded nproc={stamp['nproc']}; host times are suspect")
    print(f"{'traced' if args.trace else 'measured'} in {stamp['elapsed_s']:.1f} s; "
          f"record in {out}")
    line = final_line(docs, wanted)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
