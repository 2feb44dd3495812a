"""specnet3d benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the repository root.  The package is imported from ``src/``
of the checkout the script sits in, never from an installed copy.  Each
run sets its inputs up from ``--seed`` several times (``setup_s`` is the
median), then repeats the workload's operation, one call at a time, until
``--seconds`` have passed, checking every output.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` spends the first half of the time untraced and the second
half with per-layer spans installed, and reports the per-layer metrics
plus the tracing overhead.  Spans and a full result record (environment
included) go to ``.perfbench_runs/`` in the checkout.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 1 when any correctness check fails, 2 when the checkout
has no package to measure.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_runs")
WORKLOAD_NAMES = ("train", "map", "eval_sparse", "scene_io")
# setup repeats until it has run this long (3 to 200 times), so a setup
# of a few milliseconds still gets a median over many repetitions
SETUP_MIN_S = 1.0
SETUP_MIN_REPS, SETUP_MAX_REPS = 3, 200


def import_package():
    """Import specnet3d from this checkout's src/ or exit with code 2."""
    init = os.path.join(SRC, "specnet3d", "__init__.py")
    if not os.path.isfile(init):
        print(f"perfbench: no package at {init}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import specnet3d
    if os.path.abspath(specnet3d.__file__) != init:
        print(f"perfbench: imported specnet3d from {specnet3d.__file__}, not {init}",
              file=sys.stderr)
        sys.exit(2)


def median(values):
    return statistics.median(values) if values else 0.0


def run_ops(wl, budget_s, log):
    """Closed loop: call wl.op() until budget_s has passed (at least once).
    Returns (op wall times, failed op count)."""
    times, failed = [], 0
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = wl.op()
        except Exception:  # a failed op is counted, not fatal
            times.append(time.perf_counter() - t0)
            failed += 1
            log(f"FAIL {wl.name}: op raised\n{traceback.format_exc()}")
        else:
            times.append(time.perf_counter() - t0)
            problems = wl.check(result)
            del result  # the next op must not run with this one's output alive
            if problems:
                failed += 1
                for p in problems:
                    log(f"FAIL {wl.name}: {p}")
        if time.perf_counter() - start >= budget_s:
            return times, failed


def measure(name, seed, seconds, trace, size=None, out_dir=OUT_DIR, log=None):
    """Run one workload and return its result record."""
    import envinfo
    import spans
    import workloads

    log = log or (lambda msg: print(msg, file=sys.stderr, flush=True))
    size = size or workloads.FULL
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    run_id = f"{name}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "run_id": run_id, "environment": envinfo.environment(seed)}
    try:
        wl = workloads.WORKLOADS[name](size, workdir)
        setup_s = []
        while (len(setup_s) < SETUP_MIN_REPS
               or sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPS):
            gc.collect()
            t0 = time.perf_counter()
            wl.setup(seed)
            setup_s.append(time.perf_counter() - t0)

        problems = [f"tracing wrappers installed before an untraced phase: {w}"
                    for w in spans.installed()]
        untraced, failed = run_ops(wl, seconds / 2 if trace else seconds, log)
        attempted = len(untraced) + 1  # the final checks count as one more
        if trace:
            with spans.Tracer(run_id) as tracer:
                traced, n_failed = run_ops(wl, seconds / 2, log)
            attempted += len(traced)
            failed += n_failed
            problems += [f"tracing wrapper left installed: {w}" for w in spans.installed()]
            spans_path = os.path.join(out_dir, f"{run_id}.spans.jsonl")
            tracer.write(spans_path)
            record["spans_file"] = spans_path
        problems += wl.final_checks() + envinfo.thread_problems(record["environment"])
        failed += bool(problems)
        for p in problems:
            log(f"FAIL {name}: {p}")

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record.update(attempted=attempted, failed=failed, correct=failed == 0,
                      items_per_op=wl.items, item=wl.item,
                      op_s=untraced, setup_samples_s=setup_s)
        if trace:
            overhead = (median(traced) / median(untraced) - 1.0) * 100.0
            summary = tracer.summary()
            record["layers"] = spans.layer_metrics(
                summary, len(traced), wl.items * len(traced), overhead)
            record["span_summary"] = summary
            record["train_coverage"] = (tracer.coverage("training.train")
                                        if "training.train" in summary else None)
            record["flops_check"] = flops_check(wl, record["layers"]["ops.flops_per_pixel"][0])
            record["traced_op_s"] = traced
        else:
            record["end_to_end"] = {
                "setup_s": (median(setup_s), "s", len(setup_s)),
                "peak_rss_mb": (peak_rss_mb, "MB", 1),
                "op_latency_s": (median(untraced), "s", len(untraced)),
                "items_per_s": (wl.items * len(untraced) / sum(untraced), "items/s",
                                len(untraced)),
            }
            record["derived"] = derived(wl, untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record


def flops_check(wl, traced):
    """Traced FLOPs per pixel beside the patch-path count from shape_trace.
    Training runs forward and backward, so its patch count is 3x."""
    import spans
    import specnet3d as sn
    import workloads
    from specnet3d.network import ModelConfig

    if not traced:
        return None
    model = sn.build_model(ModelConfig(wl.size.bands, workloads.CLASSES), 0)
    factor = 3 if wl.name == "train" else 1
    return {"traced_flops_per_pixel": traced,
            "shape_trace_flops_per_pixel": factor * spans.patch_flops_per_pixel(model)}


def derived(wl, times):
    """The workload-named figures behind op_latency_s and items_per_s."""
    rate = wl.items * len(times) / sum(times)
    if wl.name == "train":
        return {"train_epoch_s": median(times), "train_samples_per_s": rate}
    if wl.name == "map":
        # derived, not measured: a full PaviaU scene at this tile's rate
        return {"map_pixels_per_s": rate, "paviau_map_s_derived": 207_400 / rate}
    if wl.name == "eval_sparse":
        return {"eval_pixels_per_s": rate}
    return {"cube_save_mb_per_s": wl.items / median(wl.save_s),
            "cube_load_mb_per_s": wl.items / median(wl.load_s)}


def metrics_line(record):
    table = record["end_to_end"] if record["trace"] == 0 else record["layers"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": t[0], "unit": t[1]} for k, t in table.items()},
    })


def report(record, out=sys.stdout):
    """Human-readable table: every metric by name, unit and sample count."""
    env = record["environment"]
    p = lambda s="": print(s, file=out)
    p(f"== workload {record['workload']}  seed {record['seed']}  "
      f"seconds {record['seconds']}  trace {record['trace']}")
    p("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    p(f"one op = {record['items_per_op']:g} {record['item']}")
    if record["trace"] == 0:
        p(f"{'metric':<24}{'value':>16}  {'unit':<10}samples")
        for k, (v, u, n) in record["end_to_end"].items():
            p(f"{k:<24}{v:>16.6g}  {u:<10}{n}")
        for k, v in record["derived"].items():
            p(f"{k:<24}{v:>16.6g}")
    else:
        p(f"{'per-layer metric':<32}{'value':>16}  unit")
        for k, (v, u) in record["layers"].items():
            p(f"{k:<32}{v:>16.6g}  {u}")
        calls = {n: s["calls"] for n, s in record["span_summary"].items()}
        p("span calls: " + ", ".join(f"{n}={c}" for n, c in sorted(calls.items())))
        if record["train_coverage"] is not None:
            p(f"named spans cover {record['train_coverage']:.1%} of train() wall time")
        if record["flops_check"]:
            fc = record["flops_check"]
            p(f"FLOPs per pixel (computed): traced {fc['traced_flops_per_pixel']:.6g}, "
              f"shape_trace {fc['shape_trace_flops_per_pixel']:.6g}")
        p("waiting: every layer is single-threaded Python/numpy; time waiting "
          "inside OpenBLAS threads cannot be seen from outside and is not reported")
        p(f"spans: {record['spans_file']}")
    p(f"error_rate {record['failed'] / record['attempted']:.6g} "
      f"({record['failed']} failed / {record['attempted']} attempted)")


def save_record(record):
    path = os.path.join(OUT_DIR, f"{record['run_id']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def run_all(args):
    """Every workload in turn, each in its own process so peak RSS is its own."""
    import subprocess

    code = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, proc.returncode)
        summary[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
    print(json.dumps(summary))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(args)
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    save_record(record)
    report(record)
    print(metrics_line(record), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
