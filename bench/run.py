"""psbicm benchmark: end-to-end throughput, or per-layer times from a traced run.

Run from the repository root:

    python3 bench/run.py --workload sweep|coded_uniform|coded_pas|all \\
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

``--trace 0`` (default) sets up the workload, runs one untimed warm-up
operation, then runs operations single-threaded for ``--seconds``
seconds and reports every end-to-end metric.  The set-up is timed again
after every operation and ``setup_s`` is the median.  So is a fixed
host-speed kernel (``HostKernel``): ``lvalues_per_ref_s`` is the
measured throughput scaled by the kernel's median time over
``REF_KERNEL_S``, so that the host's own speed drift, which moves
kernel and operations alike, cancels.  ``--trace 1``
runs a fixed number of operations untraced (checked, and a warm-up),
then makes two traced passes in which every operation also runs
untraced next to its traced run.  It reports the per-layer metrics of
the first traced pass, the tracing overhead (traced against untraced
wall time of the same operations), and whether the two traced passes
reproduced the same exact counts; a mismatch marks the run incorrect.

Every operation is checked outside the timed region (see
``workloads.check``); a failed check counts as a failed operation.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller result
document with provenance (and, for ``--trace 1``, every span) is written
under ``bench/out/``.  ``--workload all`` runs the three workloads in
turn, each in its own process, and prints one table.

The committed default seed is ``DEFAULT_SEED``; ``HELDOUT_SEED`` is kept
out of tuning for held-out confirmation of later claims.
``--record-reference`` rewrites ``bench/reference.json``, the result
fields of operation 0 of each workload under those two seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_FILE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 1
HELDOUT_SEED = 7919
DEFAULT_SECONDS = 35.0
# One reference second: the time in which HostKernel.seconds() runs 25
# times.  The kernel takes about this long on a 2-vCPU Xeon VM, so
# lvalue/ref-s reads close to lvalue/s there.
REF_KERNEL_S = 0.04
# Kernel runs after each operation: about a tenth of the run, so that the
# median over the run is not itself a noisy sample of the host's speed.
KERNEL_RUNS = 3


def _import_library():
    """Import psbicm from this checkout's src/, and nothing else."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")     # single-threaded, before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import psbicm
    except ImportError as exc:
        sys.exit(f"bench: cannot import psbicm from {ROOT / 'src'}: {exc}")
    if not Path(psbicm.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"bench: psbicm came from {psbicm.__file__}, not this checkout")
    return psbicm


psbicm = _import_library()
import numpy as np  # noqa: E402  (after the path check above)

import spans  # noqa: E402
import workloads  # noqa: E402


def _git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, load1):
    return {
        "psbicm_version": psbicm.__version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loadavg_1min_at_start": load1,
    }


class HostKernel:
    """A fixed computation that measures how fast the host runs right now.

    Numpy elementwise work on a 100000-element array into fresh arrays,
    then an interpreter loop.  Of the kernels tried, this one tracked the
    host's drift in the workloads' own operation times best (the spread of
    30-second medians of a repeated operation fell two- to threefold once
    divided by it).  It calls nothing in psbicm, so a change to the
    library leaves its time alone.
    """

    def __init__(self):
        self.mid = np.random.default_rng(0).standard_normal(100_000)

    def seconds(self):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(6):
            acc += float(np.logaddexp(0.0, -self.mid).sum())
        k = 0
        for i in range(60_000):
            k ^= i & 1023
        elapsed = time.perf_counter() - t0
        if not np.isfinite(acc) or k != 0:
            raise RuntimeError("host-speed kernel computed a wrong result")
        return elapsed


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load_reference(workload, seed, size):
    if size is not workloads.FULL or not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload, {}).get(str(seed))


def _frame_errors(res):
    return round(res.frame_error_rate * res.frames)


def _fer_guard(workload, frames, errors):
    """Problems when frame errors exceed the decoder's reference FER."""
    p = workloads.REFERENCE_FER[workload]
    limit = frames * p + workloads.Z_GUARD * (frames * p * (1.0 - p)) ** 0.5 + 1.0
    if errors > limit:
        return [f"{errors} frame errors in {frames} frames exceed the limit "
                f"{limit:.1f} from the reference FER {p}"]
    return []


def timed_run(args, size):
    """End-to-end metrics with tracing off."""
    w = args.workload

    def timed_setup():
        t0 = time.perf_counter()
        built = workloads.setup(w)
        setup_times.append(time.perf_counter() - t0)
        return built

    # one set-up and KERNEL_RUNS host-speed kernels after every operation
    # as well, so their medians sample the machine across the run, not
    # one moment
    setup_times = []
    kernel = HostKernel()
    kernel.seconds()                    # warm-up
    kernel_times = [kernel.seconds() for _ in range(KERNEL_RUNS)]
    state = timed_setup()
    reference = _load_reference(w, args.seed, size)
    problems, op_times, work = [], [], 0
    attempted = failed = frames = frame_errors = 0
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        n, outputs = workloads.run_op(w, state, args.seed, i, size)
        if i == 0:
            # operation 0 warms allocator and caches; it is checked, not timed
            deadline = time.perf_counter() + args.seconds
        else:
            op_times.append(time.perf_counter() - t0)
            work += n
        attempted += 1
        bad = workloads.check(w, outputs)
        if i == 0 and reference is not None:
            bad += workloads.compare(workloads.summary(w, outputs), reference)
        if w != "sweep":
            res = outputs[0]
            frames += res.frames
            frame_errors += _frame_errors(res)
        if bad:
            failed += 1
            problems += [f"op {i}: {p}" for p in bad]
        i += 1
        del outputs         # free before the next operation allocates
        timed_setup()
        kernel_times += [kernel.seconds() for _ in range(KERNEL_RUNS)]

    if w != "sweep":
        problems += _fer_guard(w, frames, frame_errors)
    lvalues_per_s = work / sum(op_times)
    host_factor = statistics.median(kernel_times) / REF_KERNEL_S
    metrics = {
        "lvalues_per_ref_s": (lvalues_per_s * host_factor, "lvalue/ref-s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    detail = {
        "lvalues_per_s": lvalues_per_s,
        "host_kernel_seconds": kernel_times,
        "op_seconds": op_times,
        "setup_seconds": setup_times,
        "lvalues": work,
        "frames": frames,
        "frame_errors": frame_errors,
        "frame_error_rate": frame_errors / frames if frames else None,
    }
    return attempted, failed, problems, metrics, detail


def _pass(w, state, seed, size):
    """One fixed-size untraced pass; returns [(outputs, summary)] per op."""
    results = []
    for i in range(size.trace_ops[w]):
        _, outputs = workloads.run_op(w, state, seed, i, size)
        results.append((outputs, workloads.summary(w, outputs)))
    return results


def _traced_pass(w, seed, size):
    """Traced set-up, then each operation traced and untraced back to back.

    Which of the two goes first alternates by operation, so both see the
    same machine state on average.  Returns (untraced wall seconds, traced
    wall seconds, spans, summaries of the traced operations).
    """
    tracer = spans.Tracer()
    with tracer:
        tracer.op = "setup"
        state = tracer.span("setup", workloads.setup, w)
    walls, summaries = {False: 0.0, True: 0.0}, []
    for i in range(size.trace_ops[w]):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if traced:
                with tracer:
                    tracer.op = i
                    _, outputs = tracer.span("op", workloads.run_op, w, state, seed, i, size)
                summaries.append(workloads.summary(w, outputs))
            else:
                workloads.run_op(w, state, seed, i, size)
            walls[traced] += time.perf_counter() - t0
    return walls[False], walls[True], tracer.spans, summaries


def traced_run(args, size):
    """Per-layer metrics from two traced passes after an untraced one."""
    w = args.workload
    state = workloads.setup(w)
    base = _pass(w, state, args.seed, size)       # also warms allocator and caches
    reference = _load_reference(w, args.seed, size)
    problems, attempted, failed = [], 0, 0
    for i, (outputs, summary) in enumerate(base):
        bad = workloads.check(w, outputs)
        if i == 0 and reference is not None:
            bad += workloads.compare(summary, reference)
        attempted += 1
        if bad:
            failed += 1
            problems += [f"op {i}: {p}" for p in bad]
    coded = [outputs[0] for outputs, _ in base] if w != "sweep" else []
    frames = sum(res.frames for res in coded)
    errors = sum(_frame_errors(res) for res in coded)

    passes = [_traced_pass(w, args.seed, size) for _ in range(2)]
    for _, _, _, summaries in passes:
        for i, (summary, (_, untraced)) in enumerate(zip(summaries, base)):
            attempted += 1
            bad = workloads.compare(summary, untraced)
            if bad:
                failed += 1
                problems += [f"traced op {i}: {p}" for p in bad]

    layer = [spans.layer_metrics(p[2]) for p in passes]
    counts = [spans.exact_counts(m) for m in layer]
    deterministic = counts[0] == counts[1]
    if not deterministic:
        problems.append(f"non-deterministic: traced passes counted {counts[0]} and {counts[1]}")
    untraced_wall = sum(p[0] for p in passes)
    traced_wall = sum(p[1] for p in passes)
    metrics = layer[0]
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall, "fraction")
    metrics["trace.deterministic"] = (int(deterministic), "count")
    metrics["fec.frame_error_rate"] = (errors / frames if frames else 0.0, "fraction")
    detail = {"exact_counts": counts, "spans": passes[0][2]}
    return attempted, failed, problems, metrics, detail


def record_reference(size):
    """Rewrite bench/reference.json from operation 0 under the committed seeds."""
    doc = {}
    for w in workloads.WORKLOADS:
        state = workloads.setup(w)
        doc[w] = {}
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            _, outputs = workloads.run_op(w, state, seed, 0, size)
            doc[w][str(seed)] = workloads.summary(w, outputs)
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE.relative_to(ROOT)}")


def _result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_workload(args):
    load1 = os.getloadavg()[0]
    size = workloads.SMOKE if args.smoke else workloads.FULL
    run = traced_run if args.trace else timed_run
    attempted, failed, problems, metrics, detail = run(args, size)
    correct = failed == 0 and not problems
    for p in problems[:20]:
        print(f"check failed: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:34s} {value:16.6g} {unit}")
    if "lvalues_per_s" in detail:
        print(f"{args.workload:14s} {'(unscaled) lvalues_per_s':34s} "
              f"{detail['lvalues_per_s']:16.6g} lvalue/s")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    doc = {"provenance": provenance(args, load1), "correct": correct,
           "attempted": attempted, "failed": failed, "problems": problems,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
           "detail": detail}
    path.write_text(json.dumps(doc) + "\n")
    print(f"result document: {path.relative_to(ROOT)}")
    print(_result_line(correct, attempted, failed, metrics))


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"bench: workload {w} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{w}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        doc = json.loads((OUT_DIR / f"{w}_seed{args.seed}_trace{args.trace}.json").read_text())
        if doc["detail"].get("frames"):
            print(f"  frame error rate {doc['detail']['frame_error_rate']:.4f} "
                  f"({doc['detail']['frame_errors']} of {doc['detail']['frames']} frames)")
        for name, m in result["metrics"].items():
            print(f"  {name:34s} {m['value']:16.6g} {m['unit']}")
            merged[f"{w}.{name}"] = (m["value"], m["unit"])
    print(_result_line(correct, attempted, failed, merged))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own test")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite bench/reference.json and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.record_reference:
        record_reference(workloads.FULL)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
