#!/usr/bin/env python3
"""ehpsim host-performance benchmark.

Builds the simulator libraries and the ``hostbench`` driver from this
checkout (Release, into ``$CARGO_TARGET_DIR`` or ``.bench_build``),
runs one workload for ``--seconds`` seconds as a series of fresh
``hostbench`` processes, checks every sample's output, and prints a
report whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (wall_s, cpu_s,
peak_rss_mb, setup_s); with ``--trace 1`` samples rotate between
untraced, traced and standalone layer replays, and the metrics are the
per-layer ones plus the tracing overhead. ``--workload all`` runs every workload in turn.
See README.md in this directory for what each number means.

    python3 hostbench/run.py --workload serve_tp8 --seed 1 --seconds 20 --trace 0
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_tp8", "comm_octo_pdes", "apu_cfd")
# A run must end within 180 s; stop starting samples well before.
HARD_LIMIT_S = 150.0
# Samples per workload, at least, however short --seconds is.
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 120.0


def positive_int(text, lo=1, hi=3600):
    try:
        v = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not lo <= v <= hi:
        raise argparse.ArgumentTypeError(f"{v} is outside [{lo}, {hi}]")
    return v


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True,
                    type=lambda s: positive_int(s, 0, 2**63 - 1))
    ap.add_argument("--seconds", type=positive_int, default=20,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------
# Build and host header


def build(build_dir):
    """Configure and build hostbench; exit 1 (no result) on failure."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "hostbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "hostbench",
                  "-j", "2"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                break
        else:
            return os.path.join(build_dir, "hostbench")
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-30:]))
    sys.exit("hostbench: build failed (log: %s)" % log_path)


def host_build_info(binary):
    """Compiler and build type, as compiled into the driver."""
    proc = subprocess.run([binary, "--version"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown build"


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ---------------------------------------------------------------------
# One sample


def run_sample(binary, workload, seed, trace=False, serial=False,
               replay=False):
    """Run one fresh hostbench process; return (result, error)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if serial:
        cmd.append("--serial")
    if replay:
        cmd = [binary, "--replay"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode,
                                      proc.stderr.strip()[-300:])
    try:
        return json.loads(proc.stdout), None
    except ValueError as e:
        return None, "unparsable output: %s" % e


def groups(node, name=""):
    """Yield (name, dict) for every stat group in a stats tree."""
    if isinstance(node, dict):
        yield name, node
        for k, v in node.items():
            yield from groups(v, k)


def has(group, *keys):
    return all(k in group for k in keys)


def check_doc(workload, doc):
    """Conservation checks on one document; returns failed checks."""
    bad = []
    if workload == "serve_tp8":
        n = doc["params"]["num_requests"]
        kv = doc["stats"]["engine"]["kv"]
        if doc["completed"] != n:
            bad.append("completed %s != requests %s" % (doc["completed"], n))
        if kv["blocks_reserved"] != kv["blocks_released"]:
            bad.append("kv blocks reserved %s != released %s"
                       % (kv["blocks_reserved"], kv["blocks_released"]))
    elif workload == "comm_octo_pdes":
        comm = [g for _, g in groups(doc["stats"])
                if has(g, "ops_started", "ops_completed", "chunk_retries")]
        if len(comm) != 1:
            bad.append("expected one CommGroup, found %d" % len(comm))
        else:
            g = comm[0]
            if not g["ops_started"] == g["ops_completed"] == len(doc["points"]):
                bad.append("ops started %s / completed %s / issued %d"
                           % (g["ops_started"], g["ops_completed"],
                              len(doc["points"])))
            if g["chunk_retries"] != 0:
                bad.append("chunk retries %s" % g["chunk_retries"])
    else:
        fine, coarse = doc["fine"]["total_s"], doc["coarse"]["total_s"]
        if not 0 < fine <= coarse:
            bad.append("fine total_s %s not in (0, coarse %s]"
                       % (fine, coarse))
    return bad


# ---------------------------------------------------------------------
# Metrics


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(samples):
    """(name, unit, values) for each end-to-end metric."""
    return [
        ("wall_s", "s", [s["wall_s"] for s in samples]),
        ("cpu_s", "s", [s["cpu_s"] for s in samples]),
        ("peak_rss_mb", "MB", [s["peak_rss_kb"] / 1024 for s in samples]),
        ("setup_s", "s", [s["setup_s"] for s in samples]),
    ]


def per_layer(workload, traced, untraced, replays, serial_walls):
    """(name, unit, value) for each per-layer metric. Times are medians
    over the traced (or replay) samples, except that the PDES speedup
    compares untraced medians; counters come from the first document
    (every document is identical, which the checks enforce). A layer
    the workload does not reach, or whose counter its entry point does
    not expose, reads 0."""
    first = traced[0]
    doc, kernel = first["doc"], first["kernel"]
    stats = doc["stats"]
    all_groups = list(groups(stats))

    def med(fn):
        return median([fn(s) for s in traced])

    def replay(key):
        return median([s["replay"][key] for s in replays])

    def span_total(s, prefix):
        return sum(sp["dur_s"] for sp in s["spans"]
                   if sp["name"].startswith(prefix))

    links = [g for _, g in all_groups
             if has(g, "transfers", "bytes_moved", "busy_frac")]
    l2 = [g for n, g in all_groups
          if n == "l2" and has(g, "hits", "misses", "writebacks")]
    ic = [g for _, g in all_groups if has(g, "prefetch_issued", "hits")]
    dram = [g for _, g in all_groups
            if has(g, "reads", "writes", "bank_conflicts")]
    pf = [g for _, g in all_groups if has(g, "lookups", "probes_sent")]
    scopes = [g for _, g in all_groups if has(g, "acquires", "releases")]
    comm = [g for _, g in all_groups
            if has(g, "ops_started", "ops_completed", "chunk_retries")]

    def total(gs, key):
        return sum(g[key] for g in gs)

    def rate(gs):
        hits, misses = total(gs, "hits"), total(gs, "misses")
        return hits / (hits + misses) if hits + misses else 0.0

    events = kernel["events"]
    wall = med(lambda s: s["wall_s"])
    untraced_wall = median([s["wall_s"] for s in untraced])
    comm_ops = total(comm, "ops_completed")
    serve = workload == "serve_tp8"
    iterations = doc["iterations"] if serve else 0
    m = [
        ("sim.events", "count", events),
        ("sim.peak_live", "count", kernel["peak_live"]),
        ("sim.pool_capacity", "count", kernel["pool_capacity"]),
        ("sim.host_ns_per_event", "ns",
         wall * 1e9 / events if events else 0.0),
        ("pdes.windows", "count", kernel["pdes_windows"]),
        ("pdes.events_per_window", "count",
         events / kernel["pdes_windows"] if kernel["pdes_windows"] else 0.0),
        ("pdes.speedup_vs_serial", "x",
         median(serial_walls) / untraced_wall if serial_walls else 0.0),
        ("fabric.link_transfers", "count", total(links, "transfers")),
        ("fabric.link_bytes", "B", total(links, "bytes_moved")),
        ("fabric.max_busy_frac", "frac",
         max((g["busy_frac"] for g in links), default=0.0)),
        ("fabric.transfer_ns_sparse", "ns",
         replay("fabric.transfer_ns_sparse")),
        ("fabric.heap_kb_per_1k_sparse", "KiB",
         replay("fabric.heap_kb_per_1k_sparse")),
        ("fabric.transfer_ns_dense", "ns",
         replay("fabric.transfer_ns_dense")),
        ("comm.ops", "count", comm_ops),
        ("comm.link_bytes", "B", total(comm, "link_bytes")),
        ("comm.chunk_retries", "count", total(comm, "chunk_retries")),
        ("comm.host_ms_per_op", "ms",
         med(lambda s: span_total(s, "comm.")) * 1e3 / len(doc["points"])
         if workload == "comm_octo_pdes" else 0.0),
        ("serve.iterations", "count", iterations),
        ("serve.mean_batch_tokens", "count",
         stats["engine"]["batch_tokens"]["mean"] if serve else 0.0),
        ("serve.kv_peak_blocks", "count",
         doc["kv_peak_blocks"] if serve else 0),
        ("serve.evictions", "count", doc["evictions"] if serve else 0),
        ("serve.host_us_per_iteration", "us",
         med(lambda s: span_total(s, "serve.")) * 1e6 / iterations
         if iterations else 0.0),
        ("mem.l2_hit_rate", "frac", rate(l2)),
        ("mem.l2_writebacks", "count", total(l2, "writebacks")),
        ("mem.ic_hit_rate", "frac", rate(ic)),
        ("mem.hbm_accesses", "count",
         total(dram, "reads") + total(dram, "writes")),
        ("mem.cache_access_ns", "ns",
         replay("mem.cache_access_ns")),
        ("mem.flush_ns_per_writeback", "ns",
         replay("mem.flush_ns_per_writeback")),
        ("coherence.probe_lookups", "count", total(pf, "lookups")),
        ("coherence.probes_sent", "count", total(pf, "probes_sent")),
        ("coherence.scope_releases", "count", total(scopes, "releases")),
        ("soc.build_s", "s", med(lambda s: s["setup_s"])),
        ("trace.overhead_s", "s",
         wall - untraced_wall),
    ]
    return m


def headline(workload, doc):
    """The workload's simulated results: correctness context, not
    metrics to improve."""
    if workload == "serve_tp8":
        return ("TTFT p50/p99 %.6g/%.6g s, TPOT p50/p99 %.6g/%.6g s, "
                "%.6g sim tokens/s, %d iterations"
                % (doc["ttft_p50_s"], doc["ttft_p99_s"], doc["tpot_p50_s"],
                   doc["tpot_p99_s"], doc["tokens_per_s"],
                   doc["iterations"]))
    if workload == "comm_octo_pdes":
        return "; ".join("%s/%s %dMiB %.6g GB/s"
                         % (p["collective"], p["algorithm"],
                            p["bytes"] >> 20, p["algbw_gbps"])
                         for p in sorted(doc["points"], key=lambda p: (
                             p["collective"], p["algorithm"], p["bytes"])))
    return "total_s fine %.6g, coarse %.6g" % (doc["fine"]["total_s"],
                                              doc["coarse"]["total_s"])


# ---------------------------------------------------------------------
# One workload


def run_workload(binary, workload, args):
    """Measure one workload; returns (ok, attempted, failed, metrics)."""
    trace = args.trace == 1
    attempted = failed = 0
    digest = None
    untraced, traced, replays, errors = [], [], [], []

    def take(result, err):
        nonlocal attempted, failed, digest
        attempted += 1
        if result is not None and "doc" in result:
            try:
                err = "; ".join(check_doc(workload, result["doc"])) or None
            except (KeyError, TypeError) as e:
                err = "document lacks %s" % e
            if err is None and digest is not None \
                    and result["digest"] != digest:
                err = "document digest %s differs from %s" % (
                    result["digest"], digest)
        if err is not None:
            failed += 1
            errors.append(err)
            return None
        digest = digest or result.get("digest")
        return result

    start = time.monotonic()
    last = 0.0
    n = 0
    while True:
        elapsed = time.monotonic() - start
        if n >= MIN_SAMPLES and elapsed >= args.seconds:
            break
        if n > 0 and elapsed + 1.5 * last > HARD_LIMIT_S:
            break
        t0 = time.monotonic()
        kind = n % 3 if trace else 0
        r = take(*run_sample(binary, workload, args.seed,
                             trace=kind == 1, replay=kind == 2))
        last = time.monotonic() - t0
        n += 1
        if r is not None:
            (untraced, traced, replays)[kind].append(r)

    # Outside the timed loop: the PDES document must match a serial
    # run of the same points byte for byte. The traced run takes
    # MIN_SAMPLES serial samples, for pdes.speedup_vs_serial.
    serial_walls = []
    if workload == "comm_octo_pdes":
        for _ in range(MIN_SAMPLES if trace else 1):
            r = take(*run_sample(binary, workload, args.seed, serial=True))
            if r is not None:
                serial_walls.append(r["wall_s"])

    ok = failed == 0 and bool(untraced) and \
        (bool(traced and replays) or not trace)
    if not ok:
        for e in errors or ["no successful sample"]:
            print("  FAILED %s: %s" % (workload, e))
        return False, attempted, failed, {}

    first = untraced[0]
    print("== %s  seed %d  digest %s" % (workload, args.seed, digest))
    print("  simulated: " + headline(workload, first["doc"]))
    print("  failed_frac %.6g (%d failed / %d attempted)"
          % (failed / attempted, failed, attempted))
    metrics = {}
    if trace:
        rows = per_layer(workload, traced, untraced, replays, serial_walls)
        for name, unit, value in rows:
            print("  %-30s %14.6g %s" % (name, value, unit))
            metrics[name] = {"value": value, "unit": unit}
        print("  (%d traced / %d untraced / %d replay / %d serial samples)"
              % (len(traced), len(untraced), len(replays),
                 len(serial_walls)))
    else:
        for name, unit, values in end_to_end(untraced):
            lo, hi = quartiles(values)
            value = median(values)
            print("  %-12s %12.6g %-3s  n=%d  p25 %.6g  p75 %.6g"
                  % (name, value, unit, len(values), lo, hi))
            metrics[name] = {"value": value, "unit": unit}
    return True, attempted, failed, metrics


def main(argv):
    args = parse_args(argv)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    print("host: nproc %d, %s, git %s"
          % (os.cpu_count() or 0, host_build_info(binary), git_rev()))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in names:
        ok, a, f, m = run_workload(binary, w, args)
        correct = correct and ok
        attempted += a
        failed += f
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({"%s.%s" % (w, k): v for k, v in m.items()})
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
