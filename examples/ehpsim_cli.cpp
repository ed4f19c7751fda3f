/**
 * @file
 * ehpsim command-line driver: pick a product, a workload, an engine,
 * and run it — or sweep a whole configuration matrix in parallel
 * with the sweep, comm, fault, serve, and race subcommands.
 *
 * Each subcommand's flags are one table below (runFlags(),
 * sweepFlags(), ...). The parser and usage() both read the tables,
 * so any unknown flag prints the full synopsis. Every number is
 * parsed strictly (the whole value, in range for its field, no sign
 * on an unsigned one): a bad flag or value exits 2 with a message
 * naming the flag. A failed job or an unwritable --json FILE exits 1.
 *
 * The sweep subcommand runs the products x workloads cross product
 * as independent jobs on a sweep::SweepRunner worker pool and emits
 * an ehpsim-sweep-v1 JSON document (stdout, or FILE with --json).
 * Output is byte-identical for any --jobs value. The comm
 * subcommand does the same for collective microbenchmarks over the
 * Fig. 18 node fabrics: each (algorithm, size) point simulates the
 * collective as chunked transfers on the event queue and reports
 * achieved algorithmic bandwidth and link utilization.
 *
 * The fault subcommand reruns those collectives under the fault
 * injector: a seeded transient chunk-error rate (survived via
 * retry/backoff) and optional scheduled link kills or derates
 * (--kill, repeatable; a *factor suffix derates instead of
 * killing). Each job reports the degraded bandwidth plus the
 * retry/reroute counters; same seed means byte-identical JSON for
 * any --jobs value.
 *
 * The serve subcommand replays a seeded open-loop LLM serving trace
 * (Poisson, or MMPP with --bursty) through the src/serve continuous
 * batcher for every (device, load) grid point: paged KV cache sized
 * by device memory minus weights, TP decode all-reduces on the
 * Fig. 18b octo node, and — with --error-rate / --kill /
 * --blackout — the fault injector degrading service mid-run. Each
 * job reports TTFT/TPOT percentiles, tokens/s, SLO attainment, and
 * the KV eviction/retry counters.
 *
 * The comm and fault subcommands accept --pdes N to run each job's
 * simulation on the conservative parallel core (DESIGN.md §15): the
 * node graph is partitioned into N logical processes synchronized
 * by min-link-latency lookahead. Output is byte-identical to the
 * serial run — `cmp` the two JSON documents to check — so the knob
 * trades wall time only. sweep REJECTS the flag with an error (its
 * jobs are per-partition roofline/event sims with no
 * cross-partition traffic to overlap; use --jobs instead). serve
 * runs on the serial kernel only: its batcher lives on the
 * coordinator and every decode all-reduce is a thin window, so the
 * parallel core only ever made it slower.
 *
 * Checkpoint/fast-forward (DESIGN.md §16): `comm --warmup N` runs N
 * ring all-reduces before each measured point; adding `--fork`
 * simulates that shared prefix ONCE, snapshots the warmed world,
 * and forks every (algorithm, size) point from the in-memory blob —
 * JSON stays byte-identical to the unforked run, so only wall time
 * changes. `--checkpoint FILE` persists the warmup blob across
 * invocations (missing file: simulate and save; existing file: load
 * and skip the warmup). `serve --checkpoint-at T` rehearses the
 * same machinery end to end: run to tick T, snapshot, and finish
 * the run on a restored copy of the world.
 *
 * The race subcommand (requires a -DEHPSIM_RACE=ON build; exits 2
 * otherwise) runs the octo all-reduce and a fixed-seed serving
 * scenario under the ehpsim-race AccessTracker and emits the merged
 * ehpsim-race-v1 report: order/partition conflicts with waiver
 * status plus the partition dependency graph and PDES lookahead
 * table (DESIGN.md §14). Exit 1 when any conflict is unwaived. The
 * report is byte-identical for any --jobs value.
 *
 * Examples:
 *   ehpsim_cli --product mi300a --workload cfd --engine roofline
 *   ehpsim_cli --product mi300x --workload triad --partitions 8
 *   ehpsim_cli sweep --products mi300a,mi300x,mi250x \
 *       --workloads triad,gemm,cfd --jobs 8 --json sweep.json
 *   ehpsim_cli comm --topology octo --collective all_reduce \
 *       --algos ring,direct --sizes 1M,64M,256M --jobs 8
 *   ehpsim_cli fault --topology octo --rates 0,0.02 \
 *       --kill mi300x0:mi300x1@50000000 --jobs 8
 *   ehpsim_cli serve --devices mi300x,baseline --loads 0.25,1.0 \
 *       --requests 32 --jobs 8 --json serve.json
 *   ehpsim_cli serve --tp 4 --loads 1.5 --error-rate 0.02 \
 *       --kill mi300x0:mi300x1@2000000000000 --blackout 3@3000000000000
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/comm_group.hh"
#include "core/apu_system.hh"
#include "sim/access_tracker.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "core/machine_model.hh"
#include "core/roofline.hh"
#include "core/trace.hh"
#include "serve/scenario.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/snapshot.hh"
#include "sim/units.hh"
#include "soc/comm_world.hh"
#include "sweep/sweep_runner.hh"
#include "workloads/generators.hh"

using namespace ehpsim;
using namespace ehpsim::core;
using namespace ehpsim::workloads;

namespace
{

// ---------------------------------------------------------------------
// Flag tables
// ---------------------------------------------------------------------

/** Stores one flag's value; throws std::logic_error on a bad one. */
using Setter = std::function<void(const std::string &)>;

/** One row of a subcommand's flag table. */
struct Flag
{
    const char *name;
    /** The value's placeholder in usage(); nullptr for a switch. */
    const char *value;
    Setter set;
    /** False keeps the flag out of usage(). */
    bool listed = true;
};

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

Setter
text(std::string &field)
{
    return [&field](const std::string &v) { field = v; };
}

Setter
on(bool &field)
{
    return [&field](const std::string &) { field = true; };
}

/** A comma-separated list; @p check (if set) vets every item. */
Setter
list(std::vector<std::string> &field,
     std::function<void(const std::string &)> check = {})
{
    return [&field, check = std::move(check)](const std::string &v) {
        auto items = splitList(v);
        if (check) {
            for (const auto &item : items)
                check(item);
        }
        field = std::move(items);
    };
}

/** A number of @p field's type, no smaller than @p min. */
template <typename T>
Setter
number(T &field, T min = std::numeric_limits<T>::lowest())
{
    return [&field, min](const std::string &v) {
        T value;
        if constexpr (std::is_floating_point_v<T>)
            value = parseDouble(v);
        else
            value = static_cast<T>(
                parseUnsigned(v, std::numeric_limits<T>::max()));
        if (value < min)
            throw std::out_of_range("'" + v + "' is below the minimum " +
                                    std::to_string(min));
        field = value;
    };
}

/** One of the @p allowed spellings, stored as given. */
Setter
oneOf(std::string &field, std::vector<std::string> allowed)
{
    return [&field, allowed = std::move(allowed)](const std::string &v) {
        if (std::find(allowed.begin(), allowed.end(), v) ==
            allowed.end()) {
            std::string names;
            for (const auto &a : allowed)
                names += (names.empty() ? "" : ", ") + a;
            throw std::invalid_argument("unknown value '" + v +
                                        "' (want one of " + names + ")");
        }
        field = v;
    };
}

[[noreturn]] void usage(const char *argv0);

/**
 * Apply argv[first..argc) to @p flags. An unknown flag or a missing
 * value prints usage() and exits 2; a value its setter rejects
 * throws std::invalid_argument naming the flag (main() exits 2).
 */
void
parseFlags(int argc, char **argv, int first,
           const std::vector<Flag> &flags)
{
    for (int i = first; i < argc; ++i) {
        const auto flag =
            std::find_if(flags.begin(), flags.end(), [&](const Flag &f) {
                return std::strcmp(f.name, argv[i]) == 0;
            });
        if (flag == flags.end()) {
            std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0],
                         argv[i]);
            usage(argv[0]);
        }
        if (flag->value && i + 1 >= argc) {
            std::fprintf(stderr, "%s: %s needs a value\n", argv[0],
                         flag->name);
            usage(argv[0]);
        }
        try {
            flag->set(flag->value ? argv[++i] : "");
        } catch (const std::logic_error &e) {
            throw std::invalid_argument(std::string(flag->name) + ": " +
                                        e.what());
        }
    }
}

/** Print one synopsis entry per listed flag, wrapped at 79 columns. */
void
printSynopsis(std::string line, const std::vector<Flag> &flags)
{
    for (const auto &f : flags) {
        if (!f.listed)
            continue;
        std::string item = std::string(" [") + f.name;
        if (f.value)
            item += std::string(" ") + f.value;
        item += "]";
        if (line.size() + item.size() > 79) {
            std::fprintf(stderr, "%s\n", line.c_str());
            line = std::string(9, ' ');
        }
        line += item;
    }
    std::fprintf(stderr, "%s\n", line.c_str());
}

// ---------------------------------------------------------------------
// Subcommand options and their tables
// ---------------------------------------------------------------------

/** The top-level single run. */
struct RunOptions
{
    std::string product = "mi300a";
    std::string workload = "triad";
    std::string engine = "event";
    unsigned partitions = 1;
    std::string policy = "rr";
    std::string nps = "1";
    std::uint64_t scale = 1;
    std::string trace_path;
    bool dump_stats = false;
};

std::vector<Flag>
runFlags(RunOptions &o)
{
    return {
        {"--product", "P", text(o.product)},
        {"--workload", "W", text(o.workload)},
        {"--engine", "event|roofline", oneOf(o.engine, {"event", "roofline"})},
        {"--partitions", "N", number(o.partitions)},
        {"--policy", "rr|blocked", oneOf(o.policy, {"rr", "blocked"})},
        {"--nps", "1|4", oneOf(o.nps, {"1", "4"})},
        {"--scale", "N", number(o.scale)},
        {"--trace", "FILE", text(o.trace_path)},
        {"--stats", nullptr, on(o.dump_stats)},
    };
}

/** A products x workloads matrix of top-level runs. */
struct SweepOptions
{
    std::vector<std::string> products = {"mi300a", "mi300x", "mi250x"};
    std::vector<std::string> workloads = {"triad"};
    RunOptions run;
    unsigned jobs = 1;
    std::string json_path;
};

std::vector<Flag>
sweepFlags(SweepOptions &o)
{
    return {
        {"--products", "a,b,...", list(o.products)},
        {"--workloads", "x,y,...", list(o.workloads)},
        {"--engine", "event|roofline",
         oneOf(o.run.engine, {"event", "roofline"})},
        {"--scale", "N", number(o.run.scale)},
        {"--stats", nullptr, on(o.run.dump_stats)},
        {"--jobs", "N", number(o.jobs, 1u)},
        {"--json", "FILE", text(o.json_path)},
        // Refused, not ignored: a user passing it expects a speedup
        // that sweep's single-partition jobs cannot give.
        {"--pdes", nullptr,
         [](const std::string &) {
             std::fprintf(stderr,
                          "sweep: --pdes is not supported: sweep "
                          "jobs are independent single-partition "
                          "sims with no cross-partition traffic to "
                          "parallelize; use --jobs N to run points "
                          "concurrently (comm and fault do accept "
                          "--pdes)\n");
             std::exit(2);
         },
         false},
    };
}

comm::Collective
collectiveFor(const std::string &name)
{
    for (const auto c :
         {comm::Collective::allReduce, comm::Collective::allGather,
          comm::Collective::reduceScatter,
          comm::Collective::broadcast, comm::Collective::allToAll}) {
        if (name == comm::collectiveName(c))
            return c;
    }
    throw std::invalid_argument(
        "unknown collective '" + name +
        "' (all_reduce, all_gather, reduce_scatter, broadcast, "
        "all_to_all)");
}

comm::Algorithm
algorithmFor(const std::string &name)
{
    for (const auto a :
         {comm::Algorithm::automatic, comm::Algorithm::ring,
          comm::Algorithm::direct}) {
        if (name == comm::algorithmName(a))
            return a;
    }
    throw std::invalid_argument("unknown algorithm '" + name +
                                "' (ring, direct, auto)");
}

struct CommOptions
{
    std::string topology = "quad";
    std::string collective = "all_reduce";
    std::vector<std::string> algos = {"ring", "direct"};
    std::vector<std::string> sizes = {"1M", "16M", "64M"};
    unsigned warmup = 0;
    std::uint64_t warmup_bytes = 16 * MiB;
    bool fork = false;
    std::string checkpoint_path;
    unsigned pdes = 0;
    unsigned jobs = 1;
    std::string json_path;
};

std::vector<Flag>
commFlags(CommOptions &o)
{
    return {
        {"--topology", "quad|octo", oneOf(o.topology, {"quad", "octo"})},
        {"--collective", "C",
         [&o](const std::string &v) {
             collectiveFor(v);
             o.collective = v;
         }},
        {"--algos", "a,b,...", list(o.algos, algorithmFor)},
        {"--sizes", "1M,64M,...", list(o.sizes, parseSize)},
        {"--warmup", "N", number(o.warmup)},
        {"--warmup-bytes", "SIZE",
         [&o](const std::string &v) { o.warmup_bytes = parseSize(v); }},
        {"--fork", nullptr, on(o.fork)},
        {"--checkpoint", "FILE", text(o.checkpoint_path)},
        {"--pdes", "N", number(o.pdes)},
        {"--jobs", "N", number(o.jobs, 1u)},
        {"--json", "FILE", text(o.json_path)},
    };
}

struct FaultOptions
{
    std::string topology = "octo";
    std::string collective = "all_reduce";
    std::vector<std::string> algos = {"ring", "direct"};
    std::vector<std::string> sizes = {"64M"};
    std::vector<std::string> rates = {"0", "0.005", "0.02"};
    std::uint64_t seed = 1;
    std::vector<fault::LinkFault> kills;
    // See ablation_resilience: a timeout-based retransmit has to
    // cover the per-link chunk backlog to detect loss at all.
    comm::CommParams params{.chunk_bytes = soc::kFig18Comm.chunk_bytes,
                            .retry_timeout = 200'000'000};  // 200 us
    unsigned pdes = 0;
    unsigned jobs = 1;
    std::string json_path;
};

std::vector<Flag>
faultFlags(FaultOptions &o)
{
    return {
        {"--topology", "quad|octo", oneOf(o.topology, {"quad", "octo"})},
        {"--collective", "C",
         [&o](const std::string &v) {
             collectiveFor(v);
             o.collective = v;
         }},
        {"--algos", "a,b,...", list(o.algos, algorithmFor)},
        {"--sizes", "1M,...", list(o.sizes, parseSize)},
        {"--rates", "0,0.02,...", list(o.rates, parseDouble)},
        {"--seed", "N", number(o.seed)},
        {"--kill", "a:b@tick[*factor]",
         [&o](const std::string &v) {
             o.kills.push_back(fault::parseLinkFault(v));
         }},
        {"--max-retries", "N", number(o.params.max_retries)},
        {"--retry-timeout", "TICKS", number(o.params.retry_timeout)},
        {"--pdes", "N", number(o.pdes)},
        {"--jobs", "N", number(o.jobs, 1u)},
        {"--json", "FILE", text(o.json_path)},
    };
}

struct ServeOptions
{
    std::vector<std::string> devices = {"mi300x", "baseline"};
    std::vector<std::string> loads = {"0.25", "1.0"};
    serve::ScenarioParams base;
    unsigned jobs = 1;
    std::string json_path;
};

std::vector<Flag>
serveFlags(ServeOptions &o)
{
    serve::ScenarioParams &p = o.base;
    return {
        {"--devices", "a,b", list(o.devices)},
        {"--loads", "r,s,...", list(o.loads, parseDouble)},
        {"--tp", "N", number(p.tp)},
        {"--requests", "N", number(p.num_requests)},
        {"--input-tokens", "N", number(p.input_tokens)},
        {"--output-tokens", "N", number(p.output_tokens)},
        {"--seed", "N", number(p.seed)},
        {"--bursty", nullptr, on(p.bursty)},
        {"--token-budget", "N", number(p.token_budget)},
        {"--max-batch", "N", number(p.max_batch)},
        {"--kv-blocks", "N", number(p.kv_blocks_override)},
        {"--error-rate", "R", number(p.faults.chunk_error_rate)},
        {"--kill", "a:b@tick[*factor]",
         [&p](const std::string &v) {
             p.faults.link_faults.push_back(fault::parseLinkFault(v));
         }},
        {"--blackout", "ch@tick",
         [&p](const std::string &v) {
             p.faults.channel_faults.push_back(
                 fault::parseChannelFault(v));
         }},
        {"--checkpoint-at", "T", number(p.checkpoint_at)},
        {"--jobs", "N", number(o.jobs, 1u)},
        {"--json", "FILE", text(o.json_path)},
    };
}

struct RaceOptions
{
    std::uint64_t bytes = 4 * MiB;
    unsigned requests = 8;
    std::uint64_t seed = 42;
    unsigned jobs = 1;
    std::string json_path;
};

std::vector<Flag>
raceFlags(RaceOptions &o)
{
    return {
        {"--bytes", "SIZE",
         [&o](const std::string &v) { o.bytes = parseSize(v); }},
        {"--requests", "N", number(o.requests)},
        {"--seed", "N", number(o.seed)},
        {"--jobs", "N", number(o.jobs, 1u)},
        {"--json", "FILE", text(o.json_path)},
    };
}

[[noreturn]] void
usage(const char *argv0)
{
    const std::string prog = argv0;
    const std::string more = "       " + prog + " ";
    RunOptions run;
    SweepOptions sweep;
    CommOptions comm;
    FaultOptions fault;
    ServeOptions serve;
    RaceOptions race;
    printSynopsis("usage: " + prog, runFlags(run));
    printSynopsis(more + "sweep", sweepFlags(sweep));
    printSynopsis(more + "comm", commFlags(comm));
    printSynopsis(more + "fault", faultFlags(fault));
    printSynopsis(more + "serve", serveFlags(serve));
    printSynopsis(more + "race", raceFlags(race));
    std::fprintf(stderr, "       (race needs a -DEHPSIM_RACE=ON build)\n");
    std::exit(2);
}

// ---------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------

/**
 * Run every job and write the document. @return the exit status: 1
 * when a job failed or the JSON could not be written.
 */
int
runAndWrite(sweep::SweepRunner &runner, const char *cmd,
            const char *sweep_name, const std::string &json_path)
{
    const auto results = runner.run();
    const bool written =
        runner.writeJson(cmd, sweep_name, results, json_path);
    const bool all_ok =
        std::all_of(results.begin(), results.end(),
                    [](const sweep::JobResult &r) { return r.ok; });
    return written && all_ok ? 0 : 1;
}

soc::ProductConfig
productFor(const std::string &name)
{
    if (name == "mi300a")
        return soc::mi300aConfig();
    if (name == "mi300x")
        return soc::mi300xConfig();
    if (name == "mi250x")
        return soc::mi250xConfig();
    if (name == "ehpv3")
        return soc::ehpv3Config();
    if (name == "ehpv4")
        return soc::ehpv4Config();
    fatal("unknown product '", name, "'");
}

MachineModel
modelFor(const std::string &name)
{
    if (name == "mi300a")
        return mi300aModel();
    if (name == "mi300x")
        return mi300xModel();
    if (name == "mi250x")
        return mi250xNodeModel();
    fatal("no analytical model for product '", name,
          "' (use --engine event)");
}

Workload
workloadFor(const std::string &name, std::uint64_t scale)
{
    if (name == "triad") {
        auto w = streamTriad((1u << 19) * scale);
        w.phases[0].grid_workgroups = 512;
        return w;
    }
    if (name == "gemm")
        return gemm(2048 * scale, 2048, 2048, gpu::DataType::fp16,
                    gpu::Pipe::matrix);
    if (name == "nbody")
        return nbody(100'000 * scale, 5);
    if (name == "hpcg")
        return hpcg(128 * scale, 128, 128, 10);
    if (name == "cfd")
        return cfdSolver(2'000'000 * scale, 5);
    if (name == "gromacs")
        return gromacsLike(1'000'000 * scale, 5);
    if (name == "llm")
        return llmInference(LlmConfig{});
    fatal("unknown workload '", name, "'");
}

/**
 * Run @p w on @p o's product through @p o's engine. The event
 * engine's system is left in @p sys for the caller's stats dump.
 */
RunReport
runWorkload(const RunOptions &o, const Workload &w,
            std::unique_ptr<ApuSystem> &sys)
{
    if (o.engine == "roofline")
        return RooflineEngine(modelFor(o.product)).run(w);
    sys = std::make_unique<ApuSystem>(
        productFor(o.product),
        o.nps == "4" ? mem::NumaMode::nps4 : mem::NumaMode::nps1);
    return sys->run(w, o.partitions,
                    o.policy == "blocked"
                        ? hsa::DistributionPolicy::blocked
                        : hsa::DistributionPolicy::roundRobin);
}

/** Run one (product, workload) sweep job and serialize its report. */
void
runSweepJob(const RunOptions &o, json::JsonWriter &jw)
{
    const auto w = workloadFor(o.workload, o.scale);

    jw.beginObject();
    jw.kv("product", o.product);
    jw.kv("workload", o.workload);
    jw.kv("engine", o.engine);

    std::unique_ptr<ApuSystem> sys;
    const RunReport report = runWorkload(o, w, sys);

    jw.key("phases");
    jw.beginArray();
    for (const auto &p : report.phases) {
        jw.beginObject();
        jw.kv("name", p.name);
        jw.kv("total_s", p.total_s);
        jw.kv("gpu_s", p.gpu_s);
        jw.kv("cpu_s", p.cpu_s);
        jw.kv("transfer_s", p.transfer_s);
        jw.endObject();
    }
    jw.endArray();
    jw.kv("total_s", report.total_s);

    const double flops = static_cast<double>(w.totalGpuFlops());
    if (flops > 0 && report.total_s > 0) {
        jw.kv("achieved_tflops", flops / report.total_s / 1e12);
        jw.kv("achieved_tbps",
              static_cast<double>(w.totalGpuBytes()) /
                  report.total_s / 1e12);
    }
    if (o.dump_stats && sys) {
        jw.key("stats");
        sys->dumpJsonStats(jw);
    }
    jw.endObject();
}

int
sweepMain(int argc, char **argv)
{
    SweepOptions o;
    parseFlags(argc, argv, 2, sweepFlags(o));
    if (o.products.empty() || o.workloads.empty())
        usage(argv[0]);

    sweep::SweepRunner runner(o.jobs);
    for (const auto &product : o.products) {
        for (const auto &workload : o.workloads) {
            RunOptions job = o.run;
            job.product = product;
            job.workload = workload;
            runner.addJob(product + "/" + workload,
                          [job](json::JsonWriter &jw) {
                              runSweepJob(job, jw);
                          });
        }
    }
    return runAndWrite(runner, "sweep", "ehpsim_cli", o.json_path);
}

/**
 * The shared warmup prefix of a forked comm sweep: load the blob
 * from --checkpoint FILE when the file exists, otherwise simulate
 * the warmup once (and save it there for the next run when a path
 * was given).
 */
std::string
commWarmupBlob(const CommOptions &o)
{
    if (!o.checkpoint_path.empty()) {
        std::ifstream probe(o.checkpoint_path, std::ios::binary);
        if (probe.good()) {
            std::fprintf(stderr,
                         "comm: loading warmup checkpoint from %s\n",
                         o.checkpoint_path.c_str());
            return readSnapshotFile(o.checkpoint_path);
        }
    }
    soc::CommWorld w(o.topology, soc::kFig18Comm);
    w.warmup(o.warmup, o.warmup_bytes);
    std::string blob = saveWorld(w.eq, w.root);
    if (!o.checkpoint_path.empty()) {
        writeSnapshotFile(o.checkpoint_path, blob);
        std::fprintf(stderr,
                     "comm: warmup checkpoint saved to %s\n",
                     o.checkpoint_path.c_str());
    }
    return blob;
}

/**
 * Run one collective microbenchmark point and serialize it. When
 * @p fork_blob is set the point resumes from the shared warmup
 * checkpoint instead of simulating the warmup itself; either way
 * the JSON below is byte-identical (the CI checkpoint-smoke job
 * cmp's the two documents).
 */
void
runCommJob(const CommOptions &o, comm::Algorithm algo,
           std::uint64_t bytes, const std::string *fork_blob,
           json::JsonWriter &jw)
{
    soc::CommWorld w(o.topology, soc::kFig18Comm);
    if (fork_blob)
        restoreWorld(*fork_blob, w.eq, w.root);
    w.attachPdes(o.pdes);
    if (!fork_blob)
        w.warmup(o.warmup, o.warmup_bytes);
    const comm::Collective coll = collectiveFor(o.collective);
    const auto op = w.run(coll, algo, bytes);
    const comm::CommGroup &group = *w.group;

    jw.beginObject();
    jw.kv("topology", o.topology);
    jw.kv("collective", comm::collectiveName(coll));
    jw.kv("algorithm", comm::algorithmName(op->algorithm()));
    jw.kv("ranks", static_cast<double>(group.numRanks()));
    jw.kv("bytes", static_cast<double>(bytes));
    jw.kv("seconds", op->seconds());
    jw.kv("algbw_gbps", op->algoBandwidth() / 1e9);
    jw.kv("link_bytes", static_cast<double>(op->linkBytes()));
    jw.kv("max_link_busy", group.maxLinkUtilization());
    jw.kv("avg_link_busy", group.avgLinkUtilization());
    jw.endObject();
}

int
commMain(int argc, char **argv)
{
    CommOptions o;
    parseFlags(argc, argv, 2, commFlags(o));
    if (o.algos.empty() || o.sizes.empty())
        usage(argv[0]);
    if (!o.checkpoint_path.empty() && !o.fork)
        fatal("comm: --checkpoint needs --fork (the file holds the "
              "forked warmup prefix)");
    if (o.fork && o.warmup == 0 && o.checkpoint_path.empty())
        fatal("comm: --fork needs a warmup prefix to share (set "
              "--warmup N, or --checkpoint F to load one)");

    // Every point of the sweep shares one warmup prefix: with
    // --fork it is simulated (or loaded) once and each point
    // restores the blob; without, each point re-simulates it — the
    // straight-through reference the byte-identity gate cmp's
    // against.
    sweep::WarmupSpec warm;
    warm.config = "comm|" + o.topology + "|w" + std::to_string(o.warmup) +
                  "|b" + std::to_string(o.warmup_bytes);
    warm.produce = [&o] { return commWarmupBlob(o); };

    sweep::SweepRunner runner(o.jobs);
    for (const auto &algo_name : o.algos) {
        const comm::Algorithm algo = algorithmFor(algo_name);
        for (const auto &size : o.sizes) {
            const std::uint64_t bytes = parseSize(size);
            const std::string name = o.topology + "/" + o.collective +
                                     "/" + algo_name + "/" + size;
            if (o.fork) {
                runner.addForkedJob(
                    name, warm,
                    [&o, algo, bytes](const std::string &blob,
                                      json::JsonWriter &jw) {
                        runCommJob(o, algo, bytes, &blob, jw);
                    });
            } else {
                runner.addJob(name, [&o, algo, bytes](json::JsonWriter &jw) {
                    runCommJob(o, algo, bytes, nullptr, jw);
                });
            }
        }
    }
    return runAndWrite(runner, "comm", "ehpsim_cli_comm", o.json_path);
}

/**
 * Run one collective under the fault injector and serialize the
 * degraded result plus the retry/reroute counters.
 */
void
runFaultJob(const FaultOptions &o, comm::Algorithm algo,
            std::uint64_t bytes, const fault::FaultPlan &plan,
            json::JsonWriter &jw)
{
    soc::CommWorld w(o.topology, o.params, &plan);
    w.attachPdes(o.pdes);
    const comm::Collective coll = collectiveFor(o.collective);
    const auto op = w.run(coll, algo, bytes);
    const comm::CommGroup &group = *w.group;
    const fabric::Network &net = *w.topo->network();

    jw.beginObject();
    jw.kv("topology", o.topology);
    jw.kv("collective", comm::collectiveName(coll));
    jw.kv("algorithm", comm::algorithmName(op->algorithm()));
    jw.kv("bytes", static_cast<double>(bytes));
    jw.kv("seed", static_cast<double>(plan.seed));
    jw.kv("chunk_error_rate", plan.chunk_error_rate);
    jw.kv("completed", op->done() ? 1.0 : 0.0);
    jw.kv("seconds", op->seconds());
    jw.kv("algbw_gbps", op->algoBandwidth() / 1e9);
    jw.kv("faults_injected", w.injector->faults_injected.value());
    jw.kv("chunk_retries", group.chunk_retries.value());
    jw.kv("retry_wait_ticks", group.retry_wait_ticks.value());
    jw.kv("links_killed", net.links_killed.value());
    jw.kv("links_derated", net.links_derated.value());
    jw.kv("reroutes", net.reroutes.value());
    jw.kv("max_link_busy", group.maxLinkUtilization());
    jw.endObject();
}

int
faultMain(int argc, char **argv)
{
    FaultOptions o;
    parseFlags(argc, argv, 2, faultFlags(o));
    if (o.algos.empty() || o.sizes.empty() || o.rates.empty())
        usage(argv[0]);

    sweep::SweepRunner runner(o.jobs);
    for (const auto &algo_name : o.algos) {
        const comm::Algorithm algo = algorithmFor(algo_name);
        for (const auto &size : o.sizes) {
            const std::uint64_t bytes = parseSize(size);
            for (const auto &rate : o.rates) {
                fault::FaultPlan plan;
                plan.seed = o.seed;
                plan.chunk_error_rate = parseDouble(rate);
                plan.link_faults = o.kills;
                plan.validate();
                runner.addJob(o.topology + "/" + o.collective + "/" +
                                  algo_name + "/" + size + "/" + rate,
                              [&o, algo, bytes, plan](json::JsonWriter &jw) {
                                  runFaultJob(o, algo, bytes, plan, jw);
                              });
            }
        }
    }
    return runAndWrite(runner, "fault", "ehpsim_cli_fault", o.json_path);
}

int
serveMain(int argc, char **argv)
{
    ServeOptions o;
    parseFlags(argc, argv, 2, serveFlags(o));
    if (o.devices.empty() || o.loads.empty())
        usage(argv[0]);
    o.base.faults.seed = o.base.seed;

    sweep::SweepRunner runner(o.jobs);
    for (const auto &device : o.devices) {
        for (const auto &load : o.loads) {
            serve::ScenarioParams p = o.base;
            p.device = device;
            p.load_rps = parseDouble(load);
            p.validate();
            runner.addJob(device + "/load" + load,
                          [p](json::JsonWriter &jw) {
                              const auto r =
                                  serve::runServingScenario(p);
                              serve::dumpScenario(jw, p, r);
                          });
        }
    }
    return runAndWrite(runner, "serve", "ehpsim_cli_serve", o.json_path);
}

#ifdef EHPSIM_RACE
/**
 * The merged counters and PDES tables of every race scenario. Only
 * compiled with the tracker hooks: in a plain build raceMain exits
 * early and these helpers would trip -Wunused-function under the
 * -Werror gate.
 */
struct RaceTotals
{
    std::map<std::pair<int, int>, Tick> lookahead;
    std::map<std::pair<int, int>, std::uint64_t> flows;
    std::uint64_t conflicts = 0;
    std::uint64_t waived = 0;
    std::uint64_t unwaived = 0;
    std::uint64_t events = 0;
    std::uint64_t accesses = 0;

    void
    add(const race::AccessTracker &t)
    {
        conflicts += t.conflictCount();
        waived += t.waivedCount();
        unwaived += t.unwaivedCount();
        events += t.eventCount();
        accesses += t.accessCount();
        for (const auto &[pair, latency] : t.lookahead()) {
            auto [it, inserted] = lookahead.emplace(pair, latency);
            if (!inserted)
                it->second = std::min(it->second, latency);
        }
        for (const auto &[pair, count] : t.flows())
            flows[pair] += count;
    }
};

/** Run @p scenario under @p t and serialize its name plus the full
 *  ehpsim-race-v1 tracker report. */
void
runRaceScenario(const std::string &name, race::AccessTracker &t,
                const std::function<void()> &scenario,
                json::JsonWriter &jw)
{
    race::addStandardWaivers(t);
    {
        race::TrackerScope scope(&t);
        scenario();
    }
    jw.beginObject();
    jw.kv("scenario", name);
    jw.key("report");
    t.dumpJson(jw);
    jw.endObject();
}
#endif // EHPSIM_RACE

int
raceMain(int argc, char **argv)
{
    RaceOptions o;
    parseFlags(argc, argv, 2, raceFlags(o));

#ifndef EHPSIM_RACE
    std::fprintf(stderr,
                 "race: this binary was built without the tracker "
                 "hooks; reconfigure with -DEHPSIM_RACE=ON\n");
    return 2;
#else
    // One tracker per job, each written by exactly one worker and
    // read only after the runner's join.
    std::array<race::AccessTracker, 2> trackers;
    sweep::SweepRunner runner(o.jobs);
    // The octo-node ring all-reduce: the collective hot path whose
    // batched completions are reorderable.
    runner.addJob("comm_allreduce_octo", [&](json::JsonWriter &jw) {
        runRaceScenario("comm_allreduce_octo", trackers[0], [&] {
            soc::CommWorld("octo", soc::kFig18Comm)
                .run(comm::Collective::allReduce, comm::Algorithm::ring,
                     o.bytes);
        }, jw);
    });
    // A fixed-seed TP-decode serving run (no fault plan: scheduled
    // faults are exercised by race_test instead).
    runner.addJob("serve_octo_tp2", [&](json::JsonWriter &jw) {
        runRaceScenario("serve_octo_tp2", trackers[1], [&] {
            serve::ScenarioParams p;
            p.device = "mi300x";
            p.tp = 2;
            p.num_requests = o.requests;
            p.seed = o.seed;
            p.load_rps = 1.0;
            serve::runServingScenario(p);
        }, jw);
    });

    const auto results = runner.run();

    int failures = 0;
    RaceTotals total;
    for (const auto &res : results) {
        if (!res.ok) {
            ++failures;
            std::fprintf(stderr, "race: job %zu (%s) failed: %s\n",
                         res.index, res.name.c_str(),
                         res.error.c_str());
        } else {
            total.add(trackers[res.index]);
        }
    }

    std::ostringstream doc;
    {
        json::JsonWriter jw(doc);
        jw.beginObject();
        jw.kv("schema", "ehpsim-race-v1");
        jw.key("summary");
        jw.beginObject();
        jw.kv("scenarios", std::uint64_t(results.size()));
        jw.kv("events", total.events);
        jw.kv("accesses", total.accesses);
        jw.kv("conflicts", total.conflicts);
        jw.kv("waived", total.waived);
        jw.kv("unwaived", total.unwaived);
        jw.endObject();
        jw.key("scenarios");
        jw.beginArray();
        for (const auto &res : results) {
            if (res.ok)
                jw.rawValue(res.output);
        }
        jw.endArray();
        // The merged PDES partition-dependency table: every domain
        // pair that exchanged messages, with the conservative
        // lookahead (minimum link latency) joining it.
        jw.key("partitions");
        jw.beginObject();
        jw.key("flows");
        jw.beginArray();
        for (const auto &[pair, count] : total.flows) {
            jw.beginObject();
            jw.kv("src", pair.first);
            jw.kv("dst", pair.second);
            jw.kv("count", count);
            jw.endObject();
        }
        jw.endArray();
        jw.key("lookahead");
        jw.beginArray();
        for (const auto &[pair, latency] : total.lookahead) {
            jw.beginObject();
            jw.kv("a", pair.first);
            jw.kv("b", pair.second);
            jw.kv("min_link_latency", latency);
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
        jw.endObject();
    }
    doc << "\n";

    const bool written =
        sweep::SweepRunner::writeDocument("race", doc.str(), o.json_path);
    std::fprintf(stderr,
                 "race: %zu scenarios, %llu events, %llu accesses, "
                 "%llu conflicts (%llu waived, %llu unwaived)\n",
                 results.size(),
                 static_cast<unsigned long long>(total.events),
                 static_cast<unsigned long long>(total.accesses),
                 static_cast<unsigned long long>(total.conflicts),
                 static_cast<unsigned long long>(total.waived),
                 static_cast<unsigned long long>(total.unwaived));
    return (written && failures == 0 && total.unwaived == 0) ? 0 : 1;
#endif // EHPSIM_RACE
}

/** The top-level single run: one workload on one product. */
int
runMain(int argc, char **argv)
{
    RunOptions opt;
    parseFlags(argc, argv, 1, runFlags(opt));
    const auto workload = workloadFor(opt.workload, opt.scale);
    std::printf("ehpsim: %s on %s via %s engine\n",
                workload.name.c_str(), opt.product.c_str(),
                opt.engine.c_str());

    std::unique_ptr<ApuSystem> sys;
    const RunReport report = runWorkload(opt, workload, sys);
    if (opt.dump_stats && sys)
        sys->dumpStats(std::cout);
    std::printf("\n%-24s %12s %10s %10s %10s\n", "phase", "total",
                "gpu", "cpu", "copies");
    for (const auto &p : report.phases) {
        std::printf("%-24s %9.3f ms %7.3f ms %7.3f ms %7.3f ms\n",
                    p.name.c_str(), p.total_s * 1e3, p.gpu_s * 1e3,
                    p.cpu_s * 1e3, p.transfer_s * 1e3);
    }
    std::printf("%-24s %9.3f ms\n", "TOTAL", report.total_s * 1e3);
    const double flops =
        static_cast<double>(workload.totalGpuFlops());
    if (flops > 0 && report.total_s > 0) {
        std::printf("achieved: %.2f Tflops, %.2f TB/s\n",
                    flops / report.total_s / 1e12,
                    static_cast<double>(workload.totalGpuBytes()) /
                        report.total_s / 1e12);
    }
    if (!opt.trace_path.empty()) {
        writeChromeTrace(report, opt.trace_path);
        std::printf("trace written to %s\n", opt.trace_path.c_str());
    }
    return 0;
}

int
dispatch(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "race")
        return raceMain(argc, argv);
    if (cmd == "sweep")
        return sweepMain(argc, argv);
    if (cmd == "comm")
        return commMain(argc, argv);
    if (cmd == "fault")
        return faultMain(argc, argv);
    if (cmd == "serve")
        return serveMain(argc, argv);
    return runMain(argc, argv);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Malformed input exits 2 with a message instead of reaching
    // std::terminate: parseFlags() rethrows a rejected value as
    // std::invalid_argument naming the flag, and fatal() throws
    // after printing its own message (a bad fault spec or
    // configuration).
    try {
        return dispatch(argc, argv);
    } catch (const std::logic_error &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    } catch (const std::runtime_error &) {
        return 2;
    }
}
