/**
 * @file
 * Event-kernel performance microbenchmark (the repo's tracked perf
 * baseline, DESIGN.md §11).
 *
 * Every figure-level sweep funnels through EventQueue, so kernel
 * throughput bounds how large a sweep the repo can run. This bench
 * measures the kernel hot paths directly and emits BENCH_kernel.json:
 *
 *   schedule_churn   schedule/deschedule/reschedule mix over a pool
 *                    of persistent events (the deschedule-heavy
 *                    pattern retry/timeout logic produces)
 *   oneshot_storm_pooled  chains of one-shot callback events
 *                    through the scheduleCallback() pool
 *   comm_allreduce   ring + direct all-reduce on the Fig. 18 octo
 *                    MI300X node, driven through CommGroup
 *   comm_allreduce_octo_pdes  the same workload on the conservative
 *                    PDES core (8 partitions, DESIGN.md §15) — the
 *                    deterministic counters must equal the serial
 *                    bench's
 *   fault_storm      all-reduce under a transient chunk-error rate
 *                    plus mid-flight link derates (retry/backoff)
 *   checkpoint_fork  the sweep fast-forward cycle (DESIGN.md §16):
 *                    warm one world with ring all-reduces, save it,
 *                    then fork eight sweep points by restoring the
 *                    blob into fresh worlds — the per-point cost a
 *                    forked sweep pays instead of re-simulating the
 *                    shared warmup prefix
 *   mem_path         the memory transaction path (DESIGN.md "memory
 *                    transaction path"): the fine-grained Fig. 15 CFD
 *                    shape on one MI300A, counting the per-line work
 *                    of caches, Infinity Cache, links and DRAM
 *
 * JSON contract: everything under a benchmark's "deterministic" key
 * is byte-identical run-to-run (same build, any host); everything
 * host-dependent (WallTimer readings and rates derived from them)
 * lives under "wall" and is excluded from determinism checks, per
 * the sim/wall_timer.hh contract. perf_kernel_test asserts this.
 *
 * Flags: --quick (CI-sized inputs), --json FILE, --repeat N (take
 * the best wall time of N runs; deterministic fields are identical
 * across runs by construction).
 */

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/comm_group.hh"
#include "core/apu_system.hh"
#include "fabric/link.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/infinity_cache.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/pdes/pdes_engine.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "sim/units.hh"
#include "sim/wall_timer.hh"
#include "soc/comm_world.hh"
#include "soc/product_config.hh"
#include "sweep/sweep_runner.hh"
#include "workloads/generators.hh"

using namespace ehpsim;

namespace
{

struct BenchResult
{
    std::string name;
    /** Deterministic payload: (key, integer value) pairs. */
    std::vector<std::pair<std::string, std::uint64_t>> det;
    double best_seconds = 0;
    /** Events fired per wall second (processed / best_seconds). */
    double events_per_sec = 0;
    /** All kernel ops (schedule+deschedule+reschedule+fire) per s. */
    double ops_per_sec = 0;
};

/**
 * Run @p once @p repeat times and keep the best wall time. @p once
 * builds its own world, fills r.det (identical in every run by
 * construction; "events_processed" is required) and returns its
 * wall seconds. Rates assume one schedule per fired event unless
 * the bench overrides ops_per_sec.
 */
template <typename Once>
BenchResult
bestOf(const char *name, unsigned repeat, Once once)
{
    BenchResult r;
    r.name = name;
    r.best_seconds = -1;
    for (unsigned rep = 0; rep < repeat; ++rep) {
        const double s = once(r);
        if (r.best_seconds < 0 || s < r.best_seconds)
            r.best_seconds = s;
    }
    const auto processed = std::find_if(
        r.det.begin(), r.det.end(),
        [](const auto &kv) { return kv.first == "events_processed"; });
    r.events_per_sec =
        static_cast<double>(processed->second) / r.best_seconds;
    r.ops_per_sec = 2 * r.events_per_sec;
    return r;
}

struct Sizes
{
    // schedule_churn
    std::size_t churn_events;
    unsigned churn_rounds;
    // oneshot_storm_pooled
    std::size_t storm_chains;
    std::uint64_t storm_depth;
    // comm / fault
    std::uint64_t comm_bytes;
    unsigned comm_iters;
    std::uint64_t fault_bytes;
    // mem_path
    std::uint64_t mem_cells;
};

Sizes
sizesFor(bool quick)
{
    if (quick)
        return {2'000, 20, 64, 1'000, 16 * MiB, 1, 16 * MiB, 5'000};
    return {20'000, 100, 256, 5'000, 64 * MiB, 4, 64 * MiB, 25'000};
}

class CountingEvent : public Event
{
  public:
    explicit CountingEvent(std::uint64_t *fired) : fired_(fired) {}

    void process() override { ++*fired_; }

  private:
    std::uint64_t *fired_;
};

/**
 * The deschedule-heavy pattern: every round schedules the whole
 * population, reschedules all of it once (retry/timeout idiom),
 * deschedules a quarter (cancelled timeouts), then drains. On the
 * tombstone kernel each reschedule/deschedule grows dead_seqs_ and
 * leaves a stale heap entry to skip; the indexed heap removes in
 * place.
 */
BenchResult
benchScheduleChurn(const Sizes &sz, unsigned repeat)
{
    std::uint64_t ops = 0;
    BenchResult result = bestOf("schedule_churn", repeat, [&](BenchResult &r) {
        std::uint64_t fired = 0;
        ops = 0;
        EventQueue eq;
        std::vector<CountingEvent> events(sz.churn_events,
                                          CountingEvent(&fired));
        Rng rng(12345);
        WallTimer wt;
        for (unsigned round = 0; round < sz.churn_rounds; ++round) {
            const Tick base = eq.curTick() + 1;
            for (auto &ev : events) {
                eq.schedule(&ev, base + rng.nextBounded(1024));
                ++ops;
            }
            for (auto &ev : events) {
                eq.reschedule(&ev, base + rng.nextBounded(1024));
                ++ops;
            }
            for (std::size_t i = 0; i < events.size(); i += 4) {
                eq.deschedule(&events[i]);
                ++ops;
            }
            eq.run();
            ops += fired;
        }
        r.det = {{"events_fired", fired},
                 {"events_processed", eq.numProcessed()},
                 {"kernel_ops", ops},
                 {"final_tick", eq.curTick()},
                 {"peak_live", eq.peakLive()},
                 {"heap_capacity", eq.capacity()}};
        return wt.seconds();
    });
    result.ops_per_sec = static_cast<double>(ops) / result.best_seconds;
    return result;
}

void poolHop(EventQueue &eq, std::vector<std::uint64_t> &left,
             std::size_t i);

void
poolHop(EventQueue &eq, std::vector<std::uint64_t> &left,
        std::size_t i)
{
    eq.scheduleCallback(eq.curTick() + 1 + (i % 7), [&eq, &left, i] {
        if (--left[i] > 0)
            poolHop(eq, left, i);
    });
}

/**
 * Independent chains of one-shot callbacks, each event scheduling
 * its successor: steady-state one-shot scheduling, the pattern of
 * every chunk-completion and fault event in the tree. The pool
 * makes it allocation-free.
 */
BenchResult
benchOneshotStormPooled(const Sizes &sz, unsigned repeat)
{
    return bestOf("oneshot_storm_pooled", repeat, [&](BenchResult &r) {
        EventQueue eq;
        std::vector<std::uint64_t> left(sz.storm_chains,
                                        sz.storm_depth);
        WallTimer wt;
        for (std::size_t i = 0; i < left.size(); ++i)
            poolHop(eq, left, i);
        eq.run();
        r.det = {{"events_processed", eq.numProcessed()},
                 {"final_tick", eq.curTick()},
                 {"pool_capacity", eq.poolCapacity()}};
        return wt.seconds();
    });
}

/** comm_iters rounds of a ring then a direct all-reduce of
 *  comm_bytes; @return the bytes they placed on links. */
std::uint64_t
ringThenDirect(soc::CommWorld &w, const Sizes &sz)
{
    std::uint64_t lb = 0;
    for (unsigned it = 0; it < sz.comm_iters; ++it) {
        lb += w.run(comm::Collective::allReduce, comm::Algorithm::ring,
                    sz.comm_bytes)
                  ->linkBytes();
        lb += w.run(comm::Collective::allReduce, comm::Algorithm::direct,
                    sz.comm_bytes)
                  ->linkBytes();
    }
    return lb;
}

/** Ring + direct all-reduce on the octo node (Fig. 18b). */
BenchResult
benchCommAllReduce(const Sizes &sz, unsigned repeat)
{
    return bestOf("comm_allreduce_octo", repeat, [&](BenchResult &r) {
        soc::CommWorld w("octo", soc::kFig18Comm);
        WallTimer wt;
        const std::uint64_t link_bytes = ringThenDirect(w, sz);
        r.det = {{"events_processed", w.eq.numProcessed()},
                 {"final_tick", w.eq.curTick()},
                 {"link_bytes", link_bytes},
                 {"peak_live", w.eq.peakLive()},
                 {"heap_capacity", w.eq.capacity()}};
        return wt.seconds();
    });
}

/**
 * The comm_allreduce_octo workload on the conservative parallel
 * core: the eight socket domains become eight PDES partitions, each
 * with its own indexed-heap queue, windowed by the octo node's
 * min-link-latency lookahead. The deterministic counters must match
 * the serial bench exactly (same schedule, same ticks, same bytes) —
 * partitions/windows/lookahead are additionally pinned so placement
 * regressions show up as counter diffs, not just wall-time noise.
 */
BenchResult
benchCommAllReducePdes(const Sizes &sz, unsigned repeat)
{
    return bestOf("comm_allreduce_octo_pdes", repeat, [&](BenchResult &r) {
        soc::CommWorld w("octo", soc::kFig18Comm);
        w.attachPdes(8);
        const auto &engine = *w.engine;
        WallTimer wt;
        const std::uint64_t link_bytes = ringThenDirect(w, sz);
        r.det = {{"events_processed", engine.totalProcessed()},
                 {"final_tick", w.eq.curTick()},
                 {"link_bytes", link_bytes},
                 {"peak_live", engine.peakLiveTotal()},
                 {"partitions", engine.partitions()},
                 {"windows", engine.windows()},
                 {"lookahead_ticks", engine.lookahead()}};
        return wt.seconds();
    });
}

/**
 * All-reduce under a 5% transient chunk-error rate plus two x16
 * derates mid-flight: the retry/backoff path reschedules heavily.
 */
BenchResult
benchFaultStorm(const Sizes &sz, unsigned repeat)
{
    comm::CommParams params = soc::kFig18Comm;
    params.retry_timeout = 200'000'000;     // 200 us
    params.max_retries = 16;
    fault::FaultPlan plan;
    plan.seed = 20240624;
    plan.chunk_error_rate = 0.05;
    plan.link_faults.push_back({"mi300x0", "mi300x1", 5'000'000, 0.5});
    plan.link_faults.push_back({"mi300x2", "mi300x3", 9'000'000, 0.5});
    return bestOf("fault_storm", repeat, [&](BenchResult &r) {
        soc::CommWorld w("octo", params, &plan);
        WallTimer wt;
        w.run(comm::Collective::allReduce, comm::Algorithm::ring,
              sz.fault_bytes);
        w.eq.run();     // drain any faults scheduled past completion
        r.det = {{"events_processed", w.eq.numProcessed()},
                 {"final_tick", w.eq.curTick()},
                 {"chunk_retries", static_cast<std::uint64_t>(
                                       w.group->chunk_retries.value())},
                 {"faults_injected",
                  static_cast<std::uint64_t>(
                      w.injector->faults_injected.value())},
                 {"peak_live", w.eq.peakLive()}};
        return wt.seconds();
    });
}

/**
 * The sweep fast-forward cycle (DESIGN.md §16): simulate a shared
 * warmup prefix of ring all-reduces once, saveWorld() the quiesced
 * world, then fork eight sweep points — each restores the blob into
 * a freshly built world and runs one measured collective. The wall
 * time is what a forked sweep pays end to end (warmup once + save +
 * eight restores + eight measured ops); a straight-through sweep
 * would re-simulate warmup_events_skipped extra kernel events to
 * reach the same eight results. Byte-identity of the forked results
 * is the snapshot_test/cli_test contract; this bench tracks the
 * cost side.
 */
BenchResult
benchCheckpointFork(const Sizes &sz, unsigned repeat)
{
    constexpr std::uint64_t kPoints = 8;
    return bestOf("checkpoint_fork", repeat, [&](BenchResult &r) {
        WallTimer wt;
        std::uint64_t warm_events = 0;
        std::string blob;
        {
            soc::CommWorld w("octo", soc::kFig18Comm);
            w.warmup(sz.comm_iters, sz.comm_bytes);
            warm_events = w.eq.numProcessed();
            blob = saveWorld(w.eq, w.root);
        }
        std::uint64_t processed = 0, link_bytes = 0, final_tick = 0;
        for (std::uint64_t pt = 0; pt < kPoints; ++pt) {
            soc::CommWorld w("octo", soc::kFig18Comm);
            restoreWorld(blob, w.eq, w.root);
            link_bytes += w.run(comm::Collective::allReduce,
                                comm::Algorithm::direct, sz.comm_bytes)
                              ->linkBytes();
            processed += w.eq.numProcessed() - warm_events;
            final_tick = w.eq.curTick();
        }
        r.det = {{"fork_points", kPoints},
                 {"warmup_events", warm_events},
                 {"warmup_events_skipped", (kPoints - 1) * warm_events},
                 {"snapshot_bytes", blob.size()},
                 {"events_processed", processed},
                 {"final_tick", final_tick},
                 {"link_bytes", link_bytes}};
        return wt.seconds();
    });
}

/** Per-line work of the memory path, summed from existing stats. */
struct MemPathCounts
{
    std::uint64_t cache_accesses = 0;   ///< Cache hits + misses
    std::uint64_t ic_accesses = 0;      ///< Infinity Cache hits + misses
    std::uint64_t link_transfers = 0;
    std::uint64_t dram_accesses = 0;    ///< DRAM reads + writes
};

void
sumMemPath(const stats::StatGroup &g, MemPathCounts &c)
{
    const auto n = [](const stats::Scalar &s) {
        return static_cast<std::uint64_t>(s.value());
    };
    if (const auto *cache = dynamic_cast<const mem::Cache *>(&g))
        c.cache_accesses += n(cache->hits) + n(cache->misses);
    else if (const auto *ic =
                 dynamic_cast<const mem::InfinityCacheSlice *>(&g))
        c.ic_accesses += n(ic->hits) + n(ic->misses);
    else if (const auto *link = dynamic_cast<const fabric::Link *>(&g))
        c.link_transfers += n(link->transfers);
    else if (const auto *dram = dynamic_cast<const mem::DramChannel *>(&g))
        c.dram_accesses += n(dram->reads) + n(dram->writes);
    for (const stats::StatGroup *child : g.groupList())
        sumMemPath(*child, c);
}

/**
 * The memory transaction path: hostbench's apu_cfd fine-grained
 * shape (cfdSolver over 256 workgroups, flag-based CPU/GPU overlap)
 * on one MI300A. The memory path schedules no events, so the
 * counters are the per-line work it did; the wall time covers the
 * run, not building the package.
 */
BenchResult
benchMemPath(const Sizes &sz, unsigned repeat)
{
    workloads::Workload work = workloads::cfdSolver(sz.mem_cells, 2);
    for (auto &p : work.phases)
        p.grid_workgroups = 256;
    return bestOf("mem_path", repeat, [&](BenchResult &r) {
        core::ApuSystem apu(soc::mi300aConfig());
        WallTimer wt;
        apu.run(work, 1, hsa::DistributionPolicy::roundRobin, true);
        const double seconds = wt.seconds();
        MemPathCounts c;
        sumMemPath(apu, c);
        r.det = {{"events_processed", apu.eventQueue().numProcessed()},
                 {"cache_accesses", c.cache_accesses},
                 {"ic_accesses", c.ic_accesses},
                 {"link_transfers", c.link_transfers},
                 {"dram_accesses", c.dram_accesses}};
        return seconds;
    });
}

void
dumpJson(std::ostream &os, bool quick,
         const std::vector<BenchResult> &results)
{
    json::JsonWriter jw(os);
    jw.beginObject();
    jw.kv("schema", "ehpsim-bench-kernel-v1");
    jw.kv("quick", quick);
    jw.key("benchmarks");
    jw.beginArray();
    for (const auto &r : results) {
        jw.beginObject();
        jw.kv("name", r.name);
        jw.key("deterministic");
        jw.beginObject();
        for (const auto &[k, v] : r.det)
            jw.kv(k, v);
        jw.endObject();
        jw.key("wall");
        jw.beginObject();
        jw.kv("best_seconds", r.best_seconds);
        jw.kv("events_per_sec", r.events_per_sec);
        jw.kv("ops_per_sec", r.ops_per_sec);
        jw.endObject();
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
    os << "\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    unsigned repeat = 3;
    std::string json_path;
    std::string only;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--repeat" && i + 1 < argc) {
            const std::string v = argv[++i];
            try {
                repeat = static_cast<unsigned>(parseUnsigned(v, ~0u));
                if (repeat == 0)
                    throw std::out_of_range("'" + v +
                                            "' is below the minimum 1");
            } catch (const std::logic_error &e) {
                std::fprintf(stderr, "perf_kernel: --repeat: %s\n",
                             e.what());
                return 2;
            }
        } else if (arg == "--only" && i + 1 < argc) {
            only = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: perf_kernel [--quick] [--json FILE] "
                         "[--repeat N] [--only NAME]\n");
            return 2;
        }
    }

    const Sizes sz = sizesFor(quick);
    using BenchFn = BenchResult (*)(const Sizes &, unsigned);
    const struct
    {
        const char *name;
        BenchFn fn;
    } benches[] = {
        {"schedule_churn", benchScheduleChurn},
        {"oneshot_storm_pooled", benchOneshotStormPooled},
        {"comm_allreduce_octo", benchCommAllReduce},
        {"comm_allreduce_octo_pdes", benchCommAllReducePdes},
        {"fault_storm", benchFaultStorm},
        {"checkpoint_fork", benchCheckpointFork},
        {"mem_path", benchMemPath},
    };
    std::vector<BenchResult> results;
    for (const auto &b : benches) {
        if (only.empty() || only == b.name)
            results.push_back(b.fn(sz, repeat));
    }
    if (results.empty()) {
        std::fprintf(stderr, "perf_kernel: no benchmark named '%s'\n",
                     only.c_str());
        return 2;
    }

    for (const auto &r : results) {
        std::printf("[kernel_bench] %s: %.3f s best, %.3g events/s, "
                    "%.3g ops/s\n",
                    r.name.c_str(), r.best_seconds, r.events_per_sec,
                    r.ops_per_sec);
    }

    if (json_path.empty())
        return 0;
    std::ostringstream doc;
    dumpJson(doc, quick, results);
    const bool written =
        sweep::SweepRunner::writeDocument("perf_kernel", doc.str(), json_path);
    return written ? 0 : 1;
}
