/**
 * @file
 * One sample of the ehpsim host-performance benchmark.
 *
 * Each invocation is a fresh process that builds one workload's
 * world several times (timing each build), runs the workload once
 * through the libraries' public entry points, and prints a single
 * JSON object on stdout: host timings, event-kernel counters, the
 * workload's deterministic document and its FNV-1a digest. run.py
 * in this directory launches it, checks the documents and aggregates
 * the samples; see README.md for the workloads and metrics.
 *
 *   hostbench --workload serve_tp8|comm_octo_pdes|apu_cfd --seed N
 *             [--trace] [--serial]
 *   hostbench --replay         (standalone layer replays)
 *   hostbench --version        (compiler and build type)
 *
 * --trace records host-time spans around each call into a layer.
 * --replay times fabric::Link and mem::Cache on their own, in a
 * process of their own so no workload's heap state skews them. --serial
 * runs comm_octo_pdes on the serial queue (the reference its PDES
 * document must match byte for byte). Malformed arguments exit 2.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "comm/comm_group.hh"
#include "core/apu_system.hh"
#include "fabric/link.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/hbm_subsystem.hh"
#include "serve/scenario.hh"
#include "serve/serving_engine.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/pdes/pdes_engine.hh"
#include "sim/wall_timer.hh"
#include "soc/node_topology.hh"
#include "soc/product_config.hh"
#include "workloads/generators.hh"

namespace
{

using namespace ehpsim;

const char *const usageText =
    "usage: hostbench --workload serve_tp8|comm_octo_pdes|apu_cfd "
    "--seed N [--trace] [--serial]\n";

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "hostbench: %s\n%s", msg.c_str(), usageText);
    std::exit(2);
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, out);
    return !s.empty() && ec == std::errc() && ptr == end;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** splitmix64: a fixed, portable stream for seeded permutations. */
std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** Heap bytes in use (brk arena + mmapped chunks). Unlike RSS, this
 *  does not depend on what earlier frees left resident. */
double
heapBytesInUse()
{
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
}

/**
 * Host-time spans, kept in memory and printed with the sample. When
 * tracing is off, span() only calls its body: the untraced run pays
 * nothing but a branch.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    template <typename F>
    void
    span(const std::string &name, F &&body)
    {
        if (!on_) {
            body();
            return;
        }
        WallTimer t;
        body();
        spans_.push_back({name, t.seconds()});
    }

    void
    dump(json::JsonWriter &jw) const
    {
        jw.beginArray();
        for (const auto &s : spans_) {
            jw.beginObject();
            jw.kv("name", s.name);
            jw.kv("dur_s", s.dur_s);
            jw.endObject();
        }
        jw.endArray();
    }

  private:
    struct Span
    {
        std::string name;
        double dur_s;
    };

    bool on_;
    std::vector<Span> spans_;
};

/** Event-kernel counters of the measured run (0 = not exposed). */
struct KernelCounters
{
    std::uint64_t events = 0;
    std::uint64_t peak_live = 0;
    std::uint64_t pool_capacity = 0;
    std::uint64_t pdes_windows = 0;
};

/** What one workload run leaves behind. */
struct RunOutput
{
    std::string doc;        ///< deterministic document (JSON)
    KernelCounters kernel;
};

/**
 * A workload: build() constructs a fresh world (timed as set-up),
 * run() executes the most recently built world once.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void build() = 0;
    virtual RunOutput run(Tracer &tr) = 0;
};

// ---------------------------------------------------------------------
// serve_tp8: Fig. 21 TP-8 serving on the Fig. 18b octo node.

class ServeTp8 : public Workload
{
  public:
    explicit ServeTp8(std::uint64_t seed)
    {
        p_.device = "mi300x";
        p_.tp = 8;
        p_.num_requests = 16;
        p_.input_tokens = 1024;
        p_.output_tokens = 32;
        // One sequence at a time, offered faster than it is served:
        // decode steps and the simulated span are then the sum of the
        // requests' token counts, so seeds move arrival times and
        // latencies but barely the host work (see README.md).
        p_.max_batch = 1;
        p_.load_rps = 64.0;
        p_.seed = seed;
    }

    /**
     * runServingScenario() builds its world internally, so set-up is
     * timed on the same components built through their public
     * constructors: config and KV pool sizing, the arrival trace, the
     * octo node, the TP CommGroup, HBM and the engine.
     */
    void
    build() override
    {
        world_.reset();
        world_ = std::make_unique<World>(p_);
    }

    RunOutput
    run(Tracer &tr) override
    {
        // runServingScenario builds its own world; free the set-up one
        // so it does not count toward the run's peak RSS.
        world_.reset();
        serve::ScenarioResult r;
        tr.span("serve.runServingScenario",
                [&] { r = serve::runServingScenario(p_); });
        std::ostringstream os;
        json::JsonWriter jw(os);
        serve::dumpScenario(jw, p_, r);
        return {os.str(), {}};
    }

  private:
    struct World
    {
        EventQueue eq;
        SimObject root{nullptr, "serving", &eq};
        std::unique_ptr<soc::NodeTopology> topo;
        std::unique_ptr<comm::CommGroup> group;
        std::unique_ptr<mem::HbmSubsystem> hbm;
        std::unique_ptr<serve::ServingEngine> engine;

        explicit World(const serve::ScenarioParams &p)
        {
            const serve::ServingConfig cfg = serve::scenarioConfig(p);
            topo = soc::NodeTopology::mi300xOctoNode(&root);
            std::vector<fabric::NodeId> ranks;
            for (unsigned i = 0; i < cfg.tp; ++i)
                ranks.push_back(topo->nodeId(i));
            comm::CommParams cp;
            cp.chunk_bytes = 1 * MiB;
            group = std::make_unique<comm::CommGroup>(
                topo.get(), "tp_comm", topo->network(),
                std::move(ranks), &eq, cp);
            mem::HbmSubsystemParams hp;
            hp.capacity_bytes = cfg.mem_capacity;
            hbm = std::make_unique<mem::HbmSubsystem>(&root, "hbm", hp);
            engine = std::make_unique<serve::ServingEngine>(
                &root, "engine", &eq, cfg, serve::scenarioTrace(p),
                group.get(), hbm.get());
        }
    };

    serve::ScenarioParams p_;
    std::unique_ptr<World> world_;
};

// ---------------------------------------------------------------------
// comm_octo_pdes: Fig. 18 octo-node collectives on the PDES core.

class CommOctoPdes : public Workload
{
  public:
    CommOctoPdes(std::uint64_t seed, bool serial) : serial_(serial)
    {
        using comm::Algorithm;
        using comm::Collective;
        const std::pair<Collective, Algorithm> kinds[] = {
            {Collective::allReduce, Algorithm::ring},
            {Collective::allReduce, Algorithm::direct},
            {Collective::allGather, Algorithm::automatic},
            {Collective::reduceScatter, Algorithm::automatic},
            {Collective::allToAll, Algorithm::automatic},
        };
        for (const auto &[coll, algo] : kinds) {
            for (const std::uint64_t mib : {1, 16, 64, 256})
                points_.push_back({coll, algo, mib * MiB});
        }
        // The seed fixes the order the points run in.
        std::uint64_t state = seed;
        for (std::size_t i = points_.size(); i > 1; --i)
            std::swap(points_[i - 1], points_[splitmix(state) % i]);
    }

    void
    build() override
    {
        world_.reset();
        world_ = std::make_unique<World>();
    }

    /** The PDES engine (and its worker thread) is part of the run,
     *  as in `ehpsim_cli comm --pdes`; set-up is the node and group. */
    RunOutput
    run(Tracer &tr) override
    {
        World &w = *world_;
        comm::CommGroup &group = *w.group;
        std::unique_ptr<pdes::PdesEngine> engine;
        if (!serial_) {
            engine = std::make_unique<pdes::PdesEngine>(
                &w.eq, w.topo->network(), 2);
            group.attachPdes(engine.get());
        }
        std::ostringstream os;
        json::JsonWriter jw(os);
        jw.beginObject();
        jw.key("points");
        jw.beginArray();
        for (const Point &pt : points_) {
            comm::OpHandle op;
            const std::string name =
                std::string("comm.") + comm::collectiveName(pt.coll) +
                "." + comm::algorithmName(pt.algo) + "." +
                std::to_string(pt.bytes / MiB) + "MiB";
            tr.span(name, [&] {
                op = start(group, pt, w.eq.curTick());
                group.waitAll();
            });
            jw.beginObject();
            jw.kv("collective", comm::collectiveName(pt.coll));
            jw.kv("algorithm", comm::algorithmName(op->algorithm()));
            jw.kv("bytes", pt.bytes);
            jw.kv("seconds", op->seconds());
            jw.kv("algbw_gbps", op->algoBandwidth() / 1e9);
            jw.kv("link_bytes", op->linkBytes());
            jw.endObject();
        }
        jw.endArray();
        if (engine)
            group.attachPdes(nullptr);
        jw.key("stats");
        w.root.dumpJsonStats(jw);
        jw.endObject();

        RunOutput out{os.str(), {}};
        if (engine) {
            out.kernel.events = engine->totalProcessed();
            out.kernel.peak_live = engine->peakLiveTotal();
            out.kernel.pdes_windows = engine->windows();
        } else {
            out.kernel.events = w.eq.numProcessed();
            out.kernel.peak_live = w.eq.peakLive();
        }
        out.kernel.pool_capacity = w.eq.poolCapacity();
        return out;
    }

  private:
    struct Point
    {
        comm::Collective coll;
        comm::Algorithm algo;
        std::uint64_t bytes;
    };

    struct World
    {
        SimObject root{nullptr, "root"};
        std::unique_ptr<soc::NodeTopology> topo;
        EventQueue eq;
        std::unique_ptr<comm::CommGroup> group;

        World()
        {
            topo = soc::NodeTopology::mi300xOctoNode(&root);
            comm::CommParams params;
            params.chunk_bytes = 1 * MiB;
            group = std::make_unique<comm::CommGroup>(
                topo.get(), "comm", topo->network(),
                topo->deviceRanks(), &eq, params);
        }
    };

    static comm::OpHandle
    start(comm::CommGroup &g, const Point &pt, Tick when)
    {
        switch (pt.coll) {
          case comm::Collective::allReduce:
            return g.allReduce(when, pt.bytes, pt.algo);
          case comm::Collective::allGather:
            return g.allGather(when, pt.bytes, pt.algo);
          case comm::Collective::reduceScatter:
            return g.reduceScatter(when, pt.bytes, pt.algo);
          default:
            return g.allToAll(when, pt.bytes, pt.algo);
        }
    }

    bool serial_;
    std::vector<Point> points_;
    std::unique_ptr<World> world_;
};

// ---------------------------------------------------------------------
// apu_cfd: Fig. 15 coherent CPU<->GPU overlap on MI300A.

void
dumpReport(json::JsonWriter &jw, const core::RunReport &r)
{
    jw.beginObject();
    jw.kv("total_s", r.total_s);
    jw.kv("fabric_energy_j", r.fabric_energy_j);
    jw.kv("hbm_energy_j", r.hbm_energy_j);
    jw.key("phases");
    jw.beginArray();
    for (const auto &ph : r.phases) {
        jw.beginObject();
        jw.kv("name", ph.name);
        jw.kv("gpu_s", ph.gpu_s);
        jw.kv("cpu_s", ph.cpu_s);
        jw.kv("total_s", ph.total_s);
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
}

class ApuCfd : public Workload
{
  public:
    /** cfdSolver has no random component: the seed is not used. */
    void
    build() override
    {
        fine_.reset();
        coarse_.reset();
        work_ = workloads::cfdSolver(25'000, 2);
        for (auto &p : work_.phases)
            p.grid_workgroups = 256;
        fine_ = std::make_unique<core::ApuSystem>(soc::mi300aConfig());
        coarse_ = std::make_unique<core::ApuSystem>(soc::mi300aConfig());
    }

    RunOutput
    run(Tracer &tr) override
    {
        core::RunReport rf, rc;
        tr.span("core.ApuSystem.run.fine", [&] {
            rf = fine_->run(work_, 1, hsa::DistributionPolicy::roundRobin,
                            true);
        });
        tr.span("core.ApuSystem.run.coarse", [&] {
            rc = coarse_->run(work_, 1,
                              hsa::DistributionPolicy::roundRobin, false);
        });
        std::ostringstream os;
        json::JsonWriter jw(os);
        jw.beginObject();
        jw.key("fine");
        dumpReport(jw, rf);
        jw.key("coarse");
        dumpReport(jw, rc);
        jw.key("stats");
        jw.beginObject();
        jw.key("fine");
        fine_->dumpJsonStats(jw);
        jw.key("coarse");
        coarse_->dumpJsonStats(jw);
        jw.endObject();
        jw.endObject();

        RunOutput out{os.str(), {}};
        for (core::ApuSystem *s : {fine_.get(), coarse_.get()}) {
            const EventQueue &eq = s->eventQueue();
            out.kernel.events += eq.numProcessed();
            out.kernel.peak_live =
                std::max<std::uint64_t>(out.kernel.peak_live,
                                        eq.peakLive());
            out.kernel.pool_capacity =
                std::max<std::uint64_t>(out.kernel.pool_capacity,
                                        eq.poolCapacity());
        }
        return out;
    }

  private:
    workloads::Workload work_;
    std::unique_ptr<core::ApuSystem> fine_;
    std::unique_ptr<core::ApuSystem> coarse_;
};

// ---------------------------------------------------------------------
// Standalone layer replays (--replay).

/**
 * fabric::Link::transfer in two shapes. Sparse: serve_tp8's traffic
 * on one octo-node link, as its document reports it for seed 1
 * (every link alike): 1052 transfers moving 70'123'520 bytes over a
 * 2.876 s simulated makespan, i.e. 66'657 bytes per transfer, one
 * every 2.734 ms. Each transfer then lands far past the previous
 * one. Dense: comm's back-to-back 1 MiB chunks. Reports host ns per
 * transfer and, for the sparse shape, the heap KiB the link holds
 * per 1000 transfers.
 */
void
replayFabric(json::JsonWriter &jw)
{
    constexpr unsigned sparse_n = 20'000;
    constexpr unsigned dense_n = 20'000;
    constexpr std::uint64_t sparse_bytes = 66'657;
    constexpr Tick sparse_gap = 2'734'000'000;     // 2.734 ms
    SimObject root(nullptr, "replay");

    double sparse_ns = 0, heap_kb_per_1k = 0, dense_ns = 0;
    {
        fabric::Link link(&root, "sparse", fabric::serdesIfLinkParams());
        const double heap0 = heapBytesInUse();
        WallTimer t;
        Tick when = 0;
        for (unsigned i = 0; i < sparse_n; ++i) {
            link.transfer(when, sparse_bytes);
            when += sparse_gap;
        }
        sparse_ns = t.seconds() * 1e9 / sparse_n;
        heap_kb_per_1k =
            (heapBytesInUse() - heap0) / 1024 / (sparse_n / 1000.0);
    }
    {
        fabric::Link link(&root, "dense", fabric::serdesIfLinkParams());
        WallTimer t;
        Tick when = 0;
        for (unsigned i = 0; i < dense_n; ++i)
            when = link.transfer(when, 1 * MiB);
        dense_ns = t.seconds() * 1e9 / dense_n;
    }
    jw.kv("fabric.transfer_ns_sparse", sparse_ns);
    jw.kv("fabric.heap_kb_per_1k_sparse", heap_kb_per_1k);
    jw.kv("fabric.transfer_ns_dense", dense_ns);
}

/**
 * mem::Cache::access and Cache::flush on an XCD-L2-shaped cache over
 * one HBM3 channel. Access: a seeded random stream over 4x the
 * cache's capacity, one write in four. Flush: fill every line dirty,
 * then time flush(); reports ns per written-back line.
 */
void
replayMem(json::JsonWriter &jw)
{
    constexpr unsigned access_n = 400'000;
    constexpr unsigned flush_rounds = 8;
    SimObject root(nullptr, "replay");
    mem::DramChannel dram(&root, "dram", mem::hbm3ChannelParams());
    mem::CacheParams cp;
    cp.size_bytes = 4 * MiB;
    cp.assoc = 16;
    cp.line_bytes = 128;
    mem::Cache cache(&root, "l2", cp, &dram);

    std::uint64_t state = 42;
    const std::uint64_t lines = 4 * cp.size_bytes / cp.line_bytes;
    Tick when = 0;
    WallTimer t;
    for (unsigned i = 0; i < access_n; ++i) {
        const std::uint64_t r = splitmix(state);
        cache.access(when, (r % lines) * cp.line_bytes, cp.line_bytes,
                     (r >> 62) == 0);
        when += 1000;
    }
    const double access_ns = t.seconds() * 1e9 / access_n;

    double flush_s = 0, wbs = 0;
    for (unsigned round = 0; round < flush_rounds; ++round) {
        for (Addr a = 0; a < cp.size_bytes; a += cp.line_bytes) {
            cache.access(when, a, cp.line_bytes, true);
            when += 1000;
        }
        const double before = cache.writebacks.value();
        WallTimer f;
        when = cache.flush(when);
        flush_s += f.seconds();
        wbs += cache.writebacks.value() - before;
    }
    jw.kv("mem.cache_access_ns", access_ns);
    jw.kv("mem.flush_ns_per_writeback", wbs > 0 ? flush_s * 1e9 / wbs : 0);
}

// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    bool have_seed = false;
    bool trace = false;
    bool serial = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            a.workload = value();
        } else if (arg == "--seed") {
            const std::string v = value();
            if (!parseU64(v, a.seed))
                usageError("--seed wants a non-negative integer, got '" +
                           v + "'");
            a.have_seed = true;
        } else if (arg == "--trace") {
            a.trace = true;
        } else if (arg == "--serial") {
            a.serial = true;
        } else {
            usageError("unknown argument '" + arg + "'");
        }
    }
    if (a.workload.empty())
        usageError("--workload is required");
    if (!a.have_seed)
        usageError("--seed is required");
    if (a.serial && a.workload != "comm_octo_pdes")
        usageError("--serial applies to comm_octo_pdes only");
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const Args &a)
{
    if (a.workload == "serve_tp8")
        return std::make_unique<ServeTp8>(a.seed);
    if (a.workload == "comm_octo_pdes")
        return std::make_unique<CommOctoPdes>(a.seed, a.serial);
    if (a.workload == "apu_cfd")
        return std::make_unique<ApuCfd>();
    usageError("unknown workload '" + a.workload +
               "' (serve_tp8, comm_octo_pdes, apu_cfd)");
}

int
sample(const Args &a)
{
    logging_detail::setQuiet(true);
    auto wl = makeWorkload(a);
    Tracer tr(a.trace);

    // Worlds take 0.1 ms (comm) to 50 ms (apu) to build: repeat the
    // build until a quarter second has passed and report the median,
    // so every workload's set-up time is steady.
    std::vector<double> setup_s;
    for (WallTimer total;
         setup_s.size() < 5 ||
         (total.seconds() < 0.25 && setup_s.size() < 1000);) {
        WallTimer t;
        tr.span("soc.build", [&] { wl->build(); });
        setup_s.push_back(t.seconds());
    }
    std::sort(setup_s.begin(), setup_s.end());

    const double cpu0 = cpuSeconds();
    WallTimer wall;
    const RunOutput out = wl->run(tr);
    const double wall_s = wall.seconds();
    const double cpu_s = cpuSeconds() - cpu0;
    wl.reset();

    std::ostringstream os;
    json::JsonWriter jw(os);
    jw.beginObject();
    jw.kv("workload", a.workload);
    jw.kv("seed", a.seed);
    jw.kv("trace", a.trace);
    jw.kv("serial", a.serial);
    jw.kv("setup_s", setup_s[setup_s.size() / 2]);
    jw.kv("setup_reps", setup_s.size());
    jw.kv("wall_s", wall_s);
    jw.kv("cpu_s", cpu_s);
    jw.key("kernel");
    jw.beginObject();
    jw.kv("events", out.kernel.events);
    jw.kv("peak_live", out.kernel.peak_live);
    jw.kv("pool_capacity", out.kernel.pool_capacity);
    jw.kv("pdes_windows", out.kernel.pdes_windows);
    jw.endObject();
    if (a.trace) {
        jw.key("spans");
        tr.dump(jw);
    }
    jw.kv("peak_rss_kb", static_cast<std::uint64_t>(peakRssKb()));
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(fnv1a(out.doc)));
    jw.kv("digest", std::string(digest));
    jw.key("doc");
    jw.rawValue(out.doc);
    jw.endObject();
    std::printf("%s\n", os.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--version") {
        std::printf("%s, %s\n", HOSTBENCH_COMPILER, HOSTBENCH_BUILD_TYPE);
        return 0;
    }
    if (argc == 2 && std::string(argv[1]) == "--replay") {
        std::ostringstream os;
        json::JsonWriter jw(os);
        jw.beginObject();
        jw.key("replay");
        jw.beginObject();
        replayFabric(jw);
        replayMem(jw);
        jw.endObject();
        jw.endObject();
        std::printf("%s\n", os.str().c_str());
        return 0;
    }
    const Args a = parseArgs(argc, argv);
    try {
        return sample(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s failed: %s\n",
                     a.workload.c_str(), e.what());
        return 1;
    }
}
