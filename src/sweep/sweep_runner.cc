#include "sweep/sweep_runner.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "sim/wall_timer.hh"

namespace ehpsim
{
namespace sweep
{

namespace
{

/** Indent every line of a pre-serialized JSON value by @p pad spaces
 *  (except the first, which lands after the parent's own padding). */
std::string
reindent(const std::string &raw, unsigned pad)
{
    std::string out;
    out.reserve(raw.size());
    const std::string padding(pad, ' ');
    for (const char c : raw) {
        out += c;
        if (c == '\n')
            out += padding;
    }
    return out;
}

} // anonymous namespace

SweepRunner::SweepRunner(unsigned workers)
    : workers_(workers ? workers
                       : std::max(1u, std::thread::hardware_concurrency()))
{
}

std::size_t
SweepRunner::addJob(std::string name,
                    std::function<void(json::JsonWriter &)> fn)
{
    jobs_.push_back(SweepJob{std::move(name), std::move(fn)});
    return jobs_.size() - 1;
}

std::size_t
SweepRunner::addForkedJob(std::string name, const WarmupSpec &warmup,
                          std::function<void(const std::string &,
                                             json::JsonWriter &)>
                              fn)
{
    if (!warmup.produce)
        fatal("sweep: forked job '", name,
              "' has no warmup producer");

    const std::uint64_t hash = fnv1a(warmup.config);
    WarmupEntry *entry = nullptr;
    for (const auto &e : warmups_) {
        if (e->hash == hash && e->config == warmup.config) {
            entry = e.get();
            break;
        }
    }
    if (!entry) {
        auto fresh = std::make_unique<WarmupEntry>();
        fresh->hash = hash;
        fresh->config = warmup.config;
        fresh->produce = warmup.produce;
        entry = fresh.get();
        warmups_.push_back(std::move(fresh));
    }

    return addJob(
        std::move(name),
        [entry, fn = std::move(fn)](json::JsonWriter &jw) {
            // First arrival runs the warmup; the once_flag both
            // serializes that and publishes blob/error to everyone
            // who forks after.
            std::call_once(entry->once, [entry] {
                try {
                    entry->blob = entry->produce();
                } catch (...) {
                    entry->error = std::current_exception();
                }
            });
            if (entry->error)
                std::rethrow_exception(entry->error);
            fn(entry->blob, jw);
        });
}

std::vector<JobResult>
SweepRunner::run()
{
    const std::size_t n = jobs_.size();
    std::vector<JobResult> results(n);

    // The work queue: a cursor over the job vector. Workers pull the
    // next un-started index under the mutex and run the job outside
    // it. Each worker writes only to its own result slot, so result
    // storage needs no further synchronization.
    std::mutex mtx;
    std::size_t next = 0;

    auto worker = [&]() {
        for (;;) {
            std::size_t idx;
            {
                std::lock_guard<std::mutex> lock(mtx);
                if (next >= n)
                    return;
                idx = next++;
            }
            JobResult &res = results[idx];
            res.index = idx;
            res.name = jobs_[idx].name;
            // Host-side timing for operator feedback only; wall_s
            // never enters the deterministic dumpJson() payload.
            const WallTimer timer;
            std::ostringstream payload;
            try {
                json::JsonWriter jw(payload);
                jobs_[idx].fn(jw);
                res.output = payload.str();
                res.ok = true;
            } catch (const std::exception &e) {
                res.ok = false;
                res.error = e.what();
                res.output.clear();
            } catch (...) {
                res.ok = false;
                res.error = "unknown exception";
                res.output.clear();
            }
            res.wall_s = timer.seconds();
        }
    };

    const unsigned pool =
        static_cast<unsigned>(std::min<std::size_t>(workers_, n));
    if (pool <= 1) {
        // Serial reference path: same code, calling thread.
        worker();
    } else {
        std::vector<std::jthread> threads;
        threads.reserve(pool);
        for (unsigned i = 0; i < pool; ++i)
            threads.emplace_back(worker);
        // jthread joins on destruction.
    }
    return results;
}

void
SweepRunner::dumpJson(std::ostream &os, const std::string &sweep,
                      const std::vector<JobResult> &results)
{
    json::JsonWriter jw(os);
    jw.beginObject();
    jw.kv("schema", "ehpsim-sweep-v1");
    jw.kv("sweep", sweep);
    jw.kv("num_jobs", std::uint64_t(results.size()));
    jw.key("jobs");
    jw.beginArray();
    for (const auto &res : results) {
        jw.beginObject();
        jw.kv("index", std::uint64_t(res.index));
        jw.kv("name", res.name);
        jw.kv("status", res.ok ? "ok" : "error");
        if (!res.ok)
            jw.kv("error", res.error);
        jw.key("output");
        if (res.output.empty()) {
            jw.nullValue();
        } else {
            // Job payloads were serialized at depth 0 on the worker;
            // re-indent to sit at our current nesting depth (jobs[]
            // object member = 3 levels of 2 spaces).
            jw.rawValue(reindent(res.output, 6));
        }
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
    os << "\n";
}

bool
SweepRunner::writeJson(const std::string &tag, const std::string &sweep,
                       const std::vector<JobResult> &results,
                       const std::string &path) const
{
    std::fprintf(stderr, "%s: %zu jobs on %u workers, %.3f s of job time\n",
                 tag.c_str(), results.size(), workers_,
                 totalJobSeconds(results));
    for (const auto &res : results) {
        if (!res.ok)
            std::fprintf(stderr, "%s: job %zu (%s) failed: %s\n",
                         tag.c_str(), res.index, res.name.c_str(),
                         res.error.c_str());
    }
    std::ostringstream doc;
    dumpJson(doc, sweep, results);
    return writeDocument(tag, doc.str(), path);
}

bool
SweepRunner::writeDocument(const std::string &tag, const std::string &doc,
                           const std::string &path)
{
    std::ofstream file;
    if (!path.empty())
        file.open(path);
    std::ostream &out = path.empty() ? std::cout : file;
    if (!(out << doc).flush()) {
        std::fprintf(stderr, "%s: cannot write %s\n", tag.c_str(),
                     path.empty() ? "stdout" : path.c_str());
        return false;
    }
    if (!path.empty())
        std::fprintf(stderr, "%s: JSON written to %s\n", tag.c_str(),
                     path.c_str());
    return true;
}

double
SweepRunner::totalJobSeconds(const std::vector<JobResult> &results)
{
    double s = 0;
    for (const auto &res : results)
        s += res.wall_s;
    return s;
}

} // namespace sweep
} // namespace ehpsim
