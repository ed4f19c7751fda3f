/**
 * @file
 * The parallel sweep engine.
 *
 * The paper's evaluation (Figs. 7-21) is a pile of *sweeps*: the
 * same experiment repeated across product configs, partition modes,
 * NPS interleave settings, or power policies. Each point is an
 * independent simulation — its own EventQueue, its own Package, its
 * own StatGroup tree — so the sweep is embarrassingly parallel.
 *
 * SweepRunner fans a vector of jobs across a fixed-size pool of
 * std::jthread workers pulling from a mutex-protected work queue.
 * Each job serializes its result into a JSON value via its own
 * json::JsonWriter; exceptions (fatal() throws std::runtime_error)
 * are captured into the job's result instead of aborting the sweep.
 *
 * Determinism contract: results are keyed and ordered by job index,
 * never by completion order, and job outputs are formatted with the
 * deterministic JsonWriter — so `workers == 1` and `workers == N`
 * produce byte-identical dumpJson() output.
 */

#ifndef EHPSIM_SWEEP_SWEEP_RUNNER_HH
#define EHPSIM_SWEEP_SWEEP_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "sim/json.hh"

namespace ehpsim
{
namespace sweep
{

/** The outcome of one sweep job. */
struct JobResult
{
    std::size_t index = 0;
    std::string name;
    bool ok = false;
    /** Exception message when !ok; empty otherwise. */
    std::string error;
    /** The job's serialized JSON value; empty when !ok. */
    std::string output;
    /** Wall-clock seconds spent running the job. Measured for
     *  operator feedback; deliberately NOT serialized by dumpJson()
     *  so serial and parallel sweeps stay byte-identical. */
    double wall_s = 0;
};

/** One independent simulation job. The callable must write exactly
 *  one JSON value (normally an object) to the supplied writer. */
struct SweepJob
{
    std::string name;
    std::function<void(json::JsonWriter &)> fn;
};

/**
 * A shared warmup prefix for forked jobs (DESIGN.md §16). Jobs
 * registered with an equal @c config string share one produce()
 * call: whichever worker reaches the prefix first runs it (and pays
 * its wall time); everyone else blocks on the result and forks from
 * the cached blob. @c config is the serialized pre-knob
 * configuration — everything that shapes the simulation up to the
 * checkpoint — and is hashed (fnv1a) for the dedup lookup, with a
 * full string compare guarding against collisions.
 */
struct WarmupSpec
{
    std::string config;
    /** Run the warmup and return the checkpoint blob
     *  (saveWorld()). Called at most once per unique config. */
    std::function<std::string()> produce;
};

class SweepRunner
{
  public:
    /** @param workers Pool size; 0 means hardware_concurrency. */
    explicit SweepRunner(unsigned workers = 0);

    unsigned workers() const { return workers_; }

    /** Append a job; @return its index (result ordering key). */
    std::size_t addJob(std::string name,
                       std::function<void(json::JsonWriter &)> fn);

    /**
     * Append a job that forks from a shared warmup checkpoint:
     * @p fn receives the blob @p warmup's produce() returned and
     * must restore it into a fresh world before running its knob
     * point. Jobs whose WarmupSpec::config strings are equal share
     * one produce() call across the pool, so a sweep of N points
     * over one prefix simulates the prefix once instead of N times.
     * A produce() failure is replayed to every job of that prefix
     * (each fails with the same error). @return the job's index.
     */
    std::size_t
    addForkedJob(std::string name, const WarmupSpec &warmup,
                 std::function<void(const std::string &blob,
                                    json::JsonWriter &)>
                     fn);

    std::size_t numJobs() const { return jobs_.size(); }

    /** Distinct warmup prefixes registered via addForkedJob(). */
    std::size_t numWarmups() const { return warmups_.size(); }

    /**
     * Run every job across the worker pool and block until all
     * complete. Per-job exceptions land in JobResult::error; the
     * sweep itself always finishes. May be called repeatedly (jobs
     * accumulate; all run again).
     */
    std::vector<JobResult> run();

    /**
     * Serialize results as the ehpsim-sweep-v1 JSON document.
     * Deterministic: depends only on job indices, names, and
     * outputs — not on timing or completion order.
     */
    static void dumpJson(std::ostream &os, const std::string &sweep,
                         const std::vector<JobResult> &results);

    /**
     * The end of every sweep command: print the operator summary
     * ("<tag>: N jobs on W workers, S s of job time") and each
     * failed job to stderr, then write the dumpJson() document to
     * @p path, or to stdout when @p path is empty. @return false
     * when the document could not be written in full (the reason is
     * printed).
     */
    bool writeJson(const std::string &tag, const std::string &sweep,
                   const std::vector<JobResult> &results,
                   const std::string &path) const;

    /** Write a finished document @p doc the way writeJson() does. */
    static bool writeDocument(const std::string &tag,
                              const std::string &doc,
                              const std::string &path);

    /** Total wall-clock seconds across all jobs in @p results. */
    static double totalJobSeconds(const std::vector<JobResult> &results);

  private:
    /** One shared warmup prefix: the blob is produced under the
     *  once_flag by the first job to need it and read-only after,
     *  so forked jobs need no further synchronization. */
    struct WarmupEntry
    {
        std::uint64_t hash = 0;
        std::string config;
        std::function<std::string()> produce;
        std::once_flag once;
        std::string blob;
        std::exception_ptr error;
    };

    unsigned workers_;
    std::vector<SweepJob> jobs_;
    /** unique_ptr for address stability: jobs capture raw entry
     *  pointers, and entries are never erased. */
    std::vector<std::unique_ptr<WarmupEntry>> warmups_;
};

} // namespace sweep
} // namespace ehpsim

#endif // EHPSIM_SWEEP_SWEEP_RUNNER_HH
