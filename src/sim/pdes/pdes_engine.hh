/**
 * @file
 * Conservative parallel discrete-event core (PDES, DESIGN.md §15).
 *
 * One big simulation (the octo-node all-reduce, a faulted collective
 * storm) still ran on a single core after PR 1's sweep engine: that
 * engine parallelizes across sweep points, not within one sim.
 * The PdesEngine partitions the simulated node graph into logical
 * processes — one EventQueue per NodeTopology partition domain, as
 * emitted by the `ehpsim_cli race` report — and runs each on the
 * existing indexed-heap kernel, synchronized conservatively:
 *
 *  - Windows. Execution alternates between coordinator-exclusive
 *    phases (the original queue, running topology mutations, op
 *    starts/completions, and fault arms) and parallel partition
 *    phases. A partition phase executes events
 *    with tick strictly below B = min(T_coord, T_parts + L), where
 *    T_coord / T_parts are the earliest pending coordinator /
 *    partition ticks and L is the lookahead.
 *
 *  - Lookahead. L is the minimum propagation latency over the
 *    declared traffic pairs whose endpoints land in different worker
 *    groups (the per-pair min-link-latency table the race report
 *    certifies). Any cross-group effect of an event executed at tick
 *    t materializes at >= t + L >= B, so it can be exchanged through
 *    a mailbox drained at the window boundary without ever being
 *    visible inside the window that produced it.
 *
 *  - Deterministic merge. Within a worker group, member queues are
 *    merged by stepping the head with the least (tick, priority,
 *    partition index); each queue itself preserves the serial
 *    kernel's (tick, priority, seq) order. Mailboxes drain in
 *    ascending source-partition order, FIFO within a partition, on
 *    the main thread with all workers parked — so a run's output is
 *    a pure function of the initial schedule, never of thread
 *    timing, and comm/fault JSON stays byte-identical to the
 *    serial kernel (gated by the golden-trace test and the
 *    serial-vs---pdes cmp checks in CI).
 *
 *  - Safety fallback. Partitions are valid worker groups only while
 *    every declared pair rides its own direct link (each fabric
 *    Link then belongs to exactly one group). When a declared pair
 *    loses its direct link — a killLink() detour could thread one
 *    link through several partitions' transfers — the engine
 *    collapses all partitions into a single merged group at the
 *    next window boundary. Conservative, still deterministic, and
 *    derate keeps its routeEpoch() exemption: it changes neither
 *    routes nor link ownership, only rates.
 */

#ifndef EHPSIM_SIM_PDES_PDES_ENGINE_HH
#define EHPSIM_SIM_PDES_PDES_ENGINE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "fabric/network.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace ehpsim
{
namespace pdes
{

class PdesEngine
{
  public:
    /**
     * @param coordinator The original serial queue; keeps every
     *        event whose owner declared no partition domain.
     * @param net The fabric the partitioned traffic rides
     *        (required: lookahead and link ownership come from it).
     * @param partitions Number of logical processes; domains map to
     *        partition (domain % partitions).
     */
    PdesEngine(EventQueue *coordinator, fabric::Network *net,
               unsigned partitions);

    ~PdesEngine();

    PdesEngine(const PdesEngine &) = delete;
    PdesEngine &operator=(const PdesEngine &) = delete;

    unsigned partitions() const { return nparts_; }

    EventQueue *coordinator() { return coord_; }

    /** The queue events of partition-domain @p domain belong on
     *  (domain < 0 -> the coordinator). */
    EventQueue *
    queueForDomain(int domain)
    {
        if (domain < 0)
            return coord_;
        return queues_[static_cast<unsigned>(domain) % nparts_].get();
    }

    /** Logical process of a declared domain (@p domain >= 0). */
    unsigned
    partitionOfDomain(int domain) const
    {
        return static_cast<unsigned>(domain) % nparts_;
    }

    /**
     * True when events of the two domains execute under the same
     * lock-free owner (same worker group, or both coordinator), so
     * one may schedule into the other's queue directly instead of
     * through a mailbox.
     */
    bool
    sameGroup(int domain_a, int domain_b) const
    {
        return groupOfDomain(domain_a) == groupOfDomain(domain_b);
    }

    /**
     * Declare a (src, dst) traffic pair (a collective's rank pair).
     * Feeds the lookahead table and the link-ownership check; call
     * before runUntil(). Undeclared cross-partition traffic is not
     * allowed — declare every pair the workload can send on.
     */
    void declareTraffic(fabric::NodeId src, fabric::NodeId dst);

    /**
     * Register a hook run after every runUntil() returns, with
     * workers parked: merge per-partition stat shards back into the
     * shared Scalars here, in partition order.
     */
    void addFlushHook(std::function<void()> fn);

    /**
     * Post a cross-group effect from @p src_partition's executing
     * worker. The closure runs on the main thread at the next
     * window boundary; drains are ordered by source partition, then
     * FIFO. Only the worker currently executing @p src_partition
     * may post to it (single-writer mailboxes).
     */
    void
    postCross(unsigned src_partition, std::function<void()> fn)
    {
        outbox_[src_partition].push_back(std::move(fn));
    }

    /**
     * Drive all queues until @p done() turns true (checked with
     * workers parked); @return the coordinator's tick. Panics if
     * every queue and mailbox drains while @p done() is still
     * false.
     *
     * An event that throws (a fatal()) on any thread ends the run:
     * the window finishes with every worker parked, then the
     * earliest failure — least tick, group index on ties — is
     * rethrown here. Without a tie that is the one the serial
     * kernel reports; with one, it is still the same on every run
     * at a given partition count.
     */
    Tick runUntil(const std::function<bool()> &done);

    /** @{ deterministic observability (bench counters) */
    /** Current inter-group lookahead in ticks (0 = no cross-group
     *  traffic; windows then extend to the coordinator head). */
    Tick lookahead() const { return lookahead_; }

    /** Worker groups under the current placement. */
    std::size_t numGroups() const { return groups_.size(); }

    /** Parallel windows executed so far. */
    std::uint64_t windows() const { return windows_; }

    /** Events processed across the coordinator and every
     *  partition queue. */
    std::uint64_t totalProcessed() const;

    /** Sum of per-queue peak live event counts. */
    std::size_t peakLiveTotal() const;
    /** @} */

  private:
    static constexpr std::size_t coordGroup =
        static_cast<std::size_t>(-1);

    std::size_t
    groupOfDomain(int domain) const
    {
        if (domain < 0)
            return coordGroup;
        return group_of_[partitionOfDomain(domain)];
    }

    /** Rebuild groups + lookahead when the route epoch moved (a
     *  killLink() may have re-threaded routes across partitions).
     *  Runs with workers parked. */
    void refreshPlacement();

    /** Execute one parallel window bounded by @p bound, then drain
     *  the mailboxes. */
    void runWindow(Tick bound);

    /** Merged-step every member queue of @p gi below the published
     *  window bound. */
    void runGroup(std::size_t gi);

    /** runGroup() every group of thread @p tid's stripe (the
     *  coordinator is 0), parking any failure in failures_. */
    void runStripe(unsigned tid);

    void workerMain(unsigned tid);

    void drainOutboxes();

    /** Rethrow the earliest failure of the window just run. Runs
     *  with workers parked. */
    [[noreturn]] void rethrowFirstFailure();

    EventQueue *coord_;
    fabric::Network *net_;
    unsigned nparts_;
    std::vector<std::unique_ptr<EventQueue>> queues_;

    std::vector<std::pair<fabric::NodeId, fabric::NodeId>> traffic_;
    std::vector<std::function<void()>> flush_hooks_;
    /** Mailboxes, indexed by source partition. */
    std::vector<std::vector<std::function<void()>>> outbox_;

    /** @{ placement (rebuilt by refreshPlacement, workers parked) */
    std::vector<std::vector<unsigned>> groups_;
    std::vector<std::size_t> group_of_;
    Tick lookahead_ = 0;
    std::uint64_t seen_epoch_ = 0;
    bool placement_valid_ = false;
    /** @} */

    std::uint64_t windows_ = 0;

    /** An event that threw inside a window, parked by its group. */
    struct Failure
    {
        Tick when = 0;
        std::exception_ptr error;
    };
    /** Indexed by group; each slot is written only by the thread
     *  running that group, and read after the window barrier. */
    std::vector<Failure> failures_;
    std::atomic<bool> window_failed_{false};

    /** @{ worker pool: round_ publishes window_bound_ and the
     *  placement (release); workers acquire it, run their group
     *  stripe, and retire through done_. */
    unsigned nworkers_ = 1;
    Tick window_bound_ = 0;
    std::atomic<std::uint64_t> round_{0};
    std::atomic<std::uint64_t> done_{0};
    std::uint64_t expected_done_ = 0;
    std::atomic<bool> stop_{false};
    std::vector<std::jthread> workers_;
    /** @} */
};

} // namespace pdes
} // namespace ehpsim

#endif // EHPSIM_SIM_PDES_PDES_ENGINE_HH
