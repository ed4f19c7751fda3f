#include "sim/pdes/pdes_engine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ehpsim
{
namespace pdes
{

PdesEngine::PdesEngine(EventQueue *coordinator, fabric::Network *net,
                       unsigned partitions)
    : coord_(coordinator), net_(net), nparts_(partitions)
{
    if (!coord_)
        fatal("PdesEngine needs a coordinator queue");
    if (!net_)
        fatal("PdesEngine needs the fabric its partitions ride");
    if (nparts_ == 0)
        fatal("PdesEngine needs at least one partition");
    queues_.reserve(nparts_);
    for (unsigned p = 0; p < nparts_; ++p)
        queues_.push_back(std::make_unique<EventQueue>());
    outbox_.resize(nparts_);
    failures_.resize(nparts_);
    group_of_.assign(nparts_, 0);

    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    nworkers_ = std::min(nparts_, hw);
    for (unsigned t = 1; t < nworkers_; ++t)
        workers_.emplace_back([this, t] { workerMain(t); });
}

PdesEngine::~PdesEngine()
{
    stop_.store(true, std::memory_order_release);
    // jthreads join on destruction; the spin loops observe stop_.
}

void
PdesEngine::declareTraffic(fabric::NodeId src, fabric::NodeId dst)
{
    if (src == dst)
        return;
    const auto pair = std::make_pair(src, dst);
    if (std::find(traffic_.begin(), traffic_.end(), pair) ==
        traffic_.end()) {
        traffic_.push_back(pair);
        placement_valid_ = false;
    }
}

void
PdesEngine::addFlushHook(std::function<void()> fn)
{
    flush_hooks_.push_back(std::move(fn));
}

void
PdesEngine::refreshPlacement()
{
    const std::uint64_t epoch = net_->routeEpoch();
    if (placement_valid_ && epoch == seen_epoch_)
        return;
    seen_epoch_ = epoch;
    placement_valid_ = true;

    // Partitions may run as independent groups only while every
    // declared pair rides its own direct link: each Link is then
    // transferred on by exactly one group, and a cross-group effect
    // is always at least one link latency away. A pair without a
    // live direct link routes multi-hop (PCIe host hops, or a
    // killLink() detour) — its transfers could touch links other
    // groups also transfer on, so everything collapses into one
    // merged group (still windowed against the coordinator, still
    // deterministic).
    bool merged = traffic_.empty();
    for (const auto &[src, dst] : traffic_) {
        if (merged)
            break;
        if (!net_->linkAlive(src, dst))
            merged = true;
    }

    groups_.clear();
    if (merged) {
        std::vector<unsigned> all(nparts_);
        for (unsigned p = 0; p < nparts_; ++p)
            all[p] = p;
        groups_.push_back(std::move(all));
        group_of_.assign(nparts_, 0);
    } else {
        groups_.reserve(nparts_);
        for (unsigned p = 0; p < nparts_; ++p) {
            groups_.push_back({p});
            group_of_[p] = p;
        }
    }

    // Lookahead: the minimum propagation latency over pairs whose
    // endpoints now live in different groups. 0 means no declared
    // cross-group traffic at all, so windows are bounded only by
    // the coordinator head.
    lookahead_ = 0;
    if (!merged) {
        for (const auto &[src, dst] : traffic_) {
            const int sd = net_->nodeDomain(src);
            const int dd = net_->nodeDomain(dst);
            if (groupOfDomain(sd) == groupOfDomain(dd))
                continue;
            const Tick lat =
                std::max<Tick>(net_->link(src, dst)->params().latency,
                               1);
            if (lookahead_ == 0 || lat < lookahead_)
                lookahead_ = lat;
        }
    }
}

void
PdesEngine::runGroup(std::size_t gi)
{
    const std::vector<unsigned> &members = groups_[gi];
    const Tick bound = window_bound_;
    for (;;) {
        // Merge member heads deterministically: least (tick,
        // priority, partition index) below the window bound steps
        // first; within a queue, step() preserves the serial
        // (tick, priority, seq) order.
        EventQueue *best = nullptr;
        Tick best_when = 0;
        int best_prio = 0;
        for (const unsigned p : members) {
            EventQueue *q = queues_[p].get();
            Tick when = 0;
            int prio = 0;
            if (!q->peekHead(when, prio) || when >= bound)
                continue;
            if (!best || when < best_when ||
                (when == best_when && prio < best_prio)) {
                best = q;
                best_when = when;
                best_prio = prio;
            }
        }
        if (!best)
            return;
        best->step();
    }
}

void
PdesEngine::runStripe(unsigned tid)
{
    for (std::size_t gi = tid; gi < groups_.size(); gi += nworkers_) {
        try {
            runGroup(gi);
        } catch (...) {
            // Park it: throwing on would end a worker thread (and the
            // process) or unwind the coordinator while workers still
            // run. runWindow() rethrows after the barrier. Members
            // step in tick order, so the failed event's tick is the
            // latest member tick.
            Tick when = 0;
            for (const unsigned p : groups_[gi])
                when = std::max(when, queues_[p]->curTick());
            failures_[gi] = {when, std::current_exception()};
            window_failed_.store(true, std::memory_order_relaxed);
        }
    }
}

void
PdesEngine::workerMain(unsigned tid)
{
    std::uint64_t seen = 0;
    for (;;) {
        while (round_.load(std::memory_order_acquire) == seen) {
            if (stop_.load(std::memory_order_acquire))
                return;
            std::this_thread::yield();
        }
        ++seen;
        runStripe(tid);
        done_.fetch_add(1, std::memory_order_release);
    }
}

void
PdesEngine::drainOutboxes()
{
    for (auto &box : outbox_) {
        for (auto &fn : box)
            fn();
        box.clear();
    }
}

void
PdesEngine::runWindow(Tick bound)
{
    window_bound_ = bound;
    round_.fetch_add(1, std::memory_order_release);
    runStripe(0);
    expected_done_ += nworkers_ - 1;
    while (done_.load(std::memory_order_acquire) < expected_done_)
        std::this_thread::yield();
    if (window_failed_.load(std::memory_order_relaxed))
        rethrowFirstFailure();
    drainOutboxes();
    ++windows_;
}

void
PdesEngine::rethrowFirstFailure()
{
    const Failure *first = nullptr;
    for (const Failure &f : failures_) {
        if (f.error && (!first || f.when < first->when))
            first = &f;
    }
    const std::exception_ptr error = first->error;
    failures_.assign(failures_.size(), Failure{});
    window_failed_.store(false, std::memory_order_relaxed);
    std::rethrow_exception(error);
}

Tick
PdesEngine::runUntil(const std::function<bool()> &done)
{
    while (!done()) {
        refreshPlacement();

        Tick t_coord = maxTick;
        int coord_prio = 0;
        const bool has_coord = coord_->peekHead(t_coord, coord_prio);
        if (!has_coord)
            t_coord = maxTick;
        Tick t_parts = maxTick;
        for (const auto &q : queues_) {
            Tick when = 0;
            int prio = 0;
            if (q->peekHead(when, prio) && when < t_parts)
                t_parts = when;
        }

        if (!has_coord && t_parts == maxTick)
            panic("PDES queues drained before runUntil() "
                  "condition was met");

        // Coordinator-exclusive phase: the earliest pending event
        // is the coordinator's, so step it serially. Ties go to the
        // coordinator — its events were scheduled first in the
        // serial order (op starts precede the tasks they fan out).
        if (has_coord && t_coord <= t_parts) {
            coord_->step();
            continue;
        }

        Tick bound;
        if (lookahead_ == 0 || t_parts > maxTick - lookahead_)
            bound = t_coord;
        else
            bound = std::min(t_coord, t_parts + lookahead_);
        runWindow(bound);
    }
    for (const auto &fn : flush_hooks_)
        fn();
    return coord_->curTick();
}

std::uint64_t
PdesEngine::totalProcessed() const
{
    std::uint64_t total = coord_->numProcessed();
    for (const auto &q : queues_)
        total += q->numProcessed();
    return total;
}

std::size_t
PdesEngine::peakLiveTotal() const
{
    std::size_t total = coord_->peakLive();
    for (const auto &q : queues_)
        total += q->peakLive();
    return total;
}

} // namespace pdes
} // namespace ehpsim
