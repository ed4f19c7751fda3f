/**
 * @file
 * The common timing interface for memory-hierarchy components.
 *
 * ehpsim's memory system uses an atomic-with-occupancy timing model
 * (comparable to gem5's atomic mode plus bandwidth contention): an
 * access is a synchronous call that returns its completion tick, and
 * each device tracks per-resource next-free times so that back-to-back
 * traffic serializes at the device's bandwidth.
 */

#ifndef EHPSIM_MEM_MEM_DEVICE_HH
#define EHPSIM_MEM_MEM_DEVICE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace ehpsim
{
namespace mem
{

/** Outcome of a timed access. */
struct AccessResult
{
    Tick complete = 0;          ///< when the data is available
    bool hit = true;            ///< serviced without the next level
    std::uint64_t bytes_below = 0; ///< bytes moved to/from next level
};

class MemDevice : public SimObject
{
  public:
    using SimObject::SimObject;

    /**
     * Perform a timed access.
     * @param when Earliest tick the request can start.
     * @param addr Physical byte address.
     * @param bytes Request size.
     * @param write True for stores/writebacks.
     */
    virtual AccessResult access(Tick when, Addr addr,
                                std::uint64_t bytes, bool write) = 0;
};

/**
 * A bandwidth-limited resource with backfill.
 *
 * Time is divided into fixed windows, each with a byte budget of
 * rate x window. A transfer starting at @p when consumes budget from
 * its window onward and completes when its last byte fits. Unlike a
 * strict next-free FIFO, a transfer arriving *earlier* than
 * previously-reserved traffic can use leftover budget in earlier
 * windows (backfill), so out-of-order completions upstream do not
 * artificially serialize independent requests — they only contend
 * for bandwidth.
 *
 * Pages. Window state lives in dense 512-window pages held in a
 * sliding page table whose slot 0 is page @c base_page_; untouched
 * gaps cost one null page pointer. This is the fabric hot path
 * (DESIGN.md §12) — a multi-MiB chunk crossing an x16 link consumes
 * ~1k windows per hop — so both window walks look a page up once
 * and then index its arrays directly: occupy() fills consecutive
 * free windows of one page in a tight loop, and findFree() follows
 * the skip chain over full windows one page at a time. A walk costs
 * one page lookup per page it touches, not per window.
 *
 * Floor. occupy(when) never reads a window before when / window, so
 * an owner whose issue ticks are monotone can promise "no occupy()
 * below tick T from now on" with retireBefore(T): pages wholly below
 * T's page are freed, and occupy() panics if the promise is broken.
 * The floor is a tick, not a window index, so it survives any rate
 * change. Only the event-driven comm sender advances it (each chunk
 * leaves at its queue's curTick()); callers with out-of-order issue
 * ticks (memory devices, atomic remote accesses) never do, and keep
 * their whole history. Retirement is exact: a retired tracker hands
 * out the same completion ticks as one that never retires.
 *
 * Grid. The window length is fixed at construction (sized to carry
 * ~1 KiB at the nominal rate). setRate() — a link derate — changes
 * only the per-window budget, so windows filled before the change
 * keep their index and their meaning.
 *
 * Rates never increase. A skip entry marks a window full against the
 * budget in force when it was written, and a snapshot keeps only the
 * used values on the promise that findFree() answers the same from
 * them alone. Both hold only while the budget never grows, so
 * setRate() panics on a rate above the current one.
 */
class OccupancyTracker
{
  public:
    /** @param bytes_per_tick Nominal bandwidth (may be fractional);
     *  also sizes the window grid. */
    explicit OccupancyTracker(double bytes_per_tick = 0.0)
        : bytes_per_tick_(bytes_per_tick),
          window_(windowFor(bytes_per_tick))
    {
    }

    /** Lower the rate (e.g. a derate) on the existing window grid;
     *  a higher rate panics (see "Rates never increase"). */
    void
    setRate(double bytes_per_tick)
    {
        if (bytes_per_tick > bytes_per_tick_)
            panic("occupancy: setRate(", bytes_per_tick,
                  ") above the current rate ", bytes_per_tick_);
        bytes_per_tick_ = bytes_per_tick;
    }

    double bandwidth() const { return bytes_per_tick_; }

    /**
     * Consume @p bytes of budget starting no earlier than @p when.
     * @return the tick at which the transfer finishes.
     */
    Tick
    occupy(Tick when, std::uint64_t bytes)
    {
        if (when < floor_)
            panic("occupancy: occupy() at tick ", when,
                  " below the retirement floor ", floor_);
        if (bytes_per_tick_ <= 0.0 || bytes == 0)
            return when;
        const double budget =
            bytes_per_tick_ * static_cast<double>(window_);
        const double full = budget - 1e-6;
        std::uint64_t w = when / window_;
        double remaining = static_cast<double>(bytes);

        // The first window only offers the budget left after 'when'.
        {
            Page &pg = pageFor(w);
            double &u = pg.used[w & kPageMask];
            const Tick w_end = (w + 1) * window_;
            const double time_avail = static_cast<double>(w_end - when);
            const double avail =
                std::min(time_avail * bytes_per_tick_, budget - u);
            if (avail > 0) {
                const double take = std::min(avail, remaining);
                u += take;
                if (u >= full)
                    pg.skip[w & kPageMask] = w + 1;
                remaining -= take;
            }
            if (remaining <= 0) {
                const Tick done =
                    when + static_cast<Tick>(
                               static_cast<double>(bytes) /
                               bytes_per_tick_ + 0.5);
                last_done_ = std::max(last_done_, done);
                return done;
            }
        }
        // Fill free windows a page at a time: stay in this page while
        // the next window is free and has no skip entry, and let
        // findFree() hop over anything else.
        for (;;) {
            w = findFree(w + 1, full);
            Page &pg = pageFor(w);
            for (std::uint64_t k = w & kPageMask;; ++k, ++w) {
                double &u = pg.used[k];
                const double take = std::min(budget - u, remaining);
                u += take;
                if (u >= full)
                    pg.skip[k] = w + 1;
                remaining -= take;
                if (remaining <= 0) {
                    const Tick done =
                        w * window_ +
                        static_cast<Tick>(u / bytes_per_tick_);
                    last_done_ = std::max(last_done_, done);
                    return done;
                }
                if (k + 1 == kPageWindows || pg.skip[k + 1] != 0 ||
                    !(pg.used[k + 1] < full))
                    break;
            }
        }
    }

    /**
     * Promise that every later occupy() starts at or after @p mark,
     * and free the pages wholly below @p mark's page. Monotone: a
     * mark at or below the current floor is a no-op.
     */
    void
    retireBefore(Tick mark)
    {
        if (mark <= floor_)
            return;
        memo_ = PageMemo{};
        // Slots below the floor's page are already freed.
        const std::size_t from = slotBelow(floor_);
        floor_ = mark;
        const std::size_t dead = slotBelow(floor_);
        for (std::size_t i = from; i < dead; ++i)
            pages_[i].reset();
        // Slide the table once the freed prefix outgrows the live
        // part, so compaction is amortized O(1) per retired page.
        if (dead == pages_.size()) {
            pages_.clear();
        } else if (dead > pages_.size() - dead) {
            pages_.erase(pages_.begin(),
                         pages_.begin() + static_cast<std::ptrdiff_t>(dead));
            base_page_ += dead;
        }
    }

    /** The retirement floor: no occupy() may start before it. */
    Tick floor() const { return floor_; }

    /** Pages currently allocated (diagnostic; bounded by the
     *  in-flight span once the owner advances the floor). */
    std::size_t
    livePages() const
    {
        return static_cast<std::size_t>(
            std::count_if(pages_.begin(), pages_.end(),
                          [](const auto &p) { return p != nullptr; }));
    }

    /** Latest completion handed out (diagnostic only). */
    Tick nextFree() const { return last_done_; }

    void
    reset()
    {
        pages_.clear();
        memo_ = PageMemo{};
        base_page_ = 0;
        floor_ = 0;
        last_done_ = 0;
    }

    /**
     * @{ Checkpoint the consumed-budget windows (DESIGN.md §16).
     * One rule decides what is saved: the windows at or after
     * max(floor, save tick). occupy() never reads below when /
     * window, and nothing issued from the save tick on passes a
     * smaller @c when, so every earlier window is unreachable — it
     * is dropped, and post-restore behavior is byte-identical. Skip
     * chains are a pure accelerator over full windows and are not
     * saved: findFree() answers identically from the used values
     * alone and rebuilds the chains as it walks.
     */
    void
    snapshot(SnapshotWriter &w) const
    {
        w.putF64(bytes_per_tick_);
        w.putU64(window_);
        w.putU64(last_done_);
        w.putU64(floor_);
        const std::uint64_t keep_from =
            std::max<std::uint64_t>(floor_, w.horizon()) / window_;
        std::vector<std::pair<std::uint64_t, double>> live;
        for (std::size_t p = 0; p < pages_.size(); ++p) {
            if (!pages_[p])
                continue;
            const std::uint64_t first =
                (base_page_ + p) << kPageBits;
            for (std::uint64_t k = 0; k < kPageWindows; ++k) {
                const double u = pages_[p]->used[k];
                if (u > 0.0 && first + k >= keep_from)
                    live.emplace_back(first + k, u);
            }
        }
        w.putU64(live.size());
        for (const auto &[win, used] : live) {
            w.putU64(win);
            w.putF64(used);
        }
    }

    void
    restore(SnapshotReader &r)
    {
        pages_.clear();
        memo_ = PageMemo{};
        bytes_per_tick_ = r.getF64();
        window_ = r.getU64();
        last_done_ = r.getU64();
        floor_ = r.getU64();
        const auto n = r.getU64();
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t win = r.getU64();
            const double used = r.getF64();
            pageFor(win).used[win & kPageMask] = used;
        }
    }
    /** @} */

  private:
    /** Windows per page; pages are the allocation grain. */
    static constexpr std::uint64_t kPageBits = 9;
    static constexpr std::uint64_t kPageWindows = 1ull << kPageBits;
    static constexpr std::uint64_t kPageMask = kPageWindows - 1;

    /**
     * One page of window state. @c skip holds the path-compressed
     * chain over full windows: 0 means "no entry" (stored targets
     * are always > their window index, so 0 is never a live value).
     */
    struct Page
    {
        std::array<double, kPageWindows> used{};
        std::array<std::uint64_t, kPageWindows> skip{};
    };

    /** Window sized to carry ~1 KiB, clamped to [1 ns, 1 us]. */
    static Tick
    windowFor(double bytes_per_tick)
    {
        if (bytes_per_tick <= 0.0)
            return 1000;
        return static_cast<Tick>(
            std::clamp(1024.0 / bytes_per_tick, 1000.0, 1'000'000.0));
    }

    /** The page holding window @p w, allocating it (and any page
     *  table growth, including in front of slot 0) on demand. */
    Page &
    pageFor(std::uint64_t w)
    {
        const std::uint64_t p = w >> kPageBits;
        if (p == memo_.page)
            return *memo_.ptr;
        if (pages_.empty())
            base_page_ = p;
        if (p < base_page_) {
            // Backfill before the first page held; the floor keeps
            // it at or above the floor's page.
            const std::uint64_t add = base_page_ - p;
            std::vector<std::unique_ptr<Page>> grown(pages_.size() +
                                                     add);
            std::move(pages_.begin(), pages_.end(),
                      grown.begin() + static_cast<std::ptrdiff_t>(add));
            pages_ = std::move(grown);
            base_page_ = p;
        }
        const std::uint64_t idx = p - base_page_;
        if (idx >= pages_.size())
            pages_.resize(idx + 1);
        if (!pages_[idx])
            pages_[idx] = std::make_unique<Page>();
        memo_ = PageMemo{p, pages_[idx].get()};
        return *pages_[idx];
    }

    /** Number of page-table slots wholly below tick @p t's page. */
    std::size_t
    slotBelow(Tick t) const
    {
        const std::uint64_t page = (t / window_) >> kPageBits;
        if (page <= base_page_)
            return 0;
        return static_cast<std::size_t>(
            std::min<std::uint64_t>(page - base_page_, pages_.size()));
    }

    /** The page holding window @p w, or nullptr if none is held. */
    const Page *
    peekPage(std::uint64_t w) const
    {
        const std::uint64_t p = w >> kPageBits;
        if (p < base_page_ || p - base_page_ >= pages_.size())
            return nullptr;
        return pages_[p - base_page_].get();
    }

    /**
     * First window at or after @p w used below @p full, following
     * the path-compressed skip chain over full windows one page at a
     * time: a window without a page is free.
     */
    std::uint64_t
    findFree(std::uint64_t w, double full)
    {
        // Walk the chain.
        std::uint64_t cur = w;
        while (const Page *pg = peekPage(cur)) {
            const std::uint64_t page_end = (cur | kPageMask) + 1;
            while (cur < page_end) {
                const std::uint64_t s = pg->skip[cur & kPageMask];
                if (s != 0)
                    cur = s;
                else if (pg->used[cur & kPageMask] < full)
                    return compress(w, cur);
                else
                    ++cur;
            }
        }
        return compress(w, cur);
    }

    /** Point every window on the chain from @p w at the free window
     *  @p free. Every such window was full, so its page exists. */
    std::uint64_t
    compress(std::uint64_t w, std::uint64_t free)
    {
        while (w < free) {
            Page &pg = pageFor(w);
            const std::uint64_t page_end = (w | kPageMask) + 1;
            while (w < free && w < page_end) {
                std::uint64_t &s = pg.skip[w & kPageMask];
                const std::uint64_t next = s == 0 ? w + 1 : s;
                s = free;
                w = next;
            }
        }
        return free;
    }

    /**
     * The last page pageFor() returned. Most calls land on it (a
     * memory device's per-line occupy() stays in one page for ~512
     * windows). Page objects never move, so the pointer holds until
     * a page is freed: retireBefore(), reset() and restore() clear
     * it, and a move hands it to the new owner and clears the
     * source, whose page table is then empty.
     */
    struct PageMemo
    {
        static constexpr std::uint64_t kNone = ~0ull;

        std::uint64_t page = kNone;
        Page *ptr = nullptr;

        PageMemo() = default;
        PageMemo(std::uint64_t pg, Page *p) : page(pg), ptr(p) {}
        PageMemo(PageMemo &&o) noexcept
            : page(std::exchange(o.page, kNone)),
              ptr(std::exchange(o.ptr, nullptr))
        {
        }
        PageMemo &
        operator=(PageMemo &&o) noexcept
        {
            page = std::exchange(o.page, kNone);
            ptr = std::exchange(o.ptr, nullptr);
            return *this;
        }
    };

    double bytes_per_tick_ = 0.0;
    Tick window_ = 1000;
    /** Page table; slot i holds page @c base_page_ + i. Slots below
     *  the floor's page are null (retired). */
    std::vector<std::unique_ptr<Page>> pages_;
    std::uint64_t base_page_ = 0;
    /** No occupy() may start before this tick (retireBefore()). */
    Tick floor_ = 0;
    Tick last_done_ = 0;
    PageMemo memo_;
};

} // namespace mem
} // namespace ehpsim

#endif // EHPSIM_MEM_MEM_DEVICE_HH
