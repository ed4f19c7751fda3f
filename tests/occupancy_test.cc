/**
 * @file
 * Property tests for the windowed-bandwidth OccupancyTracker — the
 * contention model under every link, cache port, and DRAM bus.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "mem/mem_device.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"
#include "sim/units.hh"

using namespace ehpsim;
using namespace ehpsim::mem;

TEST(Occupancy, ZeroBandwidthPassesThrough)
{
    OccupancyTracker t(0.0);
    EXPECT_EQ(t.occupy(1234, 4096), 1234u);
}

TEST(Occupancy, ZeroBytesPassesThrough)
{
    OccupancyTracker t(1.0);
    EXPECT_EQ(t.occupy(1234, 0), 1234u);
}

TEST(Occupancy, UncontendedTransferTakesSerializationTime)
{
    OccupancyTracker t(1.0);    // 1 byte per tick
    const Tick done = t.occupy(1000, 500);
    EXPECT_EQ(done, 1500u);
}

TEST(Occupancy, BackToBackTransfersSerialize)
{
    OccupancyTracker t(1.0);
    Tick last = 0;
    for (int i = 0; i < 10; ++i)
        last = t.occupy(0, 1000);
    // 10 KB at 1 B/tick from t=0: ~10000 ticks (window quantized).
    EXPECT_GE(last, 9000u);
    EXPECT_LE(last, 11500u);
}

TEST(Occupancy, CompletionNeverBeforeArrivalPlusSerialization)
{
    OccupancyTracker t(2.0);
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const Tick when = rng.nextBounded(1'000'000);
        const std::uint64_t bytes = 1 + rng.nextBounded(4096);
        const Tick done = t.occupy(when, bytes);
        EXPECT_GE(done + 1, when + bytes / 2);  // +1: rounding slack
    }
}

TEST(Occupancy, ThroughputBoundedByBandwidth)
{
    // Saturate from t=0 and verify total time >= bytes / bandwidth.
    OccupancyTracker t(4.0);
    const std::uint64_t total = 1 << 20;
    Tick last = 0;
    for (std::uint64_t sent = 0; sent < total; sent += 256)
        last = std::max(last, t.occupy(0, 256));
    EXPECT_GE(last, total / 4);
    // ...and not pathologically more (allow 25% quantization).
    EXPECT_LE(last, total / 4 + total / 16 + 100'000);
}

TEST(Occupancy, BackfillAllowsEarlyTrafficAfterFutureReservation)
{
    // This is the property the strict next-free FIFO lacked: a
    // transfer reserved far in the future must not delay traffic
    // arriving now.
    OccupancyTracker t(1.0);
    const Tick future = t.occupy(1'000'000, 4096);
    EXPECT_GE(future, 1'000'000u);
    const Tick now_done = t.occupy(0, 512);
    EXPECT_LT(now_done, 10'000u);
}

TEST(Occupancy, ContendedWindowPushesToNextFreeWindow)
{
    OccupancyTracker t(1.0);    // window = 1024 ticks, 1024 B budget
    // Fill the window at t=0 completely.
    t.occupy(0, 1024);
    // The next transfer at t=0 must land in a later window.
    const Tick done = t.occupy(0, 512);
    EXPECT_GT(done, 1024u);
}

TEST(Occupancy, ManySmallTransfersMatchOneLarge)
{
    OccupancyTracker a(8.0), b(8.0);
    Tick last_a = 0;
    for (int i = 0; i < 64; ++i)
        last_a = std::max(last_a, a.occupy(0, 1024));
    const Tick last_b = b.occupy(0, 64 * 1024);
    // Same bytes, same bandwidth: within one window of each other.
    EXPECT_NEAR(static_cast<double>(last_a),
                static_cast<double>(last_b), 1200.0);
}

TEST(Occupancy, ResetClearsHistory)
{
    OccupancyTracker t(1.0);
    t.occupy(0, 1 << 16);
    t.reset();
    EXPECT_EQ(t.nextFree(), 0u);
    const Tick done = t.occupy(0, 512);
    EXPECT_LT(done, 2000u);
}

TEST(Occupancy, MoveHandsOverTheLastPageMemo)
{
    // pageFor() remembers the last page it returned. A move hands
    // the memo to the new owner with the pages; the emptied source
    // must start over, not write into a page it gave away.
    OccupancyTracker a(1.0);
    EXPECT_EQ(a.occupy(0, 512), 512u);
    OccupancyTracker b = std::move(a);
    EXPECT_EQ(a.occupy(0, 512), 512u);     // a fresh page of its own
    // Window 0 ([0, 1024) at 1 B/tick) still has 512 B left for b;
    // had a written into b's page, it would be full.
    EXPECT_EQ(b.occupy(0, 512), 512u);
    EXPECT_GT(b.occupy(0, 512), 1024u);    // now it is
}

TEST(Occupancy, DerateKeepsTheWindowGrid)
{
    // Fill window 0 ([0, 1024) at 1 B/tick), then halve the rate. A
    // transfer at tick 1024 belongs to the empty window 1 on the
    // original grid and finishes after its own serialization time.
    // Re-deriving the window (2048 ticks at the new rate) would map
    // tick 1024 back onto the full window 0 and push the transfer a
    // whole window later.
    OccupancyTracker t(1.0);
    EXPECT_EQ(t.occupy(0, 1024), 1024u);
    t.setRate(0.5);
    EXPECT_EQ(t.occupy(1024, 512), 2048u);
}

TEST(Occupancy, SparseTrafficKeepsLivePagesBounded)
{
    // One TP-8 decode step's all-reduce share on one octo-node link:
    // 66,657 B every 2.734 ms over a 64 GB/s x16 link. Each transfer
    // spans ~65 windows, far apart in time, so without retirement
    // every step allocates a fresh page. With the floor advanced to
    // each issue tick, live state is the in-flight transfer only.
    OccupancyTracker t(gbps(64.0) / static_cast<double>(ticksPerSecond));
    const Tick gap = 2'734'000'000;
    const std::uint64_t bytes = 66'657;
    const Tick ser = serializationTicks(bytes, gbps(64.0));
    std::size_t max_live = 0;
    for (int i = 0; i < 20'000; ++i) {
        const Tick when = static_cast<Tick>(i) * gap;
        t.retireBefore(when);
        const Tick done = t.occupy(when, bytes);
        EXPECT_NEAR(static_cast<double>(done),
                    static_cast<double>(when + ser), 1.0);
        max_live = std::max(max_live, t.livePages());
    }
    EXPECT_LE(max_live, 2u);
    EXPECT_EQ(t.floor(), 19'999 * gap);
}

TEST(Occupancy, RetirementNeverGoesBackward)
{
    OccupancyTracker t(1.0);
    t.retireBefore(5'000'000);
    t.retireBefore(1'000);
    EXPECT_EQ(t.floor(), 5'000'000u);
    EXPECT_EQ(t.occupy(5'000'000, 512), 5'000'512u);
}

TEST(OccupancyDeathTest, OccupyBelowTheFloorPanics)
{
    OccupancyTracker t(1.0);
    t.occupy(0, 4096);
    t.retireBefore(2'000'000);
    EXPECT_DEATH(t.occupy(1'999'999, 64), "below the retirement floor");
    // The parent's tracker is untouched by the forked child.
    EXPECT_EQ(t.occupy(2'000'000, 64), 2'000'064u);
}

TEST(OccupancyDeathTest, RateIncreasePanics)
{
    // Skip chains and snapshots assume the per-window budget never
    // grows; only equal or lower rates are accepted.
    OccupancyTracker t(1.0);
    t.setRate(1.0);
    t.setRate(0.5);
    EXPECT_DEATH(t.setRate(0.75), "above the current rate");
    EXPECT_EQ(t.bandwidth(), 0.5);
}

namespace
{

/**
 * The tracker's arithmetic with none of its machinery: one map entry
 * per touched window, every full window stepped over one at a time,
 * no pages and no skip chains. OccupancyTracker must agree with it
 * exactly, completion ticks and snapshot bytes alike.
 */
class ReferenceTracker
{
  public:
    explicit ReferenceTracker(double bytes_per_tick)
        : rate_(bytes_per_tick),
          window_(static_cast<Tick>(std::clamp(1024.0 / bytes_per_tick,
                                               1000.0, 1'000'000.0)))
    {
    }

    void setRate(double bytes_per_tick) { rate_ = bytes_per_tick; }

    /** One window's byte budget at the current rate. */
    double
    windowBytes() const
    {
        return rate_ * static_cast<double>(window_);
    }

    void
    retireBefore(Tick mark)
    {
        floor_ = std::max(floor_, mark);
        used_.erase(used_.begin(), used_.lower_bound(floor_ / window_));
    }

    Tick
    occupy(Tick when, std::uint64_t bytes)
    {
        const double budget = rate_ * static_cast<double>(window_);
        const double full = budget - 1e-6;
        std::uint64_t w = when / window_;
        double remaining = static_cast<double>(bytes);
        const double time_avail =
            static_cast<double>((w + 1) * window_ - when);
        const double avail =
            std::min(time_avail * rate_, budget - usedAt(w));
        if (avail > 0) {
            const double take = std::min(avail, remaining);
            used_[w] += take;
            remaining -= take;
        }
        if (remaining <= 0)
            return finish(when + static_cast<Tick>(
                                     static_cast<double>(bytes) /
                                     rate_ + 0.5));
        for (;;) {
            // Step over full windows one at a time.
            auto it = used_.lower_bound(++w);
            for (; it != used_.end() && it->first == w &&
                   !(it->second < full);
                 ++it)
                ++w;
            double &u = used_[w];
            const double take = std::min(budget - u, remaining);
            u += take;
            remaining -= take;
            if (remaining <= 0)
                return finish(w * window_ +
                              static_cast<Tick>(u / rate_));
        }
    }

    /** OccupancyTracker::snapshot()'s layout. */
    void
    snapshot(SnapshotWriter &w) const
    {
        w.putF64(rate_);
        w.putU64(window_);
        w.putU64(last_done_);
        w.putU64(floor_);
        const std::uint64_t keep_from =
            std::max<std::uint64_t>(floor_, w.horizon()) / window_;
        std::vector<std::pair<std::uint64_t, double>> live;
        for (const auto &[win, used] : used_)
            if (used > 0.0 && win >= keep_from)
                live.emplace_back(win, used);
        w.putU64(live.size());
        for (const auto &[win, used] : live) {
            w.putU64(win);
            w.putF64(used);
        }
    }

  private:
    double
    usedAt(std::uint64_t w) const
    {
        const auto it = used_.find(w);
        return it == used_.end() ? 0.0 : it->second;
    }

    Tick
    finish(Tick done)
    {
        last_done_ = std::max(last_done_, done);
        return done;
    }

    double rate_;
    Tick window_;
    std::map<std::uint64_t, double> used_;
    Tick floor_ = 0;
    Tick last_done_ = 0;
};

template <class Tracker>
std::string
blobOf(const Tracker &t, Tick horizon)
{
    SnapshotWriter w;
    w.setHorizon(horizon);
    t.snapshot(w);
    return w.blob();
}

} // namespace

class OccupancyRandom : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(OccupancyRandom, ConservationUnderRandomTraffic)
{
    // Total bytes pushed through any interval cannot exceed
    // bandwidth x interval: check via the maximum completion time.
    const double bw = 2.0;
    OccupancyTracker t(bw);
    Rng rng(GetParam());
    std::uint64_t total = 0;
    Tick max_done = 0;
    Tick min_when = maxTick;
    for (int i = 0; i < 5000; ++i) {
        const Tick when = rng.nextBounded(100'000);
        const std::uint64_t bytes = 64 + rng.nextBounded(2048);
        total += bytes;
        min_when = std::min(min_when, when);
        max_done = std::max(max_done, t.occupy(when, bytes));
    }
    const double span = static_cast<double>(max_done - min_when);
    EXPECT_GE(span * bw * 1.05 + 4096.0, static_cast<double>(total));
}

TEST_P(OccupancyRandom, MonotoneUnderSaturation)
{
    // When issued in nondecreasing 'when' order at saturation, the
    // completions of equal-size transfers are nondecreasing.
    OccupancyTracker t(1.0);
    Rng rng(GetParam());
    Tick when = 0;
    Tick prev_done = 0;
    for (int i = 0; i < 2000; ++i) {
        when += rng.nextBounded(3);
        const Tick done = t.occupy(when, 512);
        EXPECT_GE(done, prev_done);
        prev_done = done;
    }
}

TEST_P(OccupancyRandom, RetiredMatchesNeverRetired)
{
    // Monotone issue ticks with bursts (queueing across many windows
    // and pages), idle gaps (whole pages retired), and a mid-stream
    // derate: the retiring tracker must hand out exactly the
    // completion ticks of one that keeps its whole history.
    OccupancyTracker retired(1.0), kept(1.0);
    Rng rng(GetParam());
    Tick when = 0;
    for (int i = 0; i < 20'000; ++i) {
        if (i == 10'000) {
            retired.setRate(0.375);
            kept.setRate(0.375);
        }
        when += rng.nextBounded(8) == 0 ? rng.nextBounded(4'000'000)
                                        : rng.nextBounded(2'000);
        const std::uint64_t bytes = 1 + rng.nextBounded(16'384);
        retired.retireBefore(when);
        ASSERT_EQ(retired.occupy(when, bytes), kept.occupy(when, bytes))
            << "transfer " << i << " at tick " << when;
    }
    EXPECT_LT(retired.livePages(), kept.livePages());
}

TEST_P(OccupancyRandom, MatchesPerWindowReference)
{
    // Mixed traffic on a fractional-rate link (window budget not a
    // whole number of bytes): same-tick bursts of 128 B lines (an L2
    // flush), transfers spanning three to four 512-window pages,
    // backfill anywhere between the floor and the clock, a mid-stream
    // derate, snapshot round trips, and a floor that trails the
    // clock. Every completion tick and the final snapshot must match
    // the reference exactly.
    Rng rng(GetParam());
    const double rate = 0.75 + rng.nextDouble();
    OccupancyTracker t(rate);
    ReferenceTracker ref(rate);
    Tick clock = 0;
    auto check = [&](Tick when, std::uint64_t bytes, int i) {
        ASSERT_EQ(t.occupy(when, bytes), ref.occupy(when, bytes))
            << "op " << i << ": " << bytes << " B at tick " << when;
    };
    for (int i = 0; i < 1'000; ++i) {
        if (i == 500) {
            t.setRate(rate * 0.625);
            ref.setRate(rate * 0.625);
        }
        if (i == 250 || i == 750) {
            // A restored tracker has full windows but no skip chains.
            const std::string blob = blobOf(t, 0);
            SnapshotReader r(blob);
            t.restore(r);
        }
        if (i % 250 == 0 && i > 0) {
            // Backfill the whole live history from the floor up: fill
            // runs into windows that are full with no skip entry
            // (restored, or tipped over by the derate).
            for (int j = 0; j < 4; ++j)
                check(t.floor(), 256 * 1024, i);
        }
        const std::uint64_t kind = rng.nextBounded(16);
        if (kind < 4) {
            const std::uint64_t lines = 8 + rng.nextBounded(56);
            for (std::uint64_t l = 0; l < lines; ++l)
                check(clock, 128, i);
        } else if (kind == 4) {
            const double page_bytes = 512.0 * ref.windowBytes();
            check(clock,
                  static_cast<std::uint64_t>(3.0 * page_bytes) +
                      rng.nextBounded(static_cast<std::uint64_t>(
                          page_bytes)),
                  i);
        } else if (kind < 9) {
            // Half near the frontier, half anywhere above the floor.
            const Tick span = clock - t.floor();
            const Tick back = rng.nextBounded(2) == 0
                                  ? span
                                  : std::min<Tick>(span, 2'000'000);
            const Tick when = clock - rng.nextBounded(back + 1);
            check(when, 1 + rng.nextBounded(8'192), i);
        } else {
            check(clock, 1 + rng.nextBounded(32'768), i);
        }
        if (HasFatalFailure())
            return;
        clock += rng.nextBounded(16) == 0 ? rng.nextBounded(4'000'000)
                                          : rng.nextBounded(400'000);
        if (i % 32 == 31) {
            const Tick mark = clock - rng.nextBounded(clock / 2 + 1);
            t.retireBefore(mark);
            ref.retireBefore(mark);
        }
    }
    EXPECT_EQ(blobOf(t, 0), blobOf(ref, 0));
    EXPECT_EQ(blobOf(t, clock), blobOf(ref, clock));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OccupancyRandom,
                         ::testing::Values(1, 17, 99));
