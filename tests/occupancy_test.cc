/**
 * @file
 * Property tests for the windowed-bandwidth OccupancyTracker — the
 * contention model under every link, cache port, and DRAM bus.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/mem_device.hh"
#include "sim/rng.hh"
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

INSTANTIATE_TEST_SUITE_P(Seeds, OccupancyRandom,
                         ::testing::Values(1, 17, 99));
