/**
 * @file
 * Tests for the workload IR and the synthetic generators.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "workloads/arrivals.hh"
#include "workloads/generators.hh"

using namespace ehpsim;
using namespace ehpsim::workloads;

TEST(Workload, Totals)
{
    Workload w;
    Phase a;
    a.gpu_flops = 100;
    a.gpu_bytes_read = 10;
    a.gpu_bytes_written = 5;
    a.to_gpu_bytes = 7;
    Phase b;
    b.gpu_flops = 50;
    b.to_cpu_bytes = 3;
    w.phases = {a, b};
    EXPECT_EQ(w.totalGpuFlops(), 150u);
    EXPECT_EQ(w.totalGpuBytes(), 15u);
    EXPECT_EQ(w.totalTransferBytes(), 10u);
}

TEST(Generators, TriadIsBandwidthBound)
{
    const auto w = streamTriad(1 << 20);
    ASSERT_EQ(w.phases.size(), 1u);
    const auto &p = w.phases[0];
    // Arithmetic intensity of triad is 2 flops / 24 bytes.
    const double ai = static_cast<double>(p.gpu_flops) /
                      (p.gpu_bytes_read + p.gpu_bytes_written);
    EXPECT_LT(ai, 0.2);
}

TEST(Generators, GemmIsComputeBound)
{
    const auto w = gemm(4096, 4096, 4096);
    const auto &p = w.phases[0];
    const double ai = static_cast<double>(p.gpu_flops) /
                      (p.gpu_bytes_read + p.gpu_bytes_written);
    EXPECT_GT(ai, 100.0);
    EXPECT_EQ(p.pipe, gpu::Pipe::matrix);
}

TEST(Generators, NbodyQuadraticInBodies)
{
    const auto small = nbody(1000);
    const auto large = nbody(2000);
    EXPECT_NEAR(static_cast<double>(large.totalGpuFlops()) /
                    small.totalGpuFlops(),
                4.0, 0.01);
}

TEST(Generators, HpcgIsMemoryBound)
{
    const auto w = hpcg(64, 64, 64, 2);
    EXPECT_EQ(w.phases.size(), 4u);     // spmv + dot per iteration
    const double ai =
        static_cast<double>(w.totalGpuFlops()) / w.totalGpuBytes();
    EXPECT_LT(ai, 0.25);
    EXPECT_EQ(w.phases[0].dtype, gpu::DataType::fp64);
}

TEST(Generators, CfdCouplesCpuAndGpu)
{
    const auto w = cfdSolver(1'000'000, 3);
    EXPECT_EQ(w.phases.size(), 6u);
    EXPECT_GT(w.totalTransferBytes(), 0u);
    bool has_cpu = false, has_overlap = false;
    for (const auto &p : w.phases) {
        if (p.device == PhaseDevice::cpu)
            has_cpu = true;
        if (p.fine_grained_capable)
            has_overlap = true;
    }
    EXPECT_TRUE(has_cpu);
    EXPECT_TRUE(has_overlap);
}

TEST(Generators, LlmPrefillComputeBoundDecodeBandwidthBound)
{
    LlmConfig cfg;
    const auto pre = llmPrefill(cfg);
    const auto dec = llmDecode(cfg);
    const double pre_ai =
        static_cast<double>(pre.totalGpuFlops()) /
        pre.totalGpuBytes();
    const double dec_ai =
        static_cast<double>(dec.totalGpuFlops()) /
        dec.totalGpuBytes();
    // Paper Sec. VII: prompt phase demands compute, token phase is
    // constrained by memory bandwidth.
    EXPECT_GT(pre_ai, 100.0);
    EXPECT_LT(dec_ai, 10.0);
}

TEST(Generators, LlmFootprintMatchesWeights)
{
    LlmConfig cfg;
    const auto w = llmInference(cfg);
    // 70B FP16 parameters = 140 GB: more than the baseline GPU's
    // 80 GB but within MI300X's 192 GB (paper Fig. 19/21).
    EXPECT_NEAR(static_cast<double>(w.footprint_bytes) / 1e9, 140.0,
                1.0);
    EXPECT_EQ(w.phases.size(), 2u);
}

TEST(Generators, LlmDecodeScalesWithOutputTokens)
{
    LlmConfig a, b;
    a.output_tokens = 64;
    b.output_tokens = 128;
    EXPECT_NEAR(static_cast<double>(
                    llmDecode(b).totalGpuBytes()) /
                    llmDecode(a).totalGpuBytes(),
                2.0, 0.05);
}

TEST(Generators, GromacsMixedPhases)
{
    const auto w = gromacsLike(500'000, 2);
    EXPECT_EQ(w.phases.size(), 4u);
    EXPECT_EQ(w.phases[0].dtype, gpu::DataType::fp32);
}

// ---------------------------------------------------------------------
// Open-loop arrival traces (src/workloads/arrivals.hh)
// ---------------------------------------------------------------------

namespace
{

ArrivalParams
arrivalParams(std::uint64_t seed, unsigned n, double rate)
{
    ArrivalParams p;
    p.seed = seed;
    p.num_requests = n;
    p.rate_per_s = rate;
    return p;
}

double
interArrivalCv(const std::vector<ServingRequestSpec> &trace)
{
    double sum = 0, sq = 0;
    const auto n = static_cast<double>(trace.size() - 1);
    for (std::size_t i = 1; i < trace.size(); ++i) {
        const double d =
            secondsFromTicks(trace[i].arrival - trace[i - 1].arrival);
        sum += d;
        sq += d * d;
    }
    const double mean = sum / n;
    return std::sqrt(sq / n - mean * mean) / mean;
}

} // anonymous namespace

TEST(Arrivals, PoissonIsSeedDeterministicAndSorted)
{
    const auto a = poissonArrivals(arrivalParams(7, 64, 4.0));
    const auto b = poissonArrivals(arrivalParams(7, 64, 4.0));
    ASSERT_EQ(a.size(), 64u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].input_tokens, b[i].input_tokens);
        EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
        if (i > 0) {
            EXPECT_GT(a[i].arrival, a[i - 1].arrival);
        }
    }
    const auto c = poissonArrivals(arrivalParams(8, 64, 4.0));
    EXPECT_NE(a[0].arrival, c[0].arrival);
}

TEST(Arrivals, PoissonMatchesOfferedLoad)
{
    const auto trace = poissonArrivals(arrivalParams(3, 4000, 10.0));
    const double span = secondsFromTicks(trace.back().arrival);
    const double rate = 4000.0 / span;
    EXPECT_NEAR(rate, 10.0, 1.0);
}

TEST(Arrivals, TokenJitterStaysInBounds)
{
    ArrivalParams p = arrivalParams(11, 256, 2.0);
    p.mean_input_tokens = 1000;
    p.mean_output_tokens = 100;
    p.token_jitter = 0.25;
    for (const auto &r : poissonArrivals(p)) {
        EXPECT_GE(r.input_tokens, 750u);
        EXPECT_LE(r.input_tokens, 1250u);
        EXPECT_GE(r.output_tokens, 75u);
        EXPECT_LE(r.output_tokens, 125u);
        EXPECT_GT(r.output_tokens, 0u);
    }
}

TEST(Arrivals, MmppIsBurstierThanPoissonAtEqualMeanLoad)
{
    const auto poisson = poissonArrivals(arrivalParams(5, 512, 2.0));
    const auto mmpp =
        mmppArrivals(arrivalParams(5, 512, 2.0), MmppParams{});
    ASSERT_EQ(mmpp.size(), 512u);
    for (std::size_t i = 1; i < mmpp.size(); ++i)
        EXPECT_GT(mmpp[i].arrival, mmpp[i - 1].arrival);
    // A Poisson process has inter-arrival CV ~= 1; the two-state
    // MMPP's burst/calm switching pushes it well above.
    EXPECT_NEAR(interArrivalCv(poisson), 1.0, 0.25);
    EXPECT_GT(interArrivalCv(mmpp), interArrivalCv(poisson) * 1.2);
}

TEST(Arrivals, InvalidParamsAreFatal)
{
    ArrivalParams bad = arrivalParams(1, 8, 0.0);
    EXPECT_THROW(bad.validate(), std::runtime_error);
    ArrivalParams jit = arrivalParams(1, 8, 1.0);
    jit.token_jitter = 1.0;
    EXPECT_THROW(jit.validate(), std::runtime_error);
    MmppParams m;
    m.burst_rate_multiplier = 0.5;
    EXPECT_THROW(m.validate(), std::runtime_error);
}
