/**
 * @file
 * Determinism gates for the conservative parallel core (sim/pdes,
 * DESIGN.md §15).
 *
 * The PDES contract is absolute: a simulation run on N partitions
 * produces byte-identical output to the serial kernel, for any N.
 * Each test here renders a full run — the complete stats tree — to
 * a string under serial execution and under --pdes-style execution
 * with 1, 2, and 8 partitions, and EXPECT_EQs the strings. A
 * mismatch prints the first diverging stat, which localizes the
 * offending event ordering.
 *
 * Two workloads cover the two synchronization regimes:
 *  - every octo-node collective, ring and direct: steady-state
 *    parallel windows, every partition group independent, with
 *    coordinator steps for op starts and completions in between;
 *  - a fault storm with a mid-run link kill: the placement collapse
 *    path, where a detoured route forces every partition into one
 *    merged group at a window boundary.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/comm_group.hh"
#include "fault/fault_plan.hh"
#include "sim/json.hh"
#include "sim/pdes/pdes_engine.hh"
#include "soc/comm_world.hh"

using namespace ehpsim;

namespace
{

/** One run's complete observable history: the root stats tree plus
 *  the final simulated tick. */
struct RunRecord
{
    std::string stats;
    Tick final_tick = 0;
};

/** @p w's complete observable history, read once its ops drained. */
RunRecord
record(const soc::CommWorld &w)
{
    RunRecord rec;
    rec.final_tick = w.eq.curTick();
    std::ostringstream ss;
    json::JsonWriter jw(ss);
    w.root.dumpJsonStats(jw);
    rec.stats = ss.str();
    return rec;
}

/** Two concurrent @p coll of 4 MiB (contending for the same links)
 *  over the Fig. 18b octo node, the first with @p first and the
 *  second with @p second; pdes == 0 runs the serial kernel. */
RunRecord
octoCollectiveRun(comm::Collective coll, comm::Algorithm first,
                  comm::Algorithm second, unsigned pdes)
{
    soc::CommWorld w("octo", soc::kFig18Comm);
    w.attachPdes(pdes);
    w.group->collective(coll, 0, 4 * MiB, first);
    w.run(coll, second, 4 * MiB);
    return record(w);
}

/**
 * A collective storm under the fault injector: transient chunk
 * errors plus a link kill scheduled mid-run, so routes detour and
 * the engine must collapse its partition groups at a window
 * boundary without perturbing the schedule.
 */
RunRecord
faultStormRun(unsigned pdes)
{
    fault::FaultPlan plan;
    plan.seed = 7;
    plan.chunk_error_rate = 0.02;
    plan.link_faults.push_back(
        fault::LinkFault{"mi300x0", "mi300x1", 50'000'000, 0.0});
    plan.validate();
    soc::CommWorld w("octo",
                     comm::CommParams{
                         .chunk_bytes = soc::kFig18Comm.chunk_bytes,
                         .retry_timeout = 200'000'000},
                     &plan);
    w.attachPdes(pdes);

    w.run(comm::Collective::allReduce, comm::Algorithm::ring, 8 * MiB);
    w.run(comm::Collective::allReduce, comm::Algorithm::direct,
          8 * MiB);
    // The kill at 50 us landed mid-run: the detoured route must
    // have collapsed every partition into one merged group.
    if (w.engine) {
        EXPECT_EQ(w.engine->numGroups(), 1u);
    }
    return record(w);
}

} // anonymous namespace

TEST(Pdes, EveryCollectiveMatchesSerialForAnyPartitionCount)
{
    struct Row
    {
        comm::Collective coll;
        comm::Algorithm first, second;
    };
    std::vector<Row> rows;
    for (const comm::Collective coll :
         {comm::Collective::allReduce, comm::Collective::allGather,
          comm::Collective::reduceScatter, comm::Collective::broadcast,
          comm::Collective::allToAll}) {
        for (const comm::Algorithm algo :
             {comm::Algorithm::ring, comm::Algorithm::direct})
            rows.push_back({coll, algo, algo});
    }
    // Two DAG shapes contending on the links at once.
    rows.push_back({comm::Collective::allReduce, comm::Algorithm::ring,
                    comm::Algorithm::direct});

    for (const Row &r : rows) {
        const std::string row = std::string(comm::collectiveName(r.coll)) +
                                "/" + comm::algorithmName(r.first) + "+" +
                                comm::algorithmName(r.second);
        const RunRecord serial =
            octoCollectiveRun(r.coll, r.first, r.second, 0);
        ASSERT_FALSE(serial.stats.empty()) << row;
        for (const unsigned n : {1u, 2u, 8u}) {
            const RunRecord par =
                octoCollectiveRun(r.coll, r.first, r.second, n);
            EXPECT_EQ(par.final_tick, serial.final_tick)
                << row << " pdes=" << n;
            EXPECT_EQ(par.stats, serial.stats) << row << " pdes=" << n;
        }
    }
}

TEST(Pdes, FaultStormWithMidRunKillMatchesSerial)
{
    const RunRecord serial = faultStormRun(0);
    for (const unsigned n : {1u, 2u, 8u}) {
        const RunRecord par = faultStormRun(n);
        EXPECT_EQ(par.final_tick, serial.final_tick) << "pdes=" << n;
        EXPECT_EQ(par.stats, serial.stats) << "pdes=" << n;
    }
}

TEST(Pdes, EngineReportsParallelProgress)
{
    // White-box: the octo all-reduce at 8 partitions must actually
    // exercise the parallel path — nonzero lookahead (every rank
    // pair rides a direct IF link), more than one worker group, and
    // at least one parallel window per collective.
    soc::CommWorld w("octo", soc::kFig18Comm);
    w.attachPdes(8);
    w.run(comm::Collective::allReduce, comm::Algorithm::ring, 4 * MiB);

    EXPECT_GT(w.engine->lookahead(), 0);
    EXPECT_GT(w.engine->numGroups(), 1u);
    EXPECT_GT(w.engine->windows(), 0u);
    EXPECT_GT(w.engine->totalProcessed(), 0u);
}

TEST(Pdes, EngineNeedsAFabric)
{
    EventQueue eq;
    EXPECT_THROW(pdes::PdesEngine(&eq, nullptr, 2), std::runtime_error);
}
