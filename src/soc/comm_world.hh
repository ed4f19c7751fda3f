/**
 * @file
 * The Fig. 18 comm world: one quad-MI300A or octo-MI300X node with
 * a CommGroup over its device sockets (DESIGN.md §8).
 *
 * Every comm, fault and PDES result in the repo runs on this world:
 * the CLI's comm/fault/race subcommands, the fig18 and resilience
 * benches, perf_kernel and the tests. It is built in one fixed
 * order, so the stats tree, the registration order a checkpoint
 * walks, and therefore every JSON and snapshot byte are the same
 * wherever it is built:
 *
 *   root
 *   `- quad | octo        NodeTopology (its fabric first)
 *      |- comm            CommGroup over deviceRanks()
 *      `- inj             FaultInjector, only with a fault plan
 *
 * The world also owns the optional conservative PDES engine
 * (DESIGN.md §15): attachPdes() hands the group to it before ops
 * are issued, and the engine is torn down first, joining its
 * workers before the objects they touch go.
 */

#ifndef EHPSIM_SOC_COMM_WORLD_HH
#define EHPSIM_SOC_COMM_WORLD_HH

#include <cstdint>
#include <memory>
#include <string>

#include "comm/comm_group.hh"
#include "fault/fault_injector.hh"
#include "sim/event_queue.hh"
#include "sim/pdes/pdes_engine.hh"
#include "sim/sim_object.hh"
#include "soc/node_topology.hh"

namespace ehpsim
{
namespace soc
{

/**
 * The CommParams of every Fig. 18 comm run: 1 MiB chunks, so the
 * pipeline fill and drain stay small against the transfer. Callers
 * that need a retry policy copy it and set that on top.
 */
inline constexpr comm::CommParams kFig18Comm{.chunk_bytes = 1 * MiB};

struct CommWorld
{
    SimObject root{nullptr, "root"};
    std::unique_ptr<NodeTopology> topo;
    EventQueue eq;
    std::unique_ptr<comm::CommGroup> group;
    /** Set when the world was built with a fault plan. */
    std::unique_ptr<fault::FaultInjector> injector;
    /**
     * Set by attachPdes() with at least one partition. Declared
     * last, so it is destroyed first: its destructor joins the
     * worker threads while the group and the injector they run still
     * exist, even when a fatal on the coordinator unwinds the world
     * mid-window. The group keeps a dangling engine pointer after
     * that, which nothing reads (it has no destructor), so no
     * detach is needed — and none could run with ops in flight.
     */
    std::unique_ptr<pdes::PdesEngine> engine;

    /**
     * Build the @p topology ("quad" or "octo") node and the group
     * "comm" over its device ranks with @p params. With @p faults,
     * an injector "inj" is attached to the node's network and the
     * group, then armed.
     */
    explicit CommWorld(const std::string &topology,
                       const comm::CommParams &params = {},
                       const fault::FaultPlan *faults = nullptr);

    CommWorld(const CommWorld &) = delete;
    CommWorld &operator=(const CommWorld &) = delete;

    /**
     * Run the group's ops on @p partitions conservative partitions
     * from now on; 0 keeps the serial kernel. Call before issuing
     * ops, and after restoring a checkpoint into the world. A fault
     * plan's link kills land on the coordinator queue and bump the
     * route epoch; the engine collapses its partition groups at the
     * next window boundary, so a faulted run stays byte-identical to
     * the serial one.
     */
    void attachPdes(unsigned partitions);

    /** @p n ring all-reduces of @p bytes each, each run to the op
     *  boundary (a legal checkpoint quiesce point). */
    void warmup(unsigned n, std::uint64_t bytes);

    /** Start @p coll of @p bytes per rank now (rank 0 is the
     *  broadcast root) and run it to completion. */
    comm::OpHandle run(comm::Collective coll, comm::Algorithm algo,
                       std::uint64_t bytes);
};

} // namespace soc
} // namespace ehpsim

#endif // EHPSIM_SOC_COMM_WORLD_HH
