#include "soc/comm_world.hh"

#include "sim/logging.hh"

namespace ehpsim
{
namespace soc
{

CommWorld::CommWorld(const std::string &topology,
                     const comm::CommParams &params,
                     const fault::FaultPlan *faults)
{
    if (topology == "quad")
        topo = NodeTopology::mi300aQuadNode(&root);
    else if (topology == "octo")
        topo = NodeTopology::mi300xOctoNode(&root);
    else
        fatal("unknown comm topology '", topology,
              "' (want quad or octo)");
    group = std::make_unique<comm::CommGroup>(
        topo.get(), "comm", topo->network(), topo->deviceRanks(), &eq,
        params);
    if (faults) {
        injector = std::make_unique<fault::FaultInjector>(
            topo.get(), "inj", *faults, &eq);
        injector->attachNetwork(topo->network());
        injector->attachCommGroup(group.get());
        injector->arm();
    }
}

void
CommWorld::attachPdes(unsigned partitions)
{
    if (partitions == 0)
        return;
    if (engine)
        fatal("CommWorld: PDES is already attached");
    engine = std::make_unique<pdes::PdesEngine>(&eq, topo->network(),
                                                partitions);
    group->attachPdes(engine.get());
}

void
CommWorld::warmup(unsigned n, std::uint64_t bytes)
{
    for (unsigned i = 0; i < n; ++i)
        run(comm::Collective::allReduce, comm::Algorithm::ring, bytes);
}

comm::OpHandle
CommWorld::run(comm::Collective coll, comm::Algorithm algo,
               std::uint64_t bytes)
{
    auto op = group->collective(coll, eq.curTick(), bytes, algo);
    group->waitAll();
    return op;
}

} // namespace soc
} // namespace ehpsim
