/**
 * @file
 * Multi-socket node topologies (paper Sec. VIII, Fig. 18).
 *
 * Each MI300 socket exposes eight x16 links (four IF-only, four
 * IF-or-PCIe). The NodeTopology builds a node-level fabric over
 * whole sockets:
 *  - mi300aQuadNode(): four MI300A APUs, fully connected with two
 *    x16 IF links per socket pair (6 links used per socket), flat
 *    cache-coherent address space across all HBM;
 *  - mi300xOctoNode(): eight MI300X accelerators fully connected
 *    with one x16 IF link per pair (7 per socket) plus one PCIe
 *    link per socket back to an EPYC host.
 */

#ifndef EHPSIM_SOC_NODE_TOPOLOGY_HH
#define EHPSIM_SOC_NODE_TOPOLOGY_HH

#include <memory>
#include <string>
#include <vector>

#include "comm/comm_group.hh"
#include "fabric/network.hh"
#include "sim/sim_object.hh"

namespace ehpsim
{
namespace soc
{

/** x16 links (IF or IF/PCIe capable) an MI300 socket exposes. */
constexpr unsigned mi300LinksPerSocket = 8;

/** MI300X accelerators (device ranks) in the Fig. 18(b) octo node. */
constexpr unsigned mi300xOctoDevices = 8;

/** How a socket-to-socket connection is realized. */
struct SocketLink
{
    unsigned a;
    unsigned b;
    unsigned num_x16;       ///< x16 links ganged between the pair
    bool pcie;              ///< PCIe (to a host) instead of IF
};

class NodeTopology : public SimObject
{
  public:
    NodeTopology(SimObject *parent, const std::string &name);

    /**
     * Add a socket (accelerator or APU). @return its index.
     * Fatal unless 1 <= @p num_x16_links <= mi300LinksPerSocket.
     */
    unsigned addSocket(const std::string &name, unsigned num_x16_links,
                       double x16_gbps = 64.0);

    /** Add a host CPU (not subject to the socket link cap). */
    unsigned addHost(const std::string &name);

    /**
     * Connect two endpoints with @p num_x16 ganged x16 links.
     * Fatal when either endpoint's link budget is exceeded.
     */
    void connect(unsigned a, unsigned b, unsigned num_x16,
                 bool pcie = false);

    unsigned numEndpoints() const
    {
        return static_cast<unsigned>(names_.size());
    }

    /**
     * Partition domains this topology declares on its fabric —
     * every endpoint (socket or host) is its own domain, so this is
     * the natural upper bound on useful PDES partitions
     * (pdes::PdesEngine folds domains onto partitions modulo the
     * partition count).
     */
    unsigned numDomains() const { return numEndpoints(); }

    fabric::Network *network() { return net_.get(); }

    /** Fabric node of endpoint @p endpoint. */
    fabric::NodeId nodeId(unsigned endpoint) const;

    /** True when @p endpoint was added with addHost(). */
    bool isHost(unsigned endpoint) const;

    /** Fabric nodes of the non-host endpoints, in index order. */
    std::vector<fabric::NodeId> deviceRanks() const;

    /**
     * The communicator over the node's device sockets (hosts are
     * not ranks). Built on first use and driven by a topology-owned
     * event queue; the topology is frozen from then on.
     */
    comm::CommGroup *commGroup();

    /** x16 links still unused on an endpoint. */
    unsigned freeLinks(unsigned socket) const;

    /**
     * Peer-to-peer bandwidth between two endpoints (bytes/s, one
     * direction), including multi-hop routing.
     */
    double p2pBandwidth(unsigned a, unsigned b) const;

    /** One-way latency between endpoints, ticks. */
    Tick p2pLatency(unsigned a, unsigned b);

    /**
     * Simulate an all-to-all exchange where every device socket
     * sends @p bytes to every other. Backed by the comm engine
     * (direct algorithm over the event queue), so repeated or
     * overlapping exchanges contend for links. @return completion
     * ticks.
     */
    Tick allToAll(Tick when, std::uint64_t bytes);

    /** Aggregate node bisection bandwidth estimate (bytes/s). */
    double bisectionBandwidth() const;

    /** Build the Fig. 18(a) quad-APU node. */
    static std::unique_ptr<NodeTopology>
    mi300aQuadNode(SimObject *parent);

    /** Build the Fig. 18(b) 8x MI300X + host node. */
    static std::unique_ptr<NodeTopology>
    mi300xOctoNode(SimObject *parent);

  private:
    unsigned addEndpoint(const std::string &name, unsigned links,
                         double x16_gbps, bool is_host);

    /** Fatal when the comm group already froze the topology. */
    void checkMutable(const char *what) const;

    std::unique_ptr<fabric::Network> net_;
    std::vector<std::string> names_;
    std::vector<fabric::NodeId> nodes_;
    std::vector<unsigned> total_links_;
    std::vector<unsigned> used_links_;
    std::vector<double> link_gbps_;
    std::vector<bool> is_host_;
    std::vector<SocketLink> connections_;
    std::unique_ptr<EventQueue> comm_eq_;
    std::unique_ptr<comm::CommGroup> comm_;
};

} // namespace soc
} // namespace ehpsim

#endif // EHPSIM_SOC_NODE_TOPOLOGY_HH
