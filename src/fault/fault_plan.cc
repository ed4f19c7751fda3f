#include "fault/fault_plan.hh"

#include <sstream>
#include <stdexcept>

#include "sim/logging.hh"
#include "sim/units.hh"

namespace ehpsim
{
namespace fault
{

void
FaultPlan::validate() const
{
    if (chunk_error_rate < 0.0 || chunk_error_rate > 1.0)
        fatal("fault plan: chunk_error_rate ", chunk_error_rate,
              " out of [0, 1]");
    for (const auto &lf : link_faults) {
        if (lf.node_a.empty() || lf.node_b.empty())
            fatal("fault plan: link fault with an empty node name");
        if (lf.node_a == lf.node_b)
            fatal("fault plan: link fault '", lf.node_a,
                  "' to itself");
        if (lf.derate < 0.0 || lf.derate >= 1.0)
            fatal("fault plan: derate ", lf.derate, " for ",
                  lf.node_a, " <-> ", lf.node_b,
                  " out of [0, 1) (0 kills the link)");
    }
}

std::string
FaultPlan::describe() const
{
    std::ostringstream os;
    os << "seed=" << seed << " chunk_error_rate=" << chunk_error_rate;
    if (active_cus > 0)
        os << " active_cus=" << active_cus;
    os << " link_faults=" << link_faults.size()
       << " channel_faults=" << channel_faults.size();
    return os.str();
}

LinkFault
parseLinkFault(const std::string &spec)
{
    const auto colon = spec.find(':');
    const auto at = spec.find('@');
    if (colon == std::string::npos || at == std::string::npos ||
        colon == 0 || at < colon + 2 || at + 1 >= spec.size())
        fatal("bad link fault '", spec, "' (want a:b@tick[*factor])");

    LinkFault f;
    f.node_a = spec.substr(0, colon);
    f.node_b = spec.substr(colon + 1, at - colon - 1);
    const auto star = spec.find('*', at + 1);
    const std::string tick_str =
        spec.substr(at + 1, star == std::string::npos
                                ? std::string::npos
                                : star - at - 1);
    try {
        f.at = parseUnsigned(tick_str);
        if (star != std::string::npos)
            f.derate = parseDouble(spec.substr(star + 1));
    } catch (const std::logic_error &) {
        fatal("bad link fault '", spec, "' (want a:b@tick[*factor])");
    }
    return f;
}

ChannelFault
parseChannelFault(const std::string &spec)
{
    const auto at = spec.find('@');
    if (at == std::string::npos)
        fatal("bad blackout spec '", spec, "' (want ch@tick)");
    ChannelFault f;
    try {
        f.channel = static_cast<unsigned>(
            parseUnsigned(spec.substr(0, at), ~0u));
        f.at = parseUnsigned(spec.substr(at + 1));
    } catch (const std::logic_error &) {
        fatal("bad blackout spec '", spec, "' (want ch@tick)");
    }
    return f;
}

void
applyCuHarvest(gpu::XcdParams &params, unsigned active_cus)
{
    if (active_cus == 0)
        fatal("CU harvest: an XCD needs at least one active CU");
    if (active_cus > params.physical_cus)
        fatal("CU harvest: cannot enable ", active_cus, " of ",
              params.physical_cus, " physical CUs");
    params.active_cus = active_cus;
}

} // namespace fault
} // namespace ehpsim
