#include "mem/hbm_subsystem.hh"

#include <algorithm>

#include "sim/access_tracker.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace ehpsim
{
namespace mem
{

HbmSubsystem::HbmSubsystem(SimObject *parent, const std::string &name,
                           const HbmSubsystemParams &params)
    : SimObject(parent, name),
      channels_dark(this, "channels_dark",
                    "HBM channels mapped out by faults"),
      degraded_peak_gbps(this, "degraded_peak_gbps",
                         "surviving peak HBM bandwidth, GB/s",
                         [this] { return peakHbmBandwidth() / 1e9; }),
      params_(params),
      channel_dead_(params.numChannels(), false),
      live_channels_(params.numChannels())
{
}

void
HbmSubsystem::checkBlackout(const std::string &who,
                            const std::vector<bool> &dark,
                            unsigned channel)
{
    if (channel >= dark.size())
        fatal(who, ": no HBM channel ", channel, " (", dark.size(),
              " channels)");
    if (dark[channel])
        fatal(who, ": HBM channel ", channel, " already dark");
    if (std::count(dark.begin(), dark.end(), false) == 1)
        fatal(who, ": cannot blackout the last live HBM channel");
}

void
HbmSubsystem::blackoutChannel(unsigned channel)
{
    checkBlackout(name(), channel_dead_, channel);
    // Serving reads the live count when it sizes an iteration; a
    // same-tick reader would see an order-dependent value.
    EHPSIM_TRACK_WRITE(this, "channels");
    channel_dead_[channel] = true;
    --live_channels_;
    ++channels_dark;
}

bool
HbmSubsystem::channelAlive(unsigned channel) const
{
    return channel < numChannels() && !channel_dead_[channel];
}

void
HbmSubsystem::snapshot(SnapshotWriter &w) const
{
    StatGroup::snapshot(w);
    w.putU32(numChannels());
    for (bool dead : channel_dead_)
        w.putBool(dead);
    w.putU32(live_channels_);
}

void
HbmSubsystem::restore(SnapshotReader &r)
{
    StatGroup::restore(r);
    const std::uint32_t n = r.getU32();
    if (n != numChannels()) {
        fatal(name(), ": snapshot saved with ", n,
              " HBM channels but configured with ", numChannels(),
              " — checkpoint/config mismatch");
    }
    for (unsigned c = 0; c < n; ++c)
        channel_dead_[c] = r.getBool();
    live_channels_ = r.getU32();
}

BytesPerSecond
HbmSubsystem::peakHbmBandwidth() const
{
    return params_.channel.bandwidth * live_channels_;
}

} // namespace mem
} // namespace ehpsim
