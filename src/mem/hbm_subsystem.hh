/**
 * @file
 * The HBM channel-health ledger (paper Sec. IV.D).
 *
 * MI300A: 8 stacks x 16 channels = 128 channels, 128 GB, ~5.3 TB/s
 * HBM peak. The timed memory itself — interleave, fabric route,
 * Infinity Cache slice, HBM channel — is soc::Package's; this ledger
 * only records which channels a fault has mapped out. A blackout
 * remaps nothing: it lowers the live-channel count, and serving
 * scales its HBM bandwidth (and KV pool) by live / total channels.
 */

#ifndef EHPSIM_MEM_HBM_SUBSYSTEM_HH
#define EHPSIM_MEM_HBM_SUBSYSTEM_HH

#include <vector>

#include "mem/dram.hh"
#include "mem/infinity_cache.hh"
#include "mem/interleave.hh"
#include "sim/sim_object.hh"

namespace ehpsim
{
namespace mem
{

struct HbmSubsystemParams
{
    unsigned num_stacks = 8;
    unsigned channels_per_stack = 16;
    std::uint64_t capacity_bytes = 128ull * 1024 * 1024 * 1024;
    NumaMode numa = NumaMode::nps1;
    DramParams channel = hbm3ChannelParams();
    InfinityCacheParams cache;          ///< per-channel slice
    bool enable_infinity_cache = true;  ///< MI250X has none

    unsigned numChannels() const
    {
        return num_stacks * channels_per_stack;
    }
};

class HbmSubsystem : public SimObject
{
  public:
    HbmSubsystem(SimObject *parent, const std::string &name,
                 const HbmSubsystemParams &params);

    unsigned numChannels() const { return params_.numChannels(); }

    /**
     * The blackout rule, shared by blackoutChannel() and fault-plan
     * validation: fatal, prefixed with @p who, unless @p channel is
     * a live channel of the ledger whose dark flags are @p dark and
     * not its last live one.
     */
    static void checkBlackout(const std::string &who,
                              const std::vector<bool> &dark,
                              unsigned channel);

    /** Map out @p channel (HBM fault); checkBlackout() first. */
    void blackoutChannel(unsigned channel);

    bool channelAlive(unsigned channel) const;

    /** Channels still in service. */
    unsigned liveChannels() const { return live_channels_; }

    /** Peak HBM bandwidth across the live channels (bytes/s). */
    BytesPerSecond peakHbmBandwidth() const;

    /** @{ statistics */
    stats::Scalar channels_dark;
    stats::Formula degraded_peak_gbps;
    /** @} */

    /** @{ checkpoint: stats, then the dark flags and live count
     *  (DESIGN.md §16) */
    void snapshot(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;
    /** @} */

  private:
    HbmSubsystemParams params_;
    std::vector<bool> channel_dead_;
    unsigned live_channels_ = 0;
};

} // namespace mem
} // namespace ehpsim

#endif // EHPSIM_MEM_HBM_SUBSYSTEM_HH
