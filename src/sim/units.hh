/**
 * @file
 * Unit helpers: byte sizes, bandwidths, and formatting.
 */

#ifndef EHPSIM_SIM_UNITS_HH
#define EHPSIM_SIM_UNITS_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace ehpsim
{

constexpr std::uint64_t KiB = 1024ull;
constexpr std::uint64_t MiB = 1024ull * KiB;
constexpr std::uint64_t GiB = 1024ull * MiB;

/** Bandwidth expressed in bytes per second. */
using BytesPerSecond = double;

constexpr BytesPerSecond
gbps(double gb)
{
    return gb * 1e9;
}

constexpr BytesPerSecond
tbps(double tb)
{
    return tb * 1e12;
}

/** Serialization time of @p bytes at @p bw bytes/second, in ticks. */
constexpr Tick
serializationTicks(std::uint64_t bytes, BytesPerSecond bw)
{
    if (bw <= 0.0)
        return 0;
    return static_cast<Tick>(
        static_cast<double>(bytes) / bw
        * static_cast<double>(ticksPerSecond));
}

/** Achieved bandwidth (bytes/s) from a byte count and a tick span. */
constexpr BytesPerSecond
achievedBandwidth(std::uint64_t bytes, Tick span)
{
    if (span == 0)
        return 0.0;
    return static_cast<double>(bytes) / secondsFromTicks(span);
}

/** Render a byte count as a human-readable string ("128 GiB"). */
std::string formatBytes(std::uint64_t bytes);

/** Render a bandwidth as a human-readable string ("5.3 TB/s"). */
std::string formatBandwidth(BytesPerSecond bw);

/*
 * Strict parsers for user input (flags, fault specs). The whole of
 * @p s must be the number: no blanks, no trailing characters, and
 * no sign on an unsigned value. A malformed number throws
 * std::invalid_argument and one that does not fit throws
 * std::out_of_range; both messages quote @p s, and callers add the
 * flag or spec it came from.
 */

/** An unsigned decimal integer no larger than @p max. */
std::uint64_t parseUnsigned(const std::string &s,
                            std::uint64_t max = ~std::uint64_t(0));

/** A finite floating-point number ("0.5", "1e-3", "-2"). */
double parseDouble(const std::string &s);

/** A byte count with an optional binary K/M/G suffix: "64", "4K",
 *  "16M", "1G". */
std::uint64_t parseSize(const std::string &s);

} // namespace ehpsim

#endif // EHPSIM_SIM_UNITS_HH
