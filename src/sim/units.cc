#include "sim/units.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace ehpsim
{

std::string
formatBytes(std::uint64_t bytes)
{
    char buf[64];
    if (bytes >= GiB && bytes % GiB == 0) {
        std::snprintf(buf, sizeof(buf), "%llu GiB",
                      static_cast<unsigned long long>(bytes / GiB));
    } else if (bytes >= MiB && bytes % MiB == 0) {
        std::snprintf(buf, sizeof(buf), "%llu MiB",
                      static_cast<unsigned long long>(bytes / MiB));
    } else if (bytes >= KiB && bytes % KiB == 0) {
        std::snprintf(buf, sizeof(buf), "%llu KiB",
                      static_cast<unsigned long long>(bytes / KiB));
    } else {
        std::snprintf(buf, sizeof(buf), "%llu B",
                      static_cast<unsigned long long>(bytes));
    }
    return buf;
}

std::string
formatBandwidth(BytesPerSecond bw)
{
    char buf[64];
    if (bw >= 1e12) {
        std::snprintf(buf, sizeof(buf), "%.2f TB/s", bw / 1e12);
    } else if (bw >= 1e9) {
        std::snprintf(buf, sizeof(buf), "%.2f GB/s", bw / 1e9);
    } else if (bw >= 1e6) {
        std::snprintf(buf, sizeof(buf), "%.2f MB/s", bw / 1e6);
    } else {
        std::snprintf(buf, sizeof(buf), "%.2f B/s", bw);
    }
    return buf;
}

namespace
{

[[noreturn]] void
malformed(const std::string &s, const char *why = "")
{
    throw std::invalid_argument("malformed numeric argument '" + s + "'" +
                                why);
}

} // anonymous namespace

std::uint64_t
parseUnsigned(const std::string &s, std::uint64_t max)
{
    if (!s.empty() && s[0] == '-')
        malformed(s, " (must not be negative)");
    std::uint64_t value = 0;
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, value);
    if (ec == std::errc::invalid_argument || ptr != end)
        malformed(s);
    if (ec == std::errc::result_out_of_range || value > max)
        throw std::out_of_range("numeric argument '" + s +
                                "' out of range (max " +
                                std::to_string(max) + ")");
    return value;
}

double
parseDouble(const std::string &s)
{
    double value = 0;
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, value);
    if (ec == std::errc::invalid_argument || ptr != end ||
        !std::isfinite(value))
        malformed(s);
    if (ec == std::errc::result_out_of_range)
        throw std::out_of_range("numeric argument '" + s + "' out of range");
    return value;
}

std::uint64_t
parseSize(const std::string &s)
{
    const auto digits = std::min(s.find_first_not_of("0123456789"), s.size());
    std::uint64_t mult = 1;
    if (digits < s.size()) {
        if (digits == 0)
            malformed(s);
        const auto unit = std::string("KMGkmg").find(s[digits]);
        if (digits + 1 < s.size() || unit == std::string::npos)
            throw std::invalid_argument("bad size suffix in '" + s + "'");
        mult = KiB << (10 * (unit % 3));
    }
    const std::uint64_t value = parseUnsigned(s.substr(0, digits));
    if (value > ~std::uint64_t(0) / mult)
        throw std::out_of_range("size '" + s + "' out of range");
    return value * mult;
}

} // namespace ehpsim
