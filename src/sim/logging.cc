#include "sim/logging.hh"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace ehpsim
{
namespace logging_detail
{

namespace
{
// Atomic so warn()/inform() are safe from concurrent sweep workers.
std::atomic<std::uint64_t> warn_count{0};
std::atomic<bool> quiet{false};

/**
 * @p file relative to the source root, the directory holding src/:
 * this file's own compiled path names it. A path outside the root
 * (or a build that already passes relative paths) is left as is.
 */
const char *
fromSourceRoot(const char *file)
{
    constexpr std::string_view self = __FILE__;
    constexpr std::string_view tail = "src/sim/logging.cc";
    if (!self.ends_with(tail))
        return file;
    const std::string_view root =
        self.substr(0, self.size() - tail.size());
    if (root.empty() || !std::string_view(file).starts_with(root))
        return file;
    return file + root.size();
}

} // anonymous namespace

void
panicImpl(const std::string &msg, const std::source_location &where)
{
    std::fprintf(stderr, "panic: %s (%s:%u)\n", msg.c_str(),
                 fromSourceRoot(where.file_name()),
                 static_cast<unsigned>(where.line()));
    std::abort();
}

void
fatalImpl(const std::string &msg, const std::source_location &where)
{
    std::fprintf(stderr, "fatal: %s (%s:%u)\n", msg.c_str(),
                 fromSourceRoot(where.file_name()),
                 static_cast<unsigned>(where.line()));
    // Throw instead of exit(1) so that library users (and tests) can
    // intercept configuration errors; uncaught it still terminates.
    throw std::runtime_error("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    warn_count.fetch_add(1, std::memory_order_relaxed);
    if (!quiet.load(std::memory_order_relaxed))
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (!quiet.load(std::memory_order_relaxed))
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

std::uint64_t
warnCount()
{
    return warn_count;
}

void
setQuiet(bool q)
{
    quiet = q;
}

} // namespace logging_detail
} // namespace ehpsim
