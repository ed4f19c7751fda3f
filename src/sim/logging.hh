/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * panic() is for simulator bugs (aborts); fatal() is for user/config
 * errors (clean exit); warn()/inform() report conditions without
 * stopping the simulation.
 */

#ifndef EHPSIM_SIM_LOGGING_HH
#define EHPSIM_SIM_LOGGING_HH

#include <cstdint>
#include <source_location>
#include <sstream>
#include <string>

namespace ehpsim
{

namespace logging_detail
{

/** Concatenate a parameter pack into one message string. */
template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

[[noreturn]] void panicImpl(const std::string &msg,
                            const std::source_location &where);
[[noreturn]] void fatalImpl(const std::string &msg,
                            const std::source_location &where);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Number of warn() calls so far (used by tests). */
std::uint64_t warnCount();

/** Suppress or re-enable warn/inform console output (used by tests). */
void setQuiet(bool quiet);

} // namespace logging_detail

/**
 * Abort: something happened that indicates an ehpsim bug.
 *
 * panic and fatal are class templates so that the trailing
 * source_location default argument is evaluated at the call site
 * (a function template cannot put a defaulted parameter after its
 * pack); the deduction guides keep the call syntax panic(a, b, ...).
 * The message ends with the caller's file, relative to the source
 * root, and line.
 */
template <typename... Args>
struct panic
{
    [[noreturn]]
    panic(Args &&...args,
          const std::source_location &where =
              std::source_location::current())
    {
        logging_detail::panicImpl(
            logging_detail::concat(std::forward<Args>(args)...), where);
    }
};

template <typename... Args>
panic(Args &&...) -> panic<Args...>;

/** Exit cleanly: the user supplied an invalid configuration. */
template <typename... Args>
struct fatal
{
    [[noreturn]]
    fatal(Args &&...args,
          const std::source_location &where =
              std::source_location::current())
    {
        logging_detail::fatalImpl(
            logging_detail::concat(std::forward<Args>(args)...), where);
    }
};

template <typename... Args>
fatal(Args &&...) -> fatal<Args...>;

/** Report a suspicious but non-fatal condition. */
template <typename... Args>
void
warn(Args&&... args)
{
    logging_detail::warnImpl(
        logging_detail::concat(std::forward<Args>(args)...));
}

/** Report normal operating status. */
template <typename... Args>
void
inform(Args&&... args)
{
    logging_detail::informImpl(
        logging_detail::concat(std::forward<Args>(args)...));
}

} // namespace ehpsim

#endif // EHPSIM_SIM_LOGGING_HH
