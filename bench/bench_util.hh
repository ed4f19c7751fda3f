/**
 * @file
 * Shared helpers for the paper-reproduction benches.
 *
 * Every bench binary prints machine-readable rows of the form
 *   [row] <figure>; <series>; <x>; <value>; <unit>
 * followed by a
 *   [paper_shape_check] <figure>: PASS/FAIL - <explanation>
 * line stating whether the qualitative shape of the paper's result
 * holds.
 *
 * Sweep-shaped benches additionally split their configurations into
 * independent SweepCase jobs and run them through sweep::SweepRunner
 * (see runCases()). Such benches accept
 *   --jobs N       worker-pool size (default 1)
 *   --json FILE    write the ehpsim-sweep-v1 JSON document to FILE
 * and the other benches take no flags; anything else exits 2. Rows
 * print in case order, so text and JSON output are byte-identical
 * for any --jobs value.
 */

#ifndef EHPSIM_BENCH_BENCH_UTIL_HH
#define EHPSIM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/units.hh"
#include "sweep/sweep_runner.hh"

namespace ehpsim
{
namespace bench
{

inline void
printHeader(const std::string &figure, const std::string &title)
{
    std::printf("==== %s: %s ====\n", figure.c_str(), title.c_str());
}

inline void
printRow(const std::string &figure, const std::string &series,
         const std::string &x, double value, const std::string &unit)
{
    std::printf("[row] %s; %s; %s; %.4g; %s\n", figure.c_str(),
                series.c_str(), x.c_str(), value, unit.c_str());
}

inline void
shapeCheck(const std::string &figure, bool pass,
           const std::string &explanation)
{
    std::printf("[paper_shape_check] %s: %s - %s\n", figure.c_str(),
                pass ? "PASS" : "FAIL", explanation.c_str());
}

// ---------------------------------------------------------------------
// Sweep support
// ---------------------------------------------------------------------

/** One measured point: what printRow() prints, as data. */
struct Row
{
    std::string series;
    std::string x;
    double value = 0;
    std::string unit;
};

/** Collects a case's rows; the runner serializes and prints them. */
class RowSink
{
  public:
    void
    row(std::string series, std::string x, double value,
        std::string unit)
    {
        rows_.push_back(
            Row{std::move(series), std::move(x), value, std::move(unit)});
    }

    const std::vector<Row> &rows() const { return rows_; }

  private:
    std::vector<Row> rows_;
};

/** One independent configuration of a sweep-shaped bench. */
struct SweepCase
{
    std::string name;
    std::function<void(RowSink &)> fn;
};

/** A finished case, rows recovered from its JSON-side payload. */
struct CaseOutcome
{
    std::string name;
    bool ok = false;
    std::string error;
    std::vector<Row> rows;
};

/** Sweep flags shared by all ported benches. */
struct SweepArgs
{
    unsigned jobs = 1;
    std::string json_path;
};

[[noreturn]] inline void
badFlag(const char *argv0, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", argv0, msg.c_str());
    std::exit(2);
}

/** Parse --jobs N and --json FILE; anything else exits 2. */
inline SweepArgs
parseSweepArgs(int argc, char **argv)
{
    SweepArgs args;
    for (int i = 1; i < argc; i += 2) {
        const std::string arg = argv[i];
        if ((arg != "--jobs" && arg != "--json") || i + 1 >= argc)
            badFlag(argv[0], "bad flag '" + arg +
                                 "' (want --jobs N, --json FILE)");
        if (arg == "--json") {
            args.json_path = argv[i + 1];
            continue;
        }
        try {
            args.jobs =
                static_cast<unsigned>(parseUnsigned(argv[i + 1], ~0u));
            if (args.jobs == 0)
                throw std::out_of_range("'0' is below the minimum 1");
        } catch (const std::logic_error &e) {
            badFlag(argv[0], std::string("--jobs: ") + e.what());
        }
    }
    return args;
}

/** For the benches that take no flags: any argument exits 2. */
inline void
parseNoFlags(int argc, char **argv)
{
    if (argc > 1)
        badFlag(argv[0], "unknown flag '" + std::string(argv[1]) +
                             "' (this bench takes no flags)");
}

/**
 * Run @p cases through a SweepRunner with @p args.jobs workers.
 * Rows are printed in case order (never completion order), the
 * ehpsim-sweep-v1 JSON document is written when --json was given
 * (exit 1 when it cannot be), and the outcomes are returned for
 * shape checks.
 */
inline std::vector<CaseOutcome>
runCases(const std::string &figure, std::vector<SweepCase> cases,
         const SweepArgs &args)
{
    sweep::SweepRunner runner(args.jobs);
    // Keep the sinks alive past run(): job fns serialize from them.
    auto sinks = std::make_shared<std::vector<RowSink>>(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        auto fn = cases[i].fn;
        runner.addJob(cases[i].name,
                      [fn, sinks, i](json::JsonWriter &jw) {
                          RowSink &sink = (*sinks)[i];
                          fn(sink);
                          jw.beginObject();
                          jw.key("rows");
                          jw.beginArray();
                          for (const auto &r : sink.rows()) {
                              jw.beginObject();
                              jw.kv("series", r.series);
                              jw.kv("x", r.x);
                              jw.kv("value", r.value);
                              jw.kv("unit", r.unit);
                              jw.endObject();
                          }
                          jw.endArray();
                          jw.endObject();
                      });
    }

    const auto results = runner.run();

    std::vector<CaseOutcome> outcomes(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        outcomes[i].name = results[i].name;
        outcomes[i].ok = results[i].ok;
        outcomes[i].error = results[i].error;
        if (results[i].ok)
            outcomes[i].rows = (*sinks)[i].rows();
        else
            std::printf("[job_error] %s; %s; %s\n", figure.c_str(),
                        results[i].name.c_str(),
                        results[i].error.c_str());
        for (const auto &r : outcomes[i].rows)
            printRow(figure, r.series, r.x, r.value, r.unit);
    }

    if (!args.json_path.empty() &&
        !runner.writeJson(figure, figure, results, args.json_path))
        std::exit(1);
    return outcomes;
}

/** Look up a row by (series, x); @return @p fallback when absent. */
inline double
findRow(const std::vector<CaseOutcome> &outcomes,
        const std::string &series, const std::string &x,
        double fallback = 0)
{
    for (const auto &o : outcomes) {
        for (const auto &r : o.rows) {
            if (r.series == series && r.x == x)
                return r.value;
        }
    }
    return fallback;
}

} // namespace bench
} // namespace ehpsim

#endif // EHPSIM_BENCH_BENCH_UTIL_HH
