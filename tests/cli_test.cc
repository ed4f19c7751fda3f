/**
 * @file
 * End-to-end checks of ehpsim_cli flag handling that unit tests
 * can't see: `sweep --pdes`, unknown flags, and malformed numbers,
 * sizes, fault specs, or enumerated values must be rejected with
 * exit 2 and a clear error, and the comm
 * checkpoint/fork path must produce byte-identical JSON to the
 * straight-through run while actually sharing the warmup (DESIGN.md
 * §16). The binary comes in via EHPSIM_CLI_BIN.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace
{

struct CmdResult
{
    int exit_code = -1;
    std::string stderr_text;
};

/** Run the CLI with @p args; capture exit code and stderr. A run
 *  that hangs is killed and fails (exit 124) instead of blocking. */
CmdResult
runCli(const std::string &args, const std::string &tag)
{
    const std::string err_path =
        std::string("cli_test_") + tag + ".err";
    const std::string cmd = std::string("timeout 120 ") + EHPSIM_CLI_BIN +
                            " " + args + " > /dev/null 2> " + err_path;
    CmdResult res;
    const int rc = std::system(cmd.c_str());
    res.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    std::ifstream in(err_path);
    std::ostringstream ss;
    ss << in.rdbuf();
    res.stderr_text = ss.str();
    std::remove(err_path.c_str());
    return res;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // anonymous namespace

TEST(CliSweep, PdesFlagIsRejectedWithClearError)
{
    const auto res = runCli(
        "sweep --products mi300a --workloads triad --pdes 4",
        "sweep_pdes");
    EXPECT_EQ(res.exit_code, 2);
    EXPECT_NE(res.stderr_text.find("--pdes is not supported"),
              std::string::npos)
        << res.stderr_text;
    // The error must point at the supported alternatives.
    EXPECT_NE(res.stderr_text.find("--jobs"), std::string::npos)
        << res.stderr_text;
}

TEST(CliSweep, PlainSweepStillWorks)
{
    const auto res = runCli(
        "sweep --products mi300a --workloads triad "
        "--json cli_test_sweep.json",
        "sweep_ok");
    EXPECT_EQ(res.exit_code, 0) << res.stderr_text;
    EXPECT_FALSE(slurp("cli_test_sweep.json").empty());
    std::remove("cli_test_sweep.json");
}

TEST(CliFlags, MalformedInputExitsTwo)
{
    // Each row must exit 2 with one message naming the flag or
    // value: never abort (exit 134), run with a truncated or wrapped
    // number or a defaulted enumerated value, or hang (--warmup -1
    // would run 2^32-1 warmups; runCli's timeout fails it). A bad
    // serve value is caught before any of its jobs starts, so it is
    // reported once, not once per (device, load) job.
    struct Case
    {
        const char *args;
        const char *stderr_has;
    };
    const Case cases[] = {
        {"serve --jobs banana", "malformed numeric argument"},
        {"comm --sizes 12Q", "bad size suffix in '12Q'"},
        {"serve --requests 2abc",
         "--requests: malformed numeric argument '2abc'"},
        {"fault --rates 0.01x",
         "--rates: malformed numeric argument '0.01x'"},
        {"comm --pdes 3x", "--pdes: malformed numeric argument '3x'"},
        {"serve --jobs -1", "--jobs: malformed numeric argument '-1'"},
        {"serve --jobs 99999999999", "--jobs: numeric argument "
                                     "'99999999999' out of range"},
        {"comm --pdes -1", "--pdes: malformed numeric argument '-1'"},
        {"comm --topology octo --sizes 1M --algos ring --warmup -1 "
         "--fork",
         "--warmup: malformed numeric argument '-1'"},
        {"sweep --engine bogus", "--engine: unknown value 'bogus' "
                                 "(want one of event, roofline)"},
        {"--policy bogus", "--policy: unknown value 'bogus' "
                           "(want one of rr, blocked)"},
        {"--nps 7", "--nps: unknown value '7' (want one of 1, 4)"},
        {"fault --kill a:b@-5", "bad link fault 'a:b@-5'"},
        {"serve --blackout 3x@5", "bad blackout spec '3x@5'"},
        // Blackouts a job would refuse when they fire: caught once,
        // up front, by the rule the HBM ledger applies.
        {"serve --tp 8 --loads 1.0,2.0 --requests 8 --blackout 200@1000",
         "no HBM channel 200 (128 channels)"},
        {"serve --blackout 3@1000 --blackout 3@2000",
         "HBM channel 3 already dark"},
        {"comm --jsno x.json", "unknown flag '--jsno'"},
        // tp 9 and 10 reach the octo node's EPYC hosts, tp 16 runs
        // off its endpoints.
        {"serve --tp 9", "tp 9 exceeds the 8 accelerators"},
        {"serve --tp 10", "tp 10 exceeds the 8 accelerators"},
        {"serve --tp 16", "tp 16 exceeds the 8 accelerators"},
        {"serve --tp 0", "tp/token_budget/max_batch/block_tokens must "
                         "be nonzero"},
        {"serve --loads 0", "arrival rate must be positive, got 0"},
        {"serve --max-batch 0", "tp/token_budget/max_batch/"
                                "block_tokens must be nonzero"},
        {"serve --token-budget 0", "tp/token_budget/max_batch/"
                                   "block_tokens must be nonzero"},
        {"serve --input-tokens 0", "mean token counts must be nonzero"},
        // TP 1 has no comm group or fabric for these to hit.
        {"serve --tp 1 --error-rate 0.03",
         "tp 1 has no comm group for a chunk error rate"},
        {"serve --tp 1 --kill mi300x0:mi300x1@1000",
         "tp 1 has no node fabric for link faults"},
        // serve runs on the serial kernel only.
        {"serve --pdes 2", "unknown flag '--pdes'"},
    };
    for (const auto &c : cases) {
        const auto res = runCli(c.args, "malformed");
        EXPECT_EQ(res.exit_code, 2) << c.args << "\n" << res.stderr_text;
        const auto first = res.stderr_text.find(c.stderr_has);
        EXPECT_NE(first, std::string::npos)
            << c.args << "\n" << res.stderr_text;
        EXPECT_EQ(res.stderr_text.find(c.stderr_has, first + 1),
                  std::string::npos)
            << c.args << ": reported more than once\n"
            << res.stderr_text;
    }
}

TEST(CliComm, ForkedWarmupSweepIsByteIdentical)
{
    const std::string common =
        "comm --topology octo --collective all_reduce "
        "--algos ring,direct --sizes 1M,4M --warmup 2 ";
    const auto straight =
        runCli(common + "--json cli_test_straight.json", "straight");
    ASSERT_EQ(straight.exit_code, 0) << straight.stderr_text;
    const auto forked = runCli(
        common + "--fork --jobs 4 --json cli_test_fork.json", "fork");
    ASSERT_EQ(forked.exit_code, 0) << forked.stderr_text;

    EXPECT_EQ(slurp("cli_test_straight.json"),
              slurp("cli_test_fork.json"));
    std::remove("cli_test_straight.json");
    std::remove("cli_test_fork.json");
}

TEST(CliComm, CheckpointFileSavesThenLoads)
{
    std::remove("cli_test_warm.ckpt");
    const std::string common =
        "comm --topology octo --algos ring --sizes 1M --warmup 2 "
        "--fork --checkpoint cli_test_warm.ckpt ";
    const auto save =
        runCli(common + "--json cli_test_c1.json", "ckpt_save");
    ASSERT_EQ(save.exit_code, 0) << save.stderr_text;
    EXPECT_NE(save.stderr_text.find("checkpoint saved"),
              std::string::npos)
        << save.stderr_text;

    const auto load =
        runCli(common + "--json cli_test_c2.json", "ckpt_load");
    ASSERT_EQ(load.exit_code, 0) << load.stderr_text;
    EXPECT_NE(load.stderr_text.find("loading warmup checkpoint"),
              std::string::npos)
        << load.stderr_text;

    EXPECT_EQ(slurp("cli_test_c1.json"), slurp("cli_test_c2.json"));
    std::remove("cli_test_warm.ckpt");
    std::remove("cli_test_c1.json");
    std::remove("cli_test_c2.json");
}

TEST(CliComm, ForkWithoutWarmupIsRejected)
{
    const auto res = runCli(
        "comm --topology octo --algos ring --sizes 1M --fork",
        "fork_bare");
    EXPECT_NE(res.exit_code, 0);
    EXPECT_NE(res.stderr_text.find("--fork needs a warmup prefix"),
              std::string::npos)
        << res.stderr_text;
}

TEST(CliServe, CheckpointAtIsByteIdentical)
{
    const std::string common =
        "serve --devices mi300x --loads 1.0 --tp 2 --requests 6 "
        "--seed 42 --input-tokens 256 --output-tokens 32 ";
    const auto straight =
        runCli(common + "--json cli_test_s1.json", "serve_straight");
    ASSERT_EQ(straight.exit_code, 0) << straight.stderr_text;
    const auto forked = runCli(common +
                                   "--checkpoint-at 500000000000 "
                                   "--json cli_test_s2.json",
                               "serve_ckpt");
    ASSERT_EQ(forked.exit_code, 0) << forked.stderr_text;

    EXPECT_EQ(slurp("cli_test_s1.json"), slurp("cli_test_s2.json"));
    std::remove("cli_test_s1.json");
    std::remove("cli_test_s2.json");
}
