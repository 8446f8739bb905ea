// Scenario tests: acr_driver's flag parser (every value it rejects, and
// the xor/rs(1) spelling) and the job runner behind it.
#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "acr/scenario.h"

namespace acr {
namespace {

/// Parses `args` (space-separated) as acr_driver's command line.
std::optional<DriverFlags> parse(const std::string& args, std::string* error) {
  std::vector<std::string> words;
  std::istringstream in(args);
  for (std::string w; in >> w;) words.push_back(w);
  std::vector<const char*> argv = {"acr_driver"};
  for (const std::string& w : words) argv.push_back(w.c_str());
  return parse_driver_flags(static_cast<int>(argv.size()), argv.data(), error);
}

struct Rejection {
  const char* args;
  /// A fragment of the one error line that names the offending flag.
  const char* names;
};

// A row's test name is its command line.
void PrintTo(const Rejection& row, std::ostream* os) { *os << row.args; }

// One row per value the driver rejects. The first block are the checks
// that print a message of the driver's own; validate_tier_config and
// validate_redundancy_config word theirs without the dashes. The last
// block are the values that once aborted, ran on for ever, or were read
// as "off".
const Rejection kRejections[] = {
    {"--net-loss=1.5", "--net-loss=1.5 outside [0, 1]"},
    {"--net-dup=-0.1", "--net-dup=-0.1 outside [0, 1]"},
    {"--net-reorder=2", "--net-reorder=2 outside [0, 1]"},
    {"--net-corrupt=-1", "--net-corrupt=-1 outside [0, 1]"},
    {"--net-retry-budget=0", "--net-retry-budget=0 must be >= 1"},
    {"--burst-follow=1.5", "--burst-follow=1.5 outside [0, 1]"},
    {"--burst-window=-1", "--burst-window=-1 must be >= 0"},
    {"--burst-domain=0", "--burst-domain=0 must be >= 1"},
    {"--spare-repair-time=-1", "--spare-repair-time=-1 must be >= 0"},
    {"--l2-bandwidth=-1", "--l2-bandwidth=-1 must be >= 0"},
    {"--l2-latency=1e-4", "--l2-latency requires --l2-bandwidth > 0"},
    {"--flush-interval=2", "--flush-interval requires --l2-bandwidth > 0"},
    {"--halt-after=0.1", "--halt-after drains to the durable tier"},
    {"--l2-bandwidth=2e9 --l2-latency=-1", "--l2-latency=-1 must be >= 0"},
    {"--l2-bandwidth=2e9 --flush-interval=0",
     "--flush-interval=0 must be >= 1"},
    {"--l2-bandwidth=2e9 --halt-after=-1", "--halt-after=-1 must be >= 0"},
    {"--xor-group-size=4", "--xor-group-size only applies"},
    {"--ckpt-scheme=xor --rs-parity=2", "--rs-parity only applies"},
    {"--ckpt-scheme=rs --xor-group-size=1", "--xor-group-size=1 must be >= 2"},
    {"--ckpt-scheme=rs --nodes=2", "--xor-group-size=4 exceeds --nodes=2"},
    {"--ckpt-scheme=rs --rs-parity=0", "--rs-parity=0 must be >= 1"},
    // validate_tier_config: a NaN bandwidth passes the driver's own checks.
    {"--l2-bandwidth=nan --halt-after=0.1",
     "halt-after drains to the durable tier; it requires l2 bandwidth"},
    // validate_redundancy_config.
    {"--ckpt-scheme=rs --rs-parity=4", "rs parity must be smaller"},
    {"--ckpt-scheme=rs --xor-group-size=255 --nodes=256",
     "rs group size + parity must fit"},
    {"--ckpt-scheme=rs --scheme=medium",
     "rs redundancy requires the strong resilience scheme"},
    {"--ckpt-scheme=local --scheme=weak",
     "local redundancy cannot serve the medium/weak resilience schemes"},
    // Once aborted (uncaught RequireError), ran on, or read as "off".
    {"--app=hpccg --nodes=6", "--nodes=6 must be a power of two"},
    {"--app=lulesh --nodes=3", "--nodes=3 must be a power of two"},
    {"--nodes=0", "--nodes=0 must be >= 1"},
    {"--spares=-1", "--spares=-1 must be >= 0"},
    {"--interval=0", "--interval=0 must be > 0"},
    {"--iterations=-5", "--iterations=-5 must be >= 0"},
    {"--sdc-fraction=1.5", "--sdc-fraction=1.5 outside [0, 1]"},
    {"--predictor-recall=2", "--predictor-recall=2 outside [0, 1]"},
    {"--fault-mtbf=-1", "--fault-mtbf=-1 must be >= 0"},
    {"--burst-mtbf=-1", "--burst-mtbf=-1 must be >= 0"},
    {"--weibull-shape=-1", "--weibull-shape=-1 must be >= 0"},
    {"--burst-shape=-1", "--burst-shape=-1 must be >= 0"},
};

class DriverFlagRejection : public ::testing::TestWithParam<Rejection> {};

TEST_P(DriverFlagRejection, PrintsOneErrorNamingTheFlag) {
  const Rejection& row = GetParam();
  std::string error;
  EXPECT_FALSE(parse(row.args, &error).has_value()) << row.args;
  EXPECT_EQ(error.rfind("error: ", 0), 0u) << row.args << ": " << error;
  EXPECT_NE(error.find(row.names), std::string::npos)
      << row.args << ": " << error;
  EXPECT_EQ(error.find('\n'), std::string::npos) << error;
}

INSTANTIATE_TEST_SUITE_P(Table, DriverFlagRejection,
                         ::testing::ValuesIn(kRejections),
                         [](const auto& info) {
                           std::string name;
                           for (char c : std::string(info.param.args))
                             name += std::isalnum(c) ? c : '_';
                           return name;
                         });

TEST(DriverFlags, EveryAppKeepsItsNodeCount) {
  for (const char* app : {"jacobi", "hpccg", "lulesh", "leanmd", "minimd"}) {
    std::string error;
    std::optional<DriverFlags> flags =
        parse(std::string("--nodes=16 --app=") + app, &error);
    ASSERT_TRUE(flags.has_value()) << app << ": " << error;
    EXPECT_STREQ(app_flag_name(flags->scenario.app), app);
    EXPECT_EQ(flags->scenario.nodes_per_replica(), 16) << app;
  }
}

// xor is the single-parity spelling of rs: the same configuration, and the
// same run to the event.
TEST(DriverFlags, XorParsesAsRsWithOneParityBlock) {
  const std::string common = " --nodes=8 --iterations=6 --fault-mtbf=0.02";
  std::string error;
  std::optional<DriverFlags> x = parse("--ckpt-scheme=xor" + common, &error);
  std::optional<DriverFlags> rs =
      parse("--ckpt-scheme=rs --rs-parity=1" + common, &error);
  ASSERT_TRUE(x && rs) << error;
  for (const Scenario* s : {&x->scenario, &rs->scenario}) {
    EXPECT_EQ(s->acr.redundancy, ckpt::Scheme::Rs);
    EXPECT_EQ(s->acr.rs_parity, 1);
    EXPECT_EQ(s->acr.xor_group_size, 4);
  }
  JobResult a = run(x->scenario);
  JobResult b = run(rs->scenario);
  EXPECT_EQ(a.summary.finish_time, b.summary.finish_time);
  EXPECT_EQ(a.summary.hard_failures, b.summary.hard_failures);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.runtime->trace().events().size(),
            b.runtime->trace().events().size());
}

// Scripted faults land at their own times, and a completed job's verified
// answer is the fault-free one.
TEST(ScenarioRun, ScriptedKillReachesTheCleanAnswer) {
  std::string error;
  std::optional<DriverFlags> flags = parse("--iterations=12", &error);
  ASSERT_TRUE(flags.has_value()) << error;
  JobResult clean = run(flags->scenario);
  Scenario s = flags->scenario;
  s.scripted = {failure::Fault::kill_role(0.005, 0, 3)};
  JobResult r = run(s);
  ASSERT_TRUE(clean.summary.complete && r.summary.complete);
  EXPECT_EQ(r.summary.hard_failures, 1u);
  EXPECT_NE(clean.digest, 0u);
  EXPECT_EQ(r.digest, clean.digest);
}

}  // namespace
}  // namespace acr
