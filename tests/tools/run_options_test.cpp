// Unit tests for the run options every front end shares
// (tools/run_options.h): the strict parser of the common flags, the
// interval rule, the usage text and the artifact writer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "obs/timeseries.h"
#include "tools/run_options.h"

namespace hn::tools {
namespace {

constexpr RunFlag kEveryFlag[] = {
    kJobsFlag,         kCoresFlag,         kMetricsOutFlag, kTraceOutFlag,
    kSampleCyclesFlag, kTimeseriesOutFlag, kProfileFlag,    kSnapshotBootFlag};

/// One argument of each common flag, in kEveryFlag order.
constexpr const char* kEveryArg[] = {
    "--jobs=3",          "--cores=2",         "--metrics-out=m.json",
    "--trace-out=t.trace", "--sample-cycles=4096", "--timeseries-out=t.ts",
    "--profile",         "--snapshot-boot"};

RunOptions parse_all(std::initializer_list<const char*> args,
                     unsigned accepted = kAllRunFlags) {
  RunOptions opts;
  for (const char* arg : args) {
    EXPECT_EQ(consume_run_flag(arg, accepted, &opts), FlagResult::kConsumed)
        << arg;
  }
  return opts;
}

TEST(RunOptions, EveryCommonFlagRoundTrips) {
  RunOptions opts;
  for (const char* arg : kEveryArg) {
    ASSERT_EQ(consume_run_flag(arg, kAllRunFlags, &opts),
              FlagResult::kConsumed)
        << arg;
  }
  EXPECT_EQ(opts.jobs, 3u);
  EXPECT_EQ(opts.cores, 2u);
  EXPECT_EQ(opts.metrics_out, "m.json");
  EXPECT_EQ(opts.trace_out, "t.trace");
  EXPECT_EQ(opts.sample_cycles, 4096u);
  EXPECT_EQ(opts.timeseries_out, "t.ts");
  EXPECT_TRUE(opts.profile);
  EXPECT_TRUE(opts.snapshot_boot);

  const RunOptions defaults;
  EXPECT_EQ(defaults.jobs, 0u);  // hardware concurrency
  EXPECT_EQ(defaults.cores, 1u);
  EXPECT_EQ(defaults.sample_cycles, 0u);
  EXPECT_FALSE(defaults.profile || defaults.snapshot_boot);
}

TEST(RunOptions, IntervalRuleIgnoresFlagOrder) {
  const Cycles kDefault = obs::kDefaultSampleCycles;
  EXPECT_EQ(parse_all({}).sample_cycles, 0u);
  EXPECT_EQ(parse_all({"--sample-cycles"}).sample_cycles, kDefault);
  EXPECT_EQ(parse_all({"--sample-cycles=0"}).sample_cycles, 0u);
  EXPECT_EQ(parse_all({"--timeseries-out=t.ts"}).sample_cycles, kDefault);
  const struct {
    const char* sample;
    Cycles want;
  } kCases[] = {{"--sample-cycles=4096", 4096},
                {"--sample-cycles=0", kDefault},
                {"--sample-cycles", kDefault}};
  for (const auto& [sample, want] : kCases) {
    EXPECT_EQ(parse_all({sample, "--timeseries-out=t.ts"}).sample_cycles,
              want)
        << sample << " first";
    EXPECT_EQ(parse_all({"--timeseries-out=t.ts", sample}).sample_cycles,
              want)
        << sample << " last";
  }
}

TEST(RunOptions, FlagOutsideAcceptedIsNotConsumed) {
  for (size_t i = 0; i < std::size(kEveryFlag); ++i) {
    RunOptions opts;
    EXPECT_EQ(consume_run_flag(kEveryArg[i], kAllRunFlags & ~kEveryFlag[i],
                               &opts),
              FlagResult::kNotConsumed)
        << kEveryArg[i];
    EXPECT_EQ(consume_run_flag(kEveryArg[i], kEveryFlag[i], &opts),
              FlagResult::kConsumed)
        << kEveryArg[i];
  }
  // Front-end flags, bare value flags and valued switches are not
  // common flags at all.
  for (const char* arg : {"--seed=1", "--out=x", "--jobs", "--cores",
                          "--metrics-out", "--profile=1", "--jobsx=2"}) {
    RunOptions opts;
    EXPECT_EQ(consume_run_flag(arg, kAllRunFlags, &opts),
              FlagResult::kNotConsumed)
        << arg;
  }
}

TEST(RunOptions, OutOfRangeCountsAreUsageErrors) {
  for (const char* arg : {"--cores=0", "--cores=9", "--jobs=257",
                          "--jobs=4294967296", "--jobs=-1", "--cores=",
                          "--sample-cycles=x"}) {
    RunOptions opts;
    EXPECT_EQ(consume_run_flag(arg, kAllRunFlags, &opts),
              FlagResult::kUsageError)
        << arg;
  }
  const RunOptions bounds =
      parse_all({"--cores=1", "--cores=8", "--jobs=0", "--jobs=256"});
  EXPECT_EQ(bounds.cores, kMaxCores);
  EXPECT_EQ(bounds.jobs, kMaxJobs);
}

TEST(RunOptions, FlagValueMatchesWholeName) {
  EXPECT_STREQ(flag_value("--out=a=b", "--out"), "a=b");
  EXPECT_STREQ(flag_value("--out=", "--out"), "");
  EXPECT_EQ(flag_value("--out", "--out"), nullptr);
  EXPECT_EQ(flag_value("--outx=1", "--out"), nullptr);
  EXPECT_EQ(flag_value("--ou=1", "--out"), nullptr);
}

TEST(RunOptions, UsageListsExactlyTheAcceptedFlags) {
  const char* kNames[] = {"--jobs=",          "--cores=",
                          "--metrics-out=",   "--trace-out=",
                          "--sample-cycles[", "--timeseries-out=",
                          "--profile",        "--snapshot-boot"};
  for (size_t i = 0; i < std::size(kEveryFlag); ++i) {
    const std::string all = run_flags_usage(kAllRunFlags);
    const std::string without = run_flags_usage(kAllRunFlags & ~kEveryFlag[i]);
    EXPECT_NE(all.find(kNames[i]), std::string::npos) << kNames[i];
    EXPECT_EQ(without.find(kNames[i]), std::string::npos) << kNames[i];
  }
  EXPECT_EQ(run_flags_usage(0), "");
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(RunOptions, WriteArtifactsWritesWhatWasAskedAndReportsFailures) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "run_options_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<u8> trace = {'H', 'N', 1, 2};
  const std::vector<u8> stream = {'T', 'S', 3};

  RunOptions opts;
  opts.trace_out = (dir / "t.trace").string();
  opts.timeseries_out = (dir / "t.ts").string();
  EXPECT_TRUE(write_artifacts(opts, {}, trace, stream, "test"));
  EXPECT_EQ(read_file(dir / "t.trace"), "HN\x01\x02");
  EXPECT_EQ(read_file(dir / "t.ts"), "TS\x03");
  EXPECT_FALSE(std::filesystem::exists(dir / "m.json"));  // not asked for

  // An empty blob is reported and skipped, not a failure.
  opts.trace_out = (dir / "empty.trace").string();
  EXPECT_TRUE(write_artifacts(opts, {}, {}, stream, "test"));
  EXPECT_FALSE(std::filesystem::exists(dir / "empty.trace"));

  // One failed write fails the call; the other files are still written.
  opts.metrics_out = (dir / "no-such-dir" / "m.json").string();
  opts.trace_out = (dir / "again.trace").string();
  EXPECT_FALSE(write_artifacts(opts, {}, trace, stream, "test"));
  EXPECT_TRUE(std::filesystem::exists(dir / "again.trace"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hn::tools
