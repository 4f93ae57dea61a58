// Snapshot fingerprint-invariance suite.
//
// The snapshot-boot executor path (--snapshot-boot) forks every case from
// a once-booted COW snapshot instead of building a fresh system.  The
// contract is absolute: results are *byte-identical* either way — same
// per-step records, same functional fingerprint, same cycle counts, same
// violations.  This suite enforces that contract over the whole regression
// corpus, in the host fast path and in reference mode, and extends it to
// the parallel campaign driver (the TSan job runs this file, so the
// concurrent per-worker fork path is raced for real under --jobs=4).
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "attacks/scenario.h"
#include "attacks/scorecard.h"
#include "fuzz/fuzzer.h"

namespace hn::fuzz {
namespace {

std::vector<u64> load_corpus() {
  std::ifstream in(std::string(FUZZ_CORPUS_DIR) + "/seeds.txt");
  EXPECT_TRUE(in.good()) << "corpus missing at " FUZZ_CORPUS_DIR;
  std::vector<u64> seeds;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    seeds.push_back(std::stoull(line));
  }
  return seeds;
}

/// Byte-level equality of two RunResults, with a field-precise failure
/// message: "fingerprints equal" is necessary but not sufficient — the
/// differential oracle also consumes every per-step record.
void expect_identical_runs(const RunResult& fresh, const RunResult& forked) {
  ASSERT_EQ(fresh.build_failed, forked.build_failed);
  EXPECT_EQ(fresh.build_error, forked.build_error);
  ASSERT_EQ(fresh.steps.size(), forked.steps.size());
  for (size_t i = 0; i < fresh.steps.size(); ++i) {
    EXPECT_EQ(fresh.steps[i].result, forked.steps[i].result) << "step " << i;
    EXPECT_EQ(fresh.steps[i].state_digest, forked.steps[i].state_digest)
        << "step " << i;
    EXPECT_EQ(fresh.steps[i].alerts, forked.steps[i].alerts) << "step " << i;
    EXPECT_EQ(fresh.steps[i].events, forked.steps[i].events) << "step " << i;
  }
  EXPECT_TRUE(fresh.fingerprint.functionally_equal(forked.fingerprint))
      << fresh.fingerprint.diff(forked.fingerprint);
  EXPECT_EQ(fresh.fingerprint.cycles, forked.fingerprint.cycles);
  EXPECT_EQ(fresh.fingerprint.monitor_events,
            forked.fingerprint.monitor_events);
  EXPECT_EQ(fresh.fingerprint.alerts, forked.fingerprint.alerts);
  EXPECT_EQ(fresh.violations, forked.violations);
  EXPECT_EQ(fresh.attacks_expected, forked.attacks_expected);
  // The scorecard evidence — per-tamper records and the flattened alert
  // log — must fork bit-identically too: the scorecard's latency and
  // attribution columns are built from exactly these.
  ASSERT_EQ(fresh.attacks.size(), forked.attacks.size());
  for (size_t i = 0; i < fresh.attacks.size(); ++i) {
    EXPECT_EQ(fresh.attacks[i].step, forked.attacks[i].step) << "attack " << i;
    EXPECT_EQ(fresh.attacks[i].kind, forked.attacks[i].kind) << "attack " << i;
    EXPECT_EQ(fresh.attacks[i].at, forked.attacks[i].at) << "attack " << i;
    EXPECT_EQ(fresh.attacks[i].expected, forked.attacks[i].expected)
        << "attack " << i;
  }
  ASSERT_EQ(fresh.alert_log.size(), forked.alert_log.size());
  for (size_t i = 0; i < fresh.alert_log.size(); ++i) {
    EXPECT_EQ(fresh.alert_log[i].detector, forked.alert_log[i].detector)
        << "alert " << i;
    EXPECT_EQ(fresh.alert_log[i].kind, forked.alert_log[i].kind)
        << "alert " << i;
    EXPECT_EQ(fresh.alert_log[i].pa, forked.alert_log[i].pa) << "alert " << i;
    EXPECT_EQ(fresh.alert_log[i].at, forked.alert_log[i].at) << "alert " << i;
  }
}

void run_corpus_invariance(bool host_fast_path) {
  const GeneratorOptions gen;
  ExecutorOptions fresh_boot;
  ExecutorOptions snapshot_boot;
  snapshot_boot.snapshot_boot = true;
  std::vector<FuzzConfigSpec> specs = build_matrix(/*full=*/false);
  for (FuzzConfigSpec& spec : specs) spec.host_fast_path = host_fast_path;
  // The zero-op program first: the fork point itself must equal a boot.
  std::vector<std::pair<std::string, std::vector<Op>>> programs = {
      {"zero-op program", {}}};
  for (const u64 seed : load_corpus()) {
    programs.emplace_back("seed " + std::to_string(seed),
                          generate_sequence(seed, gen));
  }
  for (const auto& [label, ops] : programs) {
    for (const FuzzConfigSpec& spec : specs) {
      SCOPED_TRACE(label + " config " + spec.name);
      expect_identical_runs(run_sequence(spec, ops, fresh_boot),
                            run_sequence(spec, ops, snapshot_boot));
    }
  }
}

TEST(SnapshotInvariance, CorpusFastPath) {
  run_corpus_invariance(/*host_fast_path=*/true);
}

TEST(SnapshotInvariance, CorpusReferenceMode) {
  run_corpus_invariance(/*host_fast_path=*/false);
}

TEST(SnapshotInvariance, RepeatedForksFromOneSessionStayIdentical) {
  // The per-thread boot session is reused across cases: case N runs on a
  // machine restored from the same snapshot case 0 used.  Re-running one
  // sequence many times through the session cache must be a fixed point.
  const std::vector<Op> ops = generate_sequence(load_corpus().front(),
                                                GeneratorOptions{});
  const FuzzConfigSpec spec = build_matrix(/*full=*/false).front();
  ExecutorOptions snapshot_boot;
  snapshot_boot.snapshot_boot = true;
  const RunResult fresh = run_sequence(spec, ops, ExecutorOptions{});
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    expect_identical_runs(fresh, run_sequence(spec, ops, snapshot_boot));
  }
}

TEST(SnapshotInvariance, ParallelSnapshotCampaignMatchesFreshBoot) {
  // Whole-campaign form of the same contract, and the TSan target for the
  // concurrent fork path: four workers forking every case from their
  // boot sessions must reproduce the serial fresh-boot corpus digest
  // bit for bit.
  FuzzOptions fresh;
  fresh.seed = 1;
  fresh.sequences = 12;
  fresh.jobs = 1;
  FuzzOptions forked = fresh;
  forked.jobs = 4;
  forked.snapshot_boot = true;
  const CampaignResult a = run_campaign(fresh);
  const CampaignResult b = run_campaign(forked);
  EXPECT_EQ(a.failures, 0u);
  EXPECT_EQ(b.failures, 0u);
  ASSERT_EQ(a.sequence_digests.size(), b.sequence_digests.size());
  for (size_t i = 0; i < a.sequence_digests.size(); ++i) {
    EXPECT_EQ(a.sequence_digests[i], b.sequence_digests[i]) << "sequence " << i;
  }
  EXPECT_EQ(a.corpus_digest, b.corpus_digest);
}

TEST(SnapshotInvariance, DetectorConfigsForkIdentically) {
  // The new detector configurations carry extra executor-owned state
  // (invariant checker's page set, CFI baselines) saved as separate blobs
  // next to the system snapshot.  Scorecard runs forked from boot
  // snapshots must be bit-identical to fresh boots — attack scenarios and
  // the benign probe alike.
  ExecutorOptions fresh_boot;
  ExecutorOptions snapshot_boot;
  snapshot_boot.snapshot_boot = true;
  std::vector<std::vector<Op>> programs = attacks::scenario_pool();
  programs.push_back(attacks::benign_workload());
  for (const FuzzConfigSpec& spec : attacks::detector_configs()) {
    for (size_t p = 0; p < programs.size(); ++p) {
      SCOPED_TRACE("config " + spec.name + " program " + std::to_string(p));
      expect_identical_runs(run_sequence(spec, programs[p], fresh_boot),
                            run_sequence(spec, programs[p], snapshot_boot));
    }
  }
}

TEST(SnapshotInvariance, SmpRunsForkIdentically) {
  // Two-core machines snapshot more state per core — register files,
  // TLBs, cycle accounts, the bus-arbiter clock, spinlock owners, pending
  // IPIs — and the cross-core scenarios exercise all of it: the fork op
  // lands the writer on core 1, the tamper happens mid-migration, and
  // the benign workload's switch-task ops bounce between runqueues.
  // Boot-forked runs must stay bit-identical through every step digest.
  ExecutorOptions fresh_boot;
  ExecutorOptions snapshot_boot;
  snapshot_boot.snapshot_boot = true;
  std::vector<std::vector<Op>> programs;
  for (const attacks::AttackScenario& s : attacks::smp_scenario_library()) {
    programs.push_back(s.ops);
  }
  programs.push_back(attacks::benign_workload());
  for (FuzzConfigSpec spec : attacks::detector_configs()) {
    spec.cores = 2;
    for (size_t p = 0; p < programs.size(); ++p) {
      SCOPED_TRACE("config " + spec.name + " program " + std::to_string(p));
      expect_identical_runs(run_sequence(spec, programs[p], fresh_boot),
                            run_sequence(spec, programs[p], snapshot_boot));
    }
  }
}

TEST(SnapshotInvariance, InstrumentedRunsFallBackToFreshBoot) {
  // Runs that need per-run host instrumentation ignore snapshot_boot (a
  // session machine's registry/recorder belongs to every case, not one).
  // The fallback must still be bit-identical — it *is* the fresh path.
  const std::vector<Op> ops = generate_sequence(load_corpus().front(),
                                                GeneratorOptions{});
  const FuzzConfigSpec spec = build_matrix(/*full=*/false).front();
  ExecutorOptions with_trace;
  with_trace.snapshot_boot = true;
  with_trace.capture_trace = true;
  const RunResult traced = run_sequence(spec, ops, with_trace);
  EXPECT_FALSE(traced.trace_blob.empty());
  ExecutorOptions plain_trace;
  plain_trace.capture_trace = true;
  EXPECT_EQ(traced.trace_blob, run_sequence(spec, ops, plain_trace).trace_blob);
}

}  // namespace
}  // namespace hn::fuzz
