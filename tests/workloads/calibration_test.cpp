// Calibration regression tests: pin the reproduced evaluation to the
// paper's shape so timing-model or kernel changes that silently break
// Table 1 / Table 2 fail loudly here.
//
// Tolerances are deliberately loose (the bands we claim in
// EXPERIMENTS.md), not exact-value golden tests: the simulation is
// deterministic, but the point is the *shape*, and legitimate model
// improvements should not require gold-file churn for every ±2%.
#include <gtest/gtest.h>

#include <memory>

#include "hypernel/system.h"
#include "secapps/object_monitor.h"
#include "workloads/apps.h"
#include "workloads/lmbench.h"

namespace hn::workloads {
namespace {

using hypernel::Mode;
using hypernel::System;
using hypernel::SystemConfig;

std::unique_ptr<System> make_perf(Mode mode) {
  SystemConfig cfg;
  cfg.mode = mode;
  cfg.enable_mbm = false;
  auto r = System::create(cfg);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

struct PaperRow {
  const char* name;
  double native;
};
// Table 1's native column — the calibration target.
constexpr PaperRow kPaperNative[] = {
    {"syscall stat", 1.92}, {"signal install", 0.68}, {"signal ovh", 2.96},
    {"pipe lat", 10.07},    {"socket lat", 13.76},    {"fork+exit", 271.68},
    {"fork+execv", 285.53}, {"page fault", 1.57},     {"mmap", 24.60},
};

TEST(Calibration, Table1NativeWithinTwelvePercent) {
  // 64 iterations to amortise warm-up, as the bench binary uses.
  auto sys = make_perf(Mode::kNative);
  LmbenchSuite suite(*sys, 64);
  const auto results = suite.run_all();
  ASSERT_EQ(results.size(), 9u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_NEAR(results[i].us / kPaperNative[i].native, 1.0, 0.12)
        << results[i].name << ": " << results[i].us << " vs paper "
        << kPaperNative[i].native;
  }
}

TEST(Calibration, Table1AverageSlowdownsInBand) {
  double us[3][9];
  const Mode modes[3] = {Mode::kNative, Mode::kKvmGuest, Mode::kHypernel};
  for (int m = 0; m < 3; ++m) {
    auto sys = make_perf(modes[m]);
    LmbenchSuite suite(*sys, 32);
    const auto results = suite.run_all();
    for (size_t i = 0; i < 9; ++i) us[m][i] = results[i].us;
  }
  double kvm = 0;
  double hyper = 0;
  for (size_t i = 0; i < 9; ++i) {
    kvm += us[1][i] / us[0][i] - 1.0;
    hyper += us[2][i] / us[0][i] - 1.0;
    // Per-row ordering: native is never the slowest configuration.
    EXPECT_GE(us[1][i], us[0][i] * 0.99) << kPaperNative[i].name;
    EXPECT_GE(us[2][i], us[0][i] * 0.99) << kPaperNative[i].name;
  }
  kvm = 100.0 * kvm / 9;
  hyper = 100.0 * hyper / 9;
  // Paper: 15.5% and 8.8%.  Accept the bands we report in EXPERIMENTS.md.
  EXPECT_GT(kvm, 10.0);
  EXPECT_LT(kvm, 22.0);
  EXPECT_GT(hyper, 6.0);
  EXPECT_LT(hyper, 15.0);
  // Hypernel beats nested paging on average — the paper's thesis.
  EXPECT_LT(hyper, kvm);
}

TEST(Calibration, Fig6AverageOverheadsInBand) {
  double overhead[2] = {0, 0};
  double native_us[5];
  for (int a = 0; a < 5; ++a) {
    auto sys = make_perf(Mode::kNative);
    AppParams p;
    p.scale = 0.1;
    native_us[a] = run_app_by_name(*sys, kAppNames[a], p).us;
  }
  const Mode modes[2] = {Mode::kKvmGuest, Mode::kHypernel};
  for (int m = 0; m < 2; ++m) {
    for (int a = 0; a < 5; ++a) {
      auto sys = make_perf(modes[m]);
      AppParams p;
      p.scale = 0.1;
      overhead[m] +=
          run_app_by_name(*sys, kAppNames[a], p).us / native_us[a] - 1.0;
    }
    overhead[m] = 100.0 * overhead[m] / 5;
  }
  // Paper: 13.5% / 3.1%.
  EXPECT_GT(overhead[0], 6.0);
  EXPECT_LT(overhead[0], 22.0);
  EXPECT_GT(overhead[1], 1.0);
  EXPECT_LT(overhead[1], 7.0);
  EXPECT_LT(overhead[1], overhead[0] / 2);  // Hypernel at least 2x cheaper
}

TEST(Calibration, Table2RatiosInBand) {
  for (const char* app : kAppNames) {
    u64 counts[2];
    const secapps::Granularity gran[2] = {
        secapps::Granularity::kWholeObject,
        secapps::Granularity::kSensitiveFields};
    for (int g = 0; g < 2; ++g) {
      SystemConfig cfg;
      cfg.mode = Mode::kHypernel;
      cfg.enable_mbm = true;
      auto sys = System::create(cfg).value();
      secapps::ObjectIntegrityMonitor monitor(*sys, gran[g]);
      ASSERT_TRUE(monitor.install().ok());
      AppParams p;
      p.scale = 0.1;
      run_app_by_name(*sys, app, p);
      counts[g] = sys->mbm()->stats().detections;
    }
    ASSERT_GT(counts[0], 0u) << app;
    const double ratio = 100.0 * counts[1] / counts[0];
    // Paper's per-benchmark band: 3.6% - 9.2%; accept 2% - 15%.
    EXPECT_GT(ratio, 2.0) << app;
    EXPECT_LT(ratio, 15.0) << app;
  }
}

}  // namespace
}  // namespace hn::workloads
