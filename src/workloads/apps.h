// Application-benchmark models for Figure 6 (runtime overhead) and
// Table 2 (monitored-event counts): whetstone, dhrystone, untar, iozone,
// and an apache-like request server.
//
// We cannot run the real binaries on the simulated machine; each model
// issues the same *kinds and mix* of kernel activity the real program
// drives — compute vs syscalls, dentry-cache churn, page-cache writes,
// process creation, IPC — which is precisely what both experiments
// measure.  Every model is deterministic for a given seed.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "hypernel/system.h"

namespace hn::workloads {

struct AppResult {
  std::string name;
  Cycles cycles = 0;
  double us = 0;
};

/// Scale factor: 1.0 reproduces the paper-sized runs (Table 2 magnitudes);
/// tests use small fractions for speed.
struct AppParams {
  double scale = 1.0;
  u64 seed = 0x90DA'5EED;
};

/// CPU-bound synthetic FP benchmark: long compute phases, light kernel
/// noise (periodic stat + an occasional result tmpfile).
AppResult run_whetstone(hypernel::System& system, const AppParams& p = {});

/// CPU-bound integer/string benchmark: compute + user-memory traffic,
/// slightly more FS metadata noise than whetstone.
AppResult run_dhrystone(hypernel::System& system, const AppParams& p = {});

/// Archive extraction: thousands of file creations, page-cache writes,
/// per-file metadata syscalls, periodic scratch-buffer mmap churn — the
/// dentry-heavy worst case of Table 2.
AppResult run_untar(hypernel::System& system, const AppParams& p = {});

/// Filesystem I/O benchmark: large sequential writes/reads over one file,
/// a handful of auxiliary test files per phase.
AppResult run_iozone(hypernel::System& system, const AppParams& p = {});

/// Web-server model: per-request path lookup + file read + loopback
/// socket round trip + cred refcounting; every k-th request forks a CGI
/// child (fork+execve+exit).
AppResult run_apache(hypernel::System& system, const AppParams& p = {});

/// All five, in Table 2 order.
std::vector<AppResult> run_all_apps(hypernel::System& system,
                                    const AppParams& p = {});

/// The five app names, in Table 2 order.
inline constexpr const char* kAppNames[] = {"whetstone", "dhrystone", "untar",
                                            "iozone", "apache"};

/// Lookup by name (one of kAppNames).
AppResult run_app_by_name(hypernel::System& system, const std::string& name,
                          const AppParams& p = {});

}  // namespace hn::workloads
