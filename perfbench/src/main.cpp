// perfbench: the repository benchmark binary.  perfbench/run.py builds and
// drives it; see perfbench/README.md for what each workload and metric
// means.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--report=FILE] [--spans-out=FILE]
//
// Prints one JSON object as its last stdout line: the end-to-end metrics
// (--trace=0) or the per-layer metrics (--trace=1).  --report writes every
// metric of the run, raw and normalized, for the self-check.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "refloop.h"
#include "workloads.h"

namespace {

using perfbench::Phase;
using perfbench::u64;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string report;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=fuzz_campaign|"
               "paper_overhead|mbm_monitoring --seed=N --seconds=S "
               "--trace=0|1 [--report=FILE] [--spans-out=FILE]\n",
               why);
  std::exit(2);
}

/// Strict unsigned parse: digits only, no overflow.
u64 parse_u64(const char* text) {
  if (*text == '\0') usage("empty number");
  u64 v = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') usage("not a number");
    const auto digit = static_cast<u64>(*p - '0');
    if (v > (~u64{0} - digit) / 10) usage("number out of range");
    v = v * 10 + digit;
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    if (eq == std::string::npos) usage("arguments take the form --key=value");
    const char* value = argv[i] + eq + 1;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = parse_u64(value);
    } else if (key == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(value));
    } else if (key == "--trace") {
      const u64 t = parse_u64(value);
      if (t > 1) usage("--trace takes 0 or 1");
      a.trace = t == 1;
    } else if (key == "--report") {
      a.report = value;
    } else if (key == "--spans-out") {
      a.spans_out = value;
    } else {
      usage("unknown argument");
    }
  }
  if (a.workload != "fuzz_campaign" && a.workload != "paper_overhead" &&
      a.workload != "mbm_monitoring") {
    usage("unknown workload");
  }
  if (a.seconds < 1) usage("--seconds must be at least 1");
  return a;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

/// Speed factor of a phase: nominal / measured reference chunk time.
/// Multiplying a raw host time by it gives the normalized time.
double speed_factor(const Phase& p) {
  const double ref = quantile(p.ref_ms, 0.5);
  return ref > 0 ? perfbench::kNominalChunkMs / ref : 1.0;
}

double raw_execs_per_s(const Phase& p) {
  const double ms = sum(p.item_ms);
  return ms > 0 ? 1000.0 * static_cast<double>(p.item_ms.size()) / ms : 0;
}

double norm_execs_per_s(const Phase& p) {
  return raw_execs_per_s(p) / speed_factor(p);
}

double pct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0;
}

double get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), std::isfinite(value) ? value : 0,
                      std::move(unit)});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
      out += (i == 0 ? "\"" : ", \"") + items_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> items_;
};

/// End-to-end metrics: untraced phase + the paper check.
void end_to_end(Metrics& m, const Phase& u, const perfbench::PaperCheck& check,
                double peak_rss_mb, u64 attempted, u64 failed) {
  const perfbench::PaperResults& r = check.results;
  m.add("execs_per_s", norm_execs_per_s(u), "1/s");
  m.add("setup_s", quantile(u.setup_ms, 0.5) * speed_factor(u) / 1000.0, "s");
  m.add("peak_rss_mb", peak_rss_mb, "MB");
  m.add("ok_frac",
        attempted == 0 ? 0
                       : static_cast<double>(attempted - failed) /
                             static_cast<double>(attempted),
        "fraction");
  m.add("hypernel_overhead_pct", r.hypernel_overhead_pct(), "%");
  m.add("paper_err_pct", r.paper_err_pct(), "%");
  m.add("mbm_word_trap_pct", r.mbm_word_trap_pct(), "%");
  std::vector<double> latencies;
  for (const u64 c : r.detect_cycles) latencies.push_back(static_cast<double>(c));
  m.add("detect_cycles_p50", quantile(latencies, 0.5), "cycles");
  m.add("detect_cycles_max", quantile(latencies, 1.0), "cycles");
}

/// Per-layer metrics: traced phase `t` (its untraced sibling `u` gives the
/// trace overhead) + the paper check's exact counts.
void per_layer(Metrics& m, const Phase& u, const Phase& t,
               const perfbench::PaperCheck& check) {
  const perfbench::PaperResults& r = check.results;
  const double f = speed_factor(t);
  const double item_total = sum(t.item_ms);

  // Harness diagnostics.
  m.add("bench.ref_loop_ms", quantile(t.ref_ms, 0.5), "ms");
  m.add("bench.speed_factor", f, "ratio");
  m.add("bench.raw_execs_per_s", raw_execs_per_s(t), "1/s");
  m.add("bench.norm_execs_per_s", norm_execs_per_s(t), "1/s");
  m.add("bench.trace_overhead_pct",
        100.0 * (norm_execs_per_s(u) / norm_execs_per_s(t) - 1.0), "%");
  m.add("setup.raw_ms", quantile(t.setup_ms, 0.5), "ms");
  m.add("setup.repeats", static_cast<double>(t.setup_ms.size()), "count");

  // Per-item host latency, normalized; the tail is the highest percentile
  // with at least ten samples beyond it, capped at p99.
  const auto n = static_cast<double>(t.item_ms.size());
  const double tail_q = n >= 1000 ? 0.99 : std::max(0.5, 1.0 - 10.0 / n);
  m.add("item.count", n, "count");
  m.add("item.ms_p50", quantile(t.item_ms, 0.5) * f, "ms");
  m.add("item.ms_tail", quantile(t.item_ms, tail_q) * f, "ms");
  m.add("item.tail_pct", 100.0 * tail_q, "%");

  // Host self-time split (the library's profiler, enabled for the run).
  const double prof_total = static_cast<double>(t.profile.total_ns());
  for (unsigned b = 0; b < hn::obs::ProfileReport::kBuckets; ++b) {
    m.add(std::string("profile.") +
              hn::obs::profile_bucket_name(static_cast<hn::obs::ProfileBucket>(b)) +
              "_pct",
          pct(static_cast<double>(t.profile.self_ns[b]), prof_total), "%");
  }

  // fuzz: share of item time per call, from the spans.
  const std::map<std::string, double> spans = t.spans.totals_ms();
  const double fuzz_item = get(spans, "fuzz.item");
  double covered = 0;
  for (const char* part :
       {"generate", "run.native", "run.kvm", "run.hypernel_word",
        "run.hypernel_object", "run.reference_rerun", "oracle"}) {
    const double ms = get(spans, std::string("fuzz.") + part);
    covered += ms;
    std::string name = std::string("fuzz.") + part;
    if (name.rfind("fuzz.run.", 0) == 0) {
      name = "fuzz.run_pct." + name.substr(9);
    } else {
      name += "_pct";
    }
    m.add(name, pct(ms, fuzz_item), "%");
  }
  m.add("fuzz.span_coverage_pct", pct(covered, fuzz_item), "%");

  // hypernel: boots (set-up).
  m.add("hypernel.boot_ms", t.boots == 0 ? 0 : t.boot_ms / static_cast<double>(t.boots) * f,
        "ms");
  m.add("hypernel.boot_count", static_cast<double>(t.boots), "count");

  // workloads / kernel / kvm: host share per mode, simulated throughput.
  double cycles_all = 0;
  double host_all = 0;
  for (const char* mode : perfbench::kModeSlugs) {
    m.add(std::string("lmbench.host_pct.") + mode,
          pct(get(t.host_ms, std::string("lmbench.") + mode), item_total), "%");
    m.add(std::string("apps.host_pct.") + mode,
          pct(get(t.host_ms, std::string("apps.") + mode), item_total), "%");
    const double cycles = get(t.sim_cycles, mode);
    const double host = get(t.sim_host_ms, mode);
    cycles_all += cycles;
    host_all += host;
    m.add(std::string("sim.mcycles_per_s.") + mode,
          host > 0 ? cycles / (host * f / 1000.0) / 1e6 : 0, "Mcycles/s");
  }
  m.add("sim.mcycles_per_s",
        host_all > 0 ? cycles_all / (host_all * f / 1000.0) / 1e6 : 0,
        "Mcycles/s");

  // sim / kvm / hypersec: exact simulated counts of the paper check.
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;
  u64 s1 = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    m.add(std::string("sim.mcycles.") + perfbench::kModeSlugs[i],
          static_cast<double>(r.counters[i].cycles) / 1e6, "Mcycles");
    tlb_hits += r.counters[i].tlb_hits;
    tlb_misses += r.counters[i].tlb_misses;
    s1 += r.counters[i].s1_fetches;
  }
  m.add("sim.tlb_miss_ratio",
        tlb_hits + tlb_misses == 0
            ? 0
            : static_cast<double>(tlb_misses) /
                  static_cast<double>(tlb_hits + tlb_misses),
        "ratio");
  m.add("sim.s1_fetches", static_cast<double>(s1), "count");
  m.add("kvm.s2_fetches", static_cast<double>(r.counters[1].s2_fetches), "count");
  m.add("kvm.vm_exits", static_cast<double>(r.counters[1].vm_exits), "count");
  m.add("hypersec.hvc_calls", static_cast<double>(r.counters[2].hvc_calls), "count");
  m.add("hypersec.tvm_traps", static_cast<double>(r.counters[2].tvm_traps), "count");

  // mbm / hypersec / secapps: Table 2 cells of the paper check.
  perfbench::MbmCell gran[2];
  for (const auto& row : r.t2) {
    for (std::size_t g = 0; g < 2; ++g) {
      gran[g].snooped_writes += row[g].snooped_writes;
      gran[g].detections += row[g].detections;
      gran[g].bitmap_cache_hits += row[g].bitmap_cache_hits;
      gran[g].bitmap_cache_misses += row[g].bitmap_cache_misses;
      gran[g].fifo_wait_cycles += row[g].fifo_wait_cycles;
      gran[g].fifo_drops += row[g].fifo_drops;
      gran[g].events_dispatched += row[g].events_dispatched;
    }
  }
  const char* gran_slug[2] = {"page", "word"};
  for (std::size_t g = 0; g < 2; ++g) {
    m.add(std::string("mbm.snooped_writes.") + gran_slug[g],
          static_cast<double>(gran[g].snooped_writes), "count");
    m.add(std::string("mbm.detections.") + gran_slug[g],
          static_cast<double>(gran[g].detections), "count");
  }
  const double bc_hits =
      static_cast<double>(gran[0].bitmap_cache_hits + gran[1].bitmap_cache_hits);
  const double bc_all =
      bc_hits + static_cast<double>(gran[0].bitmap_cache_misses +
                                    gran[1].bitmap_cache_misses);
  m.add("mbm.bitmap_cache_hit_ratio", bc_all > 0 ? bc_hits / bc_all : 0, "ratio");
  m.add("mbm.fifo_wait_cycles",
        static_cast<double>(gran[0].fifo_wait_cycles + gran[1].fifo_wait_cycles),
        "cycles");
  m.add("mbm.fifo_drops", static_cast<double>(gran[0].fifo_drops + gran[1].fifo_drops),
        "count");
  m.add("hypersec.events_dispatched",
        static_cast<double>(gran[0].events_dispatched + gran[1].events_dispatched),
        "count");
  // Host cost of the detection path: the page and word cells run the same
  // app with the same snoop traffic, so their time difference divided by
  // their detection difference isolates it.  Reported as a rate.
  const double extra_ms = (t.t2_host_ms[0] - t.t2_host_ms[1]) * f;
  const double extra_det =
      static_cast<double>(t.t2_detections[0]) - static_cast<double>(t.t2_detections[1]);
  m.add("mbm.detections_per_host_ms", extra_ms > 0 ? extra_det / extra_ms : 0, "1/ms");
  m.add("mbm.host_pct.page", pct(get(t.host_ms, "mbm.page"), item_total), "%");
  m.add("mbm.host_pct.word", pct(get(t.host_ms, "mbm.word"), item_total), "%");
  m.add("secapps.install_pct", pct(t.install_ms, sum(t.setup_ms)), "%");

  // attacks: scorecard pass.
  m.add("attacks.host_pct", pct(get(t.host_ms, "attacks.scorecard"), item_total), "%");
  m.add("attacks.hits", static_cast<double>(r.scorecard_hits), "count");
  m.add("attacks.attributed_hits", static_cast<double>(r.scorecard_attributed),
        "count");
  m.add("attacks.false_positives", static_cast<double>(r.scorecard_false_positives),
        "count");
}

void run_phase(const Args& a, Phase& phase, double seconds) {
  if (a.workload == "fuzz_campaign") {
    perfbench::run_fuzz_phase(phase, a.seed, seconds);
  } else if (a.workload == "paper_overhead") {
    perfbench::run_paper_phase(phase, a.seed, seconds);
  } else {
    perfbench::run_mbm_phase(phase, a.seed, seconds);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);

  // The traced run measures an untraced half first, for the overhead.
  Phase untraced(/*is_traced=*/false);
  Phase traced(/*is_traced=*/true);
  run_phase(a, untraced, a.trace ? a.seconds / 2 : a.seconds);
  if (a.trace) run_phase(a, traced, a.seconds);

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  const double peak_rss_mb = static_cast<double>(usage_now.ru_maxrss) / 1024.0;

  const perfbench::PaperCheck check = perfbench::run_paper_check();
  // Repetition and tracing must not change the simulation: every timed
  // unit must match the check, and the traced fuzz sequences the untraced.
  perfbench::compare_sim(untraced, check.digests);
  perfbench::compare_sim(traced, check.digests);
  if (a.trace && a.workload == "fuzz_campaign") {
    std::map<std::string, u64> ref(untraced.sim.begin(), untraced.sim.end());
    perfbench::compare_sim(traced, ref);
  }

  const u64 attempted = untraced.attempted + traced.attempted + check.attempted;
  const u64 failed =
      std::min(attempted, untraced.failed + traced.failed + check.failed);
  for (const Phase* p : {&untraced, &traced}) {
    for (const std::string& e : p->errors) std::fprintf(stderr, "failure: %s\n", e.c_str());
  }
  for (const std::string& e : check.errors) {
    std::fprintf(stderr, "failure: paper check %s\n", e.c_str());
  }

  Metrics e2e;
  end_to_end(e2e, untraced, check, peak_rss_mb, attempted, failed);
  Metrics layers;
  per_layer(layers, untraced, a.trace ? traced : untraced, check);

  if (!a.report.empty()) {
    std::ofstream out(a.report);
    out << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
        << ", \"trace\": " << (a.trace ? 1 : 0)
        << ", \"untraced_items\": " << untraced.item_ms.size()
        << ", \"traced_items\": " << traced.item_ms.size()
        << ",\n \"end_to_end\": " << e2e.json()
        << ",\n \"per_layer\": " << layers.json();
    // Raw per-item and per-chunk times of the untraced phase, in order, so
    // normalization choices can be re-examined offline.
    for (const auto& [name, values] :
         {std::pair{"item_ms", &untraced.item_ms}, {"ref_ms", &untraced.ref_ms},
          {"setup_ms", &untraced.setup_ms}}) {
      out << ",\n \"" << name << "\": [";
      for (std::size_t i = 0; i < values->size(); ++i) {
        out << (i == 0 ? "" : ",") << (*values)[i];
      }
      out << "]";
    }
    out << ",\n \"item_tags\": [";
    for (std::size_t i = 0; i < untraced.item_tags.size(); ++i) {
      out << (i == 0 ? "\"" : ",\"") << untraced.item_tags[i] << "\"";
    }
    out << "]}\n";
  }
  if (a.trace && !a.spans_out.empty() && !traced.spans.write_jsonl(a.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans_out.c_str());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              (a.trace ? layers : e2e).json().c_str());
  return 0;
}
