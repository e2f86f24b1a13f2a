// hbmbench: the repository benchmark.  One process runs one workload for a
// wall-clock budget, checks every output it produces, prints each metric
// by name with its unit, and ends with one JSON result line:
//
//   hbmbench --workload campaign|tenants --seed N --seconds S
//            --trace 0|1 [--describe GIT_DESCRIBE]
//
// --trace 0 measures the end-to-end metrics with all telemetry off.
// --trace 1 first repeats that untraced measurement for half the budget,
// then spends the other half in traced iterations that time the layers
// from the outside (seams and public calls only) and prints how the layer
// times reconcile with the end-to-end time and what tracing cost.
//
// Every metric of perfbench/README.md is reported on every workload; a
// layer the workload does not exercise reads 0.  The workloads, the
// layer -> end-to-end map and the noise findings behind the run lengths
// are in perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "board/vcu128.hpp"
#include "chaos/chaos.hpp"
#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "core/parallel.hpp"
#include "core/reliability_tester.hpp"
#include "core/report.hpp"
#include "runtime/fleet.hpp"
#include "serve/plane.hpp"
#include "serve/tenant.hpp"
#include "telemetry/telemetry.hpp"

using namespace hbmvolt;

namespace {

// Every workload runs at two worker threads: on a shared 4-core host that
// is the widest fan-out whose timings repeat (see README.md).
constexpr unsigned kThreads = 2;
// Seed the reference outputs below were recorded at.
constexpr std::uint64_t kDefaultSeed = 1;
// Undervolted serving point of the tenants workload.
constexpr int kServeMv = 950;

// ---- Fixed work per iteration ----

// Tenants: fleet runs served by one board before it is rebuilt.
// Each rebuild is one set-up sample.
constexpr unsigned kRunsPerBoard = 3;
// Tenants: beats of demand per tenant per fleet run.
constexpr std::uint64_t kTenantBeats = 1 << 20;
constexpr unsigned kTenantCount = 8;
// Campaign set-up (board + Campaign construction) takes microseconds, so
// it is timed in batches of many set-ups, each batch ~20 ms long.
constexpr unsigned kSetupBatch = 2000;
// Minimum iterations per measured phase, whatever the budget.
constexpr unsigned kMinIterations = 3;

// ---- Reference outputs at kDefaultSeed ----
//
// A change that alters the model on purpose re-records these (run the
// workload at --seed 1 and copy the values it prints).
constexpr std::string_view kCampaignHeadline =
    R"(Headline numbers: paper vs this run
+--------------------------------+-------------------+-------------------+
| Quantity                       | Paper             | This run          |
+--------------------------------+-------------------+-------------------+
| Voltage guardband (of nominal) | ~19%              | 18.3%             |
| V_min (guardband floor)        | 0.98V             | 0.98V             |
| First faulty voltage           | 0.97V             | 0.97V             |
| V_critical (lowest working)    | 0.81V             | 0.81V             |
| Crash below V_critical         | yes               | yes               |
| Power savings at V_min         | 1.5x              | 1.50x             |
| Power savings at 0.85V         | 2.3x              | 2.32x             |
| Idle / full-load power         | ~0.33             | 0.33              |
| Stack fault-rate gap           | 13% (HBM0 better) | 13% (HBM0 better) |
| First 1->0 flip                | 0.97V             | 0.97V             |
| First 0->1 flip                | 0.96V             | 0.96V             |
| 0->1 rate excess over 1->0     | +21%              | +21%              |
| alpha*C_L*f drop at 0.85V      | -14%              | -14%              |
+--------------------------------+-------------------+-------------------+
)";
constexpr std::uint64_t kTenantsFingerprint = 0xe0c3a7927369c7a5;
constexpr std::uint64_t kTenantsTenantFingerprint = 0x60cfd86ff7fcff41;
constexpr double kTenantsGuaranteedP99ModelNs = 1007;

// ---- Metric names (the order BENCHMARK.json lists them in) ----

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"run_s", "s"},
    {"ops_per_s", "1/s"},    {"epoch_ms_p50", "ms"},
    {"epoch_ms_p95", "ms"},  {"peak_rss_mb", "MB"},
    {"goodput_frac", "1"},
};

constexpr MetricSpec kPerLayer[] = {
    // campaign
    {"faults.order_build_s", "s"},
    {"core.reliability_s", "s"},
    {"core.power_s", "s"},
    {"core.analyze_ms", "ms"},
    {"core.sweep_step_ms_p50", "ms"},
    {"core.sweep_step_ms_max", "ms"},
    {"core.anchor_err_pct", "%"},
    {"axi.pattern_test_ms_mean", "ms"},
    {"axi.words_compared", "count"},
    {"axi.flips", "count"},
    {"faults.stuck_bits_hit", "count"},
    {"board.pmbus_transactions", "count"},
    {"board.power_cycles", "count"},
    // serving path under tenants
    {"workload.fleet_construct_s", "s"},
    {"chaos.storm_tick_ns", "ns"},
    {"chaos.storm_events", "count"},
    {"runtime.read_ns_p50", "ns"},
    {"runtime.read_ns_p99", "ns"},
    {"runtime.write_ns_p50", "ns"},
    {"runtime.write_ns_p99", "ns"},
    {"ecc.corrected_words", "count"},
    {"runtime.journal_refreshes", "count"},
    {"runtime.verify_caught", "count"},
    {"scrub.beats", "count"},
    {"scrub.corrected", "count"},
    {"scrub.useful_ratio", "1"},
    {"scrub.blocks_skipped", "count"},
    // tenants
    {"serve.admit_ms_p50", "ms"},
    {"serve.admit_ms_p95", "ms"},
    {"serve.fold_ms_p50", "ms"},
    {"runtime.fanout_ms_p50", "ms"},
    {"runtime.barrier_ms_p50", "ms"},
    {"serve.requests", "count"},
    {"serve.beats_per_request", "1"},
    {"serve.outcome.served", "count"},
    {"serve.outcome.hedged", "count"},
    {"serve.outcome.stale", "count"},
    {"serve.outcome.shed", "count"},
    {"serve.retries_spent", "count"},
    {"runtime.stripe_write_amplification", "1"},
    {"serve.guaranteed_p99_model_ns", "ns"},
};

// ---- Small helpers ----

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear interpolation between closest ranks (numpy's default).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Everything one process reports: the check verdicts, the operation
/// counts, and a value for every declared metric.
class Report {
 public:
  Report() {
    for (const MetricSpec& m : kEndToEnd) values_[m.name] = 0.0;
    for (const MetricSpec& m : kPerLayer) values_[m.name] = 0.0;
  }

  /// Records a failed output check; the run still completes and reports.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++failures_;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  /// Failed checks so far; an iteration samples it before its checks.
  [[nodiscard]] std::size_t failures() const { return failures_; }
  /// Counts one iteration's operations.  When a check failed since
  /// `failures_before`, every operation of the iteration counts as failed.
  void attempt(std::uint64_t attempted, std::uint64_t failed,
               std::size_t failures_before) {
    attempted_ += attempted;
    failed_ += failures_ > failures_before ? attempted
                                           : std::min(failed, attempted);
  }
  void set(const char* name, double value) {
    auto it = values_.find(name);
    if (it == values_.end()) {
      std::fprintf(stderr, "internal error: undeclared metric %s\n", name);
      std::abort();
    }
    it->second = value;
  }

  [[nodiscard]] bool correct() const { return failures_ == 0; }
  /// Share of attempted operations that completed correctly.
  [[nodiscard]] double goodput() const {
    return attempted_ == 0 ? 0.0
                           : 1.0 - static_cast<double>(failed_) /
                                       static_cast<double>(attempted_);
  }

  /// Human-readable lines for both metric sets, then the JSON line with
  /// the set this mode reports.
  void print(bool traced) const {
    const auto print_set = [this](const char* title, const auto& specs) {
      std::printf("%s\n", title);
      for (const MetricSpec& m : specs) {
        std::printf("  %-36s %.6g %s\n", m.name, values_.at(m.name), m.unit);
      }
    };
    print_set("end-to-end metrics:", kEndToEnd);
    if (traced) print_set("per-layer metrics:", kPerLayer);

    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const MetricSpec& m) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", values_.at(m.name));
      json += first ? "" : ", ";
      first = false;
      json += "\"" + std::string(m.name) + "\": {\"value\": " + buf +
              ", \"unit\": \"" + m.unit + "\"}";
    };
    if (traced) {
      for (const MetricSpec& m : kPerLayer) emit(m);
    } else {
      for (const MetricSpec& m : kEndToEnd) emit(m);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::size_t failures_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double, std::less<>> values_;
};

/// Prints "samples <name> n=<count>" so every percentile names its base.
void print_samples(const char* name, std::size_t n) {
  std::printf("samples %-30s n=%zu\n", name, n);
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Builds every PC's weak-cell order (and, when `overlays`, its fault
/// overlay at the board's current voltage) on kThreads threads.  Distinct
/// PCs own distinct injector slots, so the fan-out is race-free.
void warm_faults(board::Vcu128Board& board, bool overlays) {
  core::ThreadPool pool(kThreads);
  faults::FaultInjector& injector = board.injector();
  core::parallel_for_each(
      &pool, board.geometry().total_pcs(), [&](std::size_t pc) {
        (void)injector.order(static_cast<unsigned>(pc));
        if (overlays) (void)injector.overlay(static_cast<unsigned>(pc));
      });
}

/// Rows of a Telemetry::summary() table, split into cells.
std::vector<std::vector<std::string>> summary_rows(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] != '|') continue;
    std::vector<std::string> cells;
    std::size_t pos = 1;
    while (pos < line.size()) {
      const std::size_t bar = line.find('|', pos);
      if (bar == std::string::npos) break;
      std::string cell = line.substr(pos, bar - pos);
      const std::size_t b = cell.find_first_not_of(' ');
      const std::size_t e = cell.find_last_not_of(' ');
      cells.push_back(b == std::string::npos ? "" : cell.substr(b, e - b + 1));
      pos = bar + 1;
    }
    rows.push_back(std::move(cells));
  }
  return rows;
}

/// Span aggregate from a summary table: {count, total ms}.
struct SpanTotal {
  double count = 0.0;
  double total_ms = 0.0;
};

SpanTotal summary_span(const std::vector<std::vector<std::string>>& rows,
                       std::string_view name) {
  for (const auto& cells : rows) {
    if (cells.size() == 4 && cells[0] == name) {
      return {std::strtod(cells[1].c_str(), nullptr),
              std::strtod(cells[2].c_str(), nullptr)};
    }
  }
  return {};
}

double summary_counter(const std::vector<std::vector<std::string>>& rows,
                       std::string_view name) {
  for (const auto& cells : rows) {
    if (cells.size() == 3 && cells[0] == name && cells[1] == "counter") {
      return std::strtod(cells[2].c_str(), nullptr);
    }
  }
  return 0.0;
}

// ======================================================================
// campaign: the paper's whole evaluation (Fig 2-6) on a fresh board.
// ======================================================================

board::BoardConfig campaign_board(std::uint64_t seed) {
  board::BoardConfig config;
  config.geometry = hbm::HbmGeometry::simulation_default();
  config.seed = mix_seed(seed, 0xB0A2D);
  config.monitor_config.seed = mix_seed(seed, 0x1A226);
  return config;
}

core::CampaignConfig campaign_config(bool telemetry) {
  core::CampaignConfig config;
  config.dry_run = true;
  config.checkpoint = false;
  config.telemetry.enabled = telemetry;
  config.threads = kThreads;
  return config;
}

/// Largest relative error (%) of the headline numbers against the paper
/// column of core::render_headline.
double anchor_error_pct(const core::HeadlineNumbers& h) {
  double worst = 0.0;
  const auto rel = [&worst](double measured, double paper) {
    worst = std::max(worst, std::fabs(measured - paper) / paper * 100.0);
  };
  const auto mv = [](std::optional<Millivolts> v) {
    return v.has_value() ? static_cast<double>(v->value) : 0.0;
  };
  rel(h.guardband.guardband_fraction, 0.19);
  rel(h.guardband.v_min.value, 980);
  rel(h.guardband.v_first_fault.value, 970);
  rel(h.guardband.v_critical.value, 810);
  rel(h.savings_at_vmin, 1.5);
  rel(h.savings_at_850mv, 2.3);
  rel(h.idle_fraction, 1.0 / 3.0);
  rel(h.stack_variation.average_gap, 0.13);
  rel(mv(h.pattern_variation.first_1to0), 970);
  rel(mv(h.pattern_variation.first_0to1), 960);
  rel(h.pattern_variation.average_0to1_excess, 0.21);
  rel(h.alpha_drop_at_850mv, 0.14);
  return worst;
}

/// The anchors must land inside the tolerances tests/integration_test.cpp
/// holds the model to.
void check_anchors(const core::HeadlineNumbers& h, Report& report) {
  const auto near = [](double v, double want, double tol) {
    return std::fabs(v - want) <= tol;
  };
  const auto& g = h.guardband;
  const auto& p = h.pattern_variation;
  report.check(g.v_min.value == 980, "campaign: V_min != 0.98 V");
  report.check(g.v_first_fault.value == 970,
               "campaign: first faulty voltage != 0.97 V");
  report.check(g.v_critical.value == 810, "campaign: V_critical != 0.81 V");
  report.check(g.crash_observed, "campaign: no crash below V_critical");
  report.check(near(g.guardband_fraction, 0.183, 0.002),
               "campaign: guardband fraction off 18.3%");
  report.check(near(h.savings_at_vmin, 1.5, 0.05),
               "campaign: savings at V_min off 1.5x");
  report.check(near(h.savings_at_850mv, 2.3, 0.15),
               "campaign: savings at 0.85 V off 2.3x");
  report.check(near(h.idle_fraction, 1.0 / 3.0, 0.03),
               "campaign: idle fraction off 1/3");
  report.check(h.stack_variation.better_stack == 0 &&
                   h.stack_variation.average_gap > 0.05 &&
                   h.stack_variation.average_gap < 0.35,
               "campaign: stack variation outside (5%, 35%) with HBM0 better");
  report.check(p.first_1to0.has_value() && p.first_1to0->value == 970,
               "campaign: first 1->0 flip != 0.97 V");
  report.check(p.first_0to1.has_value() && p.first_0to1->value == 960,
               "campaign: first 0->1 flip != 0.96 V");
  report.check(near(p.average_0to1_excess, 0.21, 0.08),
               "campaign: 0->1 excess off +21%");
  report.check(near(h.alpha_drop_at_850mv, 0.14, 0.04),
               "campaign: alpha*C_L*f drop off 14%");
}

/// Beats the reliability sweep verified (every tested bit, per 256-bit
/// beat): the campaign's unit of work for ops_per_s.
double tested_beats(const faults::FaultMap& map) {
  double bits = 0.0;
  for (const Millivolts v : map.voltages()) {
    bits += static_cast<double>(map.device_record(v).bits_tested);
  }
  return bits / 256.0;
}

/// Checks one finished campaign and returns its tested beats.
double check_campaign(const hbmvolt::Result<core::CampaignResult>& result,
                      std::uint64_t seed, std::string* headline_seen,
                      Report& report) {
  constexpr std::uint64_t kPhases = 2;  // reliability + power
  const std::size_t failures = report.failures();
  if (!result.is_ok()) {
    report.check(false, "campaign: " + result.status().to_string());
    report.attempt(kPhases, kPhases, failures);
    return 0.0;
  }
  const core::CampaignResult& r = result.value();
  for (const std::string& error : r.errors) {
    report.check(false, "campaign phase error: " + error);
  }
  report.check(!r.halted, "campaign: halted");
  check_anchors(r.headline, report);
  const std::string headline = core::render_headline(r.headline);
  if (headline_seen->empty()) {
    *headline_seen = headline;
    if (seed == kDefaultSeed) {
      report.check(headline == kCampaignHeadline,
                   "campaign: headline differs from the recorded reference:\n" +
                       headline);
    }
  } else {
    report.check(headline == *headline_seen,
                 "campaign: headline differs between iterations");
  }
  report.attempt(kPhases, r.errors.size(), failures);
  return tested_beats(r.fault_map);
}

void run_campaign(std::uint64_t seed, double seconds, bool traced,
                  Report& report) {
  const board::BoardConfig board_config = campaign_board(seed);

  // Set-up is what a user pays around Campaign::run: board and Campaign
  // construction and teardown (the weak-cell orders are built inside
  // every run).  One batch is timed before every campaign so the set-up
  // samples span the same stretch of the run as the campaigns.
  const auto setup_batch = [&board_config] {
    const double t0 = now_s();
    for (unsigned i = 0; i < kSetupBatch; ++i) {
      board::Vcu128Board board(board_config);
      core::Campaign campaign(board, campaign_config(false));
    }
    return (now_s() - t0) / kSetupBatch;
  };

  // End-to-end: fresh board per Campaign::run, telemetry off.
  std::vector<double> setup;
  std::string headline;
  std::vector<double> run_times;
  double beats = 0.0;
  double anchor_err = 0.0;
  const double budget = traced ? seconds / 2.0 : seconds;
  while (sum(run_times) < budget || run_times.size() < kMinIterations) {
    setup.push_back(setup_batch());
    board::Vcu128Board board(board_config);
    core::Campaign campaign(board, campaign_config(false));
    const double t0 = now_s();
    auto result = campaign.run();
    run_times.push_back(now_s() - t0);
    beats += check_campaign(result, seed, &headline, report);
    if (result.is_ok()) anchor_err = anchor_error_pct(result.value().headline);
  }
  std::vector<double> run_ms;
  for (double t : run_times) run_ms.push_back(t * 1e3);
  const double run_s = median(run_times);
  report.set("setup_s", median(setup));
  report.set("run_s", run_s);
  report.set("ops_per_s", beats / sum(run_times));
  report.set("epoch_ms_p50", median(run_ms));
  report.set("epoch_ms_p95", quantile(run_ms, 0.95));
  report.set("core.anchor_err_pct", anchor_err);
  print_samples("setup_s (batches)", setup.size());
  print_samples("run_s / epoch_ms (campaigns)", run_times.size());
  std::printf("anchor_err_pct %.6g %%\n", anchor_err);
  if (seed == kDefaultSeed) std::printf("reference headline:\n%s", headline.c_str());
  if (!traced) return;

  // Traced: pre-build the orders (timed), then the campaign with its own
  // telemetry on (spans and counters read back from its summary), then a
  // reliability sweep timed step by step through on_step.
  std::vector<double> order_s, rel_s, power_s, analyze_ms, traced_e2e;
  std::vector<double> step_ms, pattern_ms;
  std::vector<std::vector<std::string>> rows;
  double traced_sum = 0.0;
  while (traced_sum < seconds / 2.0 || order_s.size() < kMinIterations) {
    board::Vcu128Board board(board_config);
    const double t0 = now_s();
    warm_faults(board, /*overlays=*/false);
    const double t1 = now_s();
    core::Campaign campaign(board, campaign_config(true));
    auto result = campaign.run();
    const double t2 = now_s();
    check_campaign(result, seed, &headline, report);
    order_s.push_back(t1 - t0);
    traced_e2e.push_back(t2 - t0);
    traced_sum += t2 - t0;
    if (!result.is_ok()) continue;
    rows = summary_rows(result.value().telemetry_summary);
    rel_s.push_back(summary_span(rows, "campaign.reliability").total_ms / 1e3);
    power_s.push_back(summary_span(rows, "campaign.power").total_ms / 1e3);
    analyze_ms.push_back(summary_span(rows, "campaign.analyze").total_ms);
    const SpanTotal pattern = summary_span(rows, "tg.pattern_test");
    pattern_ms.push_back(ratio(pattern.total_ms, pattern.count));

    core::ThreadPool pool(kThreads);
    core::ReliabilityTester tester(board, campaign_config(false).reliability);
    double last = now_s();
    auto map = tester.run(&pool, nullptr,
                          [&](Millivolts, const faults::FaultMap&) {
                            const double t = now_s();
                            step_ms.push_back((t - last) * 1e3);
                            last = t;
                            return true;
                          });
    report.check(map.is_ok(), "campaign: step-timed reliability sweep failed");
    traced_sum += now_s() - t2;
  }
  report.set("faults.order_build_s", median(order_s));
  report.set("core.reliability_s", median(rel_s));
  report.set("core.power_s", median(power_s));
  report.set("core.analyze_ms", median(analyze_ms));
  report.set("core.sweep_step_ms_p50", median(step_ms));
  report.set("core.sweep_step_ms_max",
             step_ms.empty() ? 0.0
                             : *std::max_element(step_ms.begin(), step_ms.end()));
  report.set("axi.pattern_test_ms_mean", median(pattern_ms));
  // Counters are per campaign and deterministic: the last one stands.
  report.set("axi.words_compared", summary_counter(rows, "tg.words_compared"));
  report.set("axi.flips", summary_counter(rows, "tg.flips"));
  report.set("faults.stuck_bits_hit",
             summary_counter(rows, "faults.stuck_bits_hit"));
  report.set("board.pmbus_transactions",
             summary_counter(rows, "pmbus.transactions"));
  report.set("board.power_cycles", summary_counter(rows, "board.power_cycles"));
  print_samples("traced campaigns", order_s.size());
  print_samples("core.sweep_step_ms", step_ms.size());

  const double layers = median(order_s) + median(rel_s) + median(power_s) +
                        median(analyze_ms) / 1e3;
  std::printf("reconcile campaign: order_build %.4f s + reliability %.4f s + "
              "power %.4f s + analyze %.4f s = %.4f s vs untraced run_s "
              "%.4f s (%.1f%%)\n",
              median(order_s), median(rel_s), median(power_s),
              median(analyze_ms) / 1e3, layers, run_s,
              100.0 * ratio(layers, run_s));
  std::printf("overhead campaign: traced end-to-end %.4f s vs untraced "
              "run_s %.4f s (%+.1f%%)\n",
              median(traced_e2e), run_s,
              100.0 * (ratio(median(traced_e2e), run_s) - 1.0));
}

// ======================================================================
// Serving (tenants): set-up and probes.
// ======================================================================

std::uint64_t chaos_seed(std::uint64_t seed) {
  return mix_seed(seed, 0xC4A05);
}

/// The undervolted serving device: the repository's default board at
/// kServeMv with every PC's weak-cell order and overlay built.
std::unique_ptr<board::Vcu128Board> serving_board(double* order_build_s,
                                                  Report& report) {
  board::BoardConfig config;
  config.geometry = hbm::HbmGeometry::simulation_default();
  auto board = std::make_unique<board::Vcu128Board>(config);
  const Status status = board->set_hbm_voltage(Millivolts{kServeMv});
  report.check(status.is_ok(), "set_hbm_voltage: " + status.to_string());
  const double t0 = now_s();
  warm_faults(*board, /*overlays=*/false);
  *order_build_s = now_s() - t0;
  warm_faults(*board, /*overlays=*/true);
  return board;
}

/// The serving board of a measured phase, rebuilt every kRunsPerBoard
/// fleet runs.  Each fleet run gets a fresh chaos injector, plane and
/// fleet on it; the fingerprint checks hold every run on a reused board
/// to the same output as the first run on a fresh one.
class ServingDevice {
 public:
  /// Readies the board for the next fleet run.  Returns the time taken to
  /// rebuild it, or nothing when the current board serves this run too.
  std::optional<double> next(Report& report) {
    if (board_ != nullptr && runs_ < kRunsPerBoard) {
      ++runs_;
      return std::nullopt;
    }
    board_.reset();
    const double t0 = now_s();
    board_ = serving_board(&order_build_s_, report);
    runs_ = 1;
    return now_s() - t0;
  }
  [[nodiscard]] board::Vcu128Board& board() { return *board_; }
  /// Order build time of the latest rebuild.
  [[nodiscard]] double order_build_s() const { return order_build_s_; }

 private:
  std::unique_ptr<board::Vcu128Board> board_;
  unsigned runs_ = 0;
  double order_build_s_ = 0.0;
};

/// Wall time between successive epoch_hook calls within a fleet run, and
/// the p95 of each fleet run.  A run's p95 rests on 12+ intervals beyond
/// it; the median over runs keeps one burst of neighbour load from
/// deciding the tail.
class EpochClock {
 public:
  void start_run() {
    last_ = 0.0;
    run_begin_ = epoch_ms_.size();
  }
  void tick() {
    const double t = now_s();
    if (last_ > 0.0) epoch_ms_.push_back((t - last_) * 1e3);
    last_ = t;
  }
  void end_run() {
    run_p95_.push_back(quantile(
        {epoch_ms_.begin() + static_cast<std::ptrdiff_t>(run_begin_),
         epoch_ms_.end()},
        0.95));
  }
  [[nodiscard]] const std::vector<double>& epoch_ms() const {
    return epoch_ms_;
  }
  [[nodiscard]] const std::vector<double>& run_p95() const {
    return run_p95_;
  }

 private:
  double last_ = 0.0;
  std::size_t run_begin_ = 0;
  std::vector<double> epoch_ms_;
  std::vector<double> run_p95_;
};

/// Storm hook that times one call in 64 per PC.  Each PC's slot is only
/// touched by the worker serving that PC.
class StormProbe {
 public:
  explicit StormProbe(unsigned pcs) : slots_(pcs) {}

  bool tick(chaos::ChaosInjector& injector, unsigned pc, std::uint64_t t) {
    Slot& slot = slots_[pc];
    if ((++slot.calls & 63) != 0) return injector.storm_tick(pc, t);
    const double t0 = now_s();
    const bool fired = injector.storm_tick(pc, t);
    slot.sampled_ns += (now_s() - t0) * 1e9;
    ++slot.sampled;
    return fired;
  }

  /// Mean ns per sampled call.
  [[nodiscard]] double mean_ns() const {
    double ns = 0.0;
    double n = 0.0;
    for (const Slot& slot : slots_) {
      ns += slot.sampled_ns;
      n += static_cast<double>(slot.sampled);
    }
    return ratio(ns, n);
  }
  [[nodiscard]] double calls() const {
    double n = 0.0;
    for (const Slot& slot : slots_) n += static_cast<double>(slot.calls);
    return n;
  }

 private:
  struct alignas(64) Slot {
    std::uint64_t calls = 0;
    std::uint64_t sampled = 0;
    double sampled_ns = 0.0;
  };
  std::vector<Slot> slots_;
};

/// Channel stats summed over serving and parity channels.
runtime::ChannelStats fleet_stats(const runtime::ServingFleet& fleet) {
  runtime::ChannelStats total;
  const auto add = [&total](const runtime::ChannelStats& s) {
    total.writes += s.writes;
    total.corrected_words += s.corrected_words;
    total.journal_refreshes += s.journal_refreshes;
    total.verify_caught += s.verify_caught;
    total.scrub_beats += s.scrub_beats;
    total.scrub_corrected += s.scrub_corrected;
    total.scrub_blocks_skipped += s.scrub_blocks_skipped;
  };
  for (std::size_t i = 0; i < fleet.channels(); ++i) {
    add(fleet.channel(i).stats());
  }
  for (std::size_t g = 0; g < fleet.groups(); ++g) {
    add(fleet.parity_channel(g).stats());
  }
  return total;
}

/// Layer numbers common to both serving workloads, one entry per traced
/// iteration (timings are reported as medians over iterations; counts are
/// deterministic per seed, so the last iteration's stand).
struct ServingLayers {
  std::vector<double> order_build_s;
  std::vector<double> fleet_construct_s;
  std::vector<double> storm_ns;
  std::vector<double> read_p50, read_p99, write_p50, write_p99;
  double storm_calls = 0.0;
  double storm_events = 0.0;
  std::uint64_t latency_samples = 0;
  runtime::ChannelStats stats;

  void record(const runtime::ServingFleet& fleet,
              const chaos::ChaosInjector& injector, const StormProbe& probe,
              const telemetry::Telemetry& tel) {
    storm_ns.push_back(probe.mean_ns());
    storm_calls = probe.calls();
    storm_events =
        static_cast<double>(injector.injected(chaos::FaultKind::kBitRot) +
                            injector.injected(chaos::FaultKind::kWeakCellBurst) +
                            injector.injected(chaos::FaultKind::kPcKill));
    for (const auto& family : tel.metrics().hdr_family_values()) {
      const telemetry::HdrSnapshot& m = family.merged;
      if (family.name == "latency.read") {
        read_p50.push_back(static_cast<double>(m.q.p50));
        read_p99.push_back(static_cast<double>(m.q.p99));
        latency_samples += m.count;
      } else if (family.name == "latency.write") {
        write_p50.push_back(static_cast<double>(m.q.p50));
        write_p99.push_back(static_cast<double>(m.q.p99));
        latency_samples += m.count;
      }
    }
    stats = fleet_stats(fleet);
  }

  void publish(Report& report) const {
    const auto count = [&report](const char* name, std::uint64_t v) {
      report.set(name, static_cast<double>(v));
    };
    report.set("faults.order_build_s", median(order_build_s));
    report.set("workload.fleet_construct_s", median(fleet_construct_s));
    report.set("chaos.storm_tick_ns", median(storm_ns));
    report.set("chaos.storm_events", storm_events);
    report.set("runtime.read_ns_p50", median(read_p50));
    report.set("runtime.read_ns_p99", median(read_p99));
    report.set("runtime.write_ns_p50", median(write_p50));
    report.set("runtime.write_ns_p99", median(write_p99));
    count("ecc.corrected_words", stats.corrected_words);
    count("runtime.journal_refreshes", stats.journal_refreshes);
    count("runtime.verify_caught", stats.verify_caught);
    count("scrub.beats", stats.scrub_beats);
    count("scrub.corrected", stats.scrub_corrected);
    report.set("scrub.useful_ratio",
               ratio(static_cast<double>(stats.scrub_corrected),
                     static_cast<double>(stats.scrub_beats)));
    count("scrub.blocks_skipped", stats.scrub_blocks_skipped);
    print_samples("runtime.*_ns (ops, all traced runs)", latency_samples);
  }
};

/// End-to-end numbers of the serving workloads.
struct ServingTimes {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  double ops = 0.0;
  EpochClock epochs;

  void publish(Report& report) const {
    report.set("setup_s", median(setup_s));
    report.set("run_s", median(run_s));
    report.set("ops_per_s", ops / sum(run_s));
    report.set("epoch_ms_p50", median(epochs.epoch_ms()));
    report.set("epoch_ms_p95", median(epochs.run_p95()));
    print_samples("setup_s (set-ups)", setup_s.size());
    print_samples("run_s, epoch_ms_p95 (fleet runs)", run_s.size());
    print_samples("epoch_ms_p50 (epochs)", epochs.epoch_ms().size());
  }
};

void print_overhead(const char* workload, const ServingTimes& untraced,
                    const ServingTimes& traced) {
  const double base = untraced.ops / sum(untraced.run_s);
  const double with = traced.ops / sum(traced.run_s);
  std::printf("overhead %s: traced ops_per_s %.6g vs untraced %.6g "
              "(%+.1f%% time per op)\n",
              workload, with, base, 100.0 * (ratio(base, with) - 1.0));
}

// ======================================================================
// tenants: 8-tenant RequestPlane over a width-4 stripe fleet at 950 mV.
// ======================================================================

/// Timing decorator around the request plane: times the serial hooks and
/// counts the worker hooks per slot (each slot is touched only by the
/// worker serving it).
class TimedSource final : public runtime::RequestSource {
 public:
  TimedSource(runtime::RequestSource& inner, std::size_t slots)
      : inner_(inner), slots_(slots) {}

  void begin_epoch(const runtime::ServingFleet& fleet,
                   std::uint64_t epoch) override {
    const double t0 = now_s();
    inner_.begin_epoch(fleet, epoch);
    begin_returned_ = now_s();
    admit_ms.push_back((begin_returned_ - t0) * 1e3);
  }
  const runtime::PlacedRequest* front(std::size_t slot) override {
    return inner_.front(slot);
  }
  void complete(std::size_t slot, const runtime::PlacedRequest& request,
                runtime::ServeOutcome outcome, unsigned attempts,
                std::uint64_t model_ns) override {
    SlotCounts& c = slots_[slot];
    ++c.requests;
    c.beats += request.count;
    ++c.outcome[static_cast<unsigned>(outcome)];
    inner_.complete(slot, request, outcome, attempts, model_ns);
  }
  bool spend_retry(std::size_t slot, std::uint32_t tenant) override {
    const bool spent = inner_.spend_retry(slot, tenant);
    if (spent) ++slots_[slot].retries;
    return spent;
  }
  void end_epoch(telemetry::EpochSample* sample) override {
    const double t0 = now_s();
    fanout_ms.push_back((t0 - begin_returned_) * 1e3);
    inner_.end_epoch(sample);
    end_returned_ = now_s();
    fold_ms.push_back((end_returned_ - t0) * 1e3);
  }
  [[nodiscard]] bool exhausted() const override { return inner_.exhausted(); }
  [[nodiscard]] std::uint64_t epochs_remaining_bound() const override {
    return inner_.epochs_remaining_bound();
  }
  void fill_health(runtime::HealthRegistry* health) const override {
    inner_.fill_health(health);
  }
  [[nodiscard]] std::uint64_t fingerprint() const override {
    return inner_.fingerprint();
  }

  /// Called from epoch_hook: closes the barrier interval.
  void on_epoch_hook() {
    barrier_ms.push_back((now_s() - end_returned_) * 1e3);
  }

  struct SlotCounts {
    std::uint64_t requests = 0;
    std::uint64_t beats = 0;
    std::uint64_t retries = 0;
    std::uint64_t outcome[4] = {0, 0, 0, 0};
  };
  [[nodiscard]] SlotCounts totals() const {
    SlotCounts t;
    for (const Padded& p : slots_) {
      t.requests += p.requests;
      t.beats += p.beats;
      t.retries += p.retries;
      for (unsigned k = 0; k < 4; ++k) t.outcome[k] += p.outcome[k];
    }
    return t;
  }

  std::vector<double> admit_ms;
  std::vector<double> fanout_ms;
  std::vector<double> fold_ms;
  std::vector<double> barrier_ms;

 private:
  struct alignas(64) Padded : SlotCounts {};
  runtime::RequestSource& inner_;
  std::vector<Padded> slots_;
  double begin_returned_ = 0.0;
  double end_returned_ = 0.0;
};

serve::PlaneConfig tenants_plane(std::uint64_t seed,
                                 chaos::ChaosInjector* injector) {
  serve::PlaneConfig config;
  config.tenants = serve::make_tenant_set(
      kTenantCount,
      {serve::WorkloadMix::kZipfian, serve::WorkloadMix::kStreaming,
       serve::WorkloadMix::kPointerChase, serve::WorkloadMix::kUniform},
      kTenantBeats, /*footprint_beats=*/8192, /*quota_per_epoch=*/4096);
  config.seed = seed;
  config.max_queue_per_slot = 2048;
  config.chaos = injector;
  return config;
}

chaos::ChaosConfig tenants_chaos(std::uint64_t seed) {
  chaos::ChaosConfig config;
  config.seed = chaos_seed(seed);
  config.bit_rot_rate = 1e-4;
  return config;
}

/// Demand-side totals over every tenant of a finished plane run.
struct TenantTotals {
  double demand = 0.0;
  double good = 0.0;  // served + stale + hedged beats
  double shed = 0.0;
  double tenant_writes = 0.0;
  double guaranteed_p99 = 0.0;
};

TenantTotals tenant_totals(const serve::RequestPlane& plane) {
  TenantTotals t;
  for (std::size_t i = 0; i < plane.tenant_count(); ++i) {
    const serve::TenantStats& s = plane.stats(i);
    t.demand += static_cast<double>(s.demand);
    t.good += static_cast<double>(s.served_reads + s.served_writes +
                                  s.stale_served + s.hedged);
    t.shed += static_cast<double>(s.shed_total());
    t.tenant_writes += static_cast<double>(s.served_writes);
    if (plane.spec(i).qos == serve::QosClass::kGuaranteed) {
      t.guaranteed_p99 = std::max(
          t.guaranteed_p99,
          static_cast<double>(plane.latency(i).quantiles().p99));
    }
  }
  return t;
}

struct TenantLayers {
  ServingLayers serving;
  std::vector<double> admit_ms, fanout_ms, fold_ms, barrier_ms;
  // Reconciliation sums over hook-to-hook epochs (each run's first epoch
  // has no preceding hook, so its layer times are left out).
  double layer_sum_ms = 0.0;
  double epoch_sum_ms = 0.0;
  TimedSource::SlotCounts counts;
  double write_amplification = 0.0;
};

void tenants_iteration(std::uint64_t seed, bool traced, ServingDevice& device,
                       ServingTimes& times, TenantLayers& layers,
                       TenantTotals* totals, std::uint64_t* fingerprint,
                       Report& report) {
  const std::optional<double> prep_s = device.next(report);
  board::Vcu128Board& board = device.board();
  const double t0 = now_s();
  chaos::ChaosInjector injector(board, tenants_chaos(seed));
  StormProbe probe(board.geometry().total_pcs());
  const double t1 = now_s();  // plane construction generates the traces
  serve::RequestPlane plane(tenants_plane(seed, &injector));
  TimedSource timed(plane, board.geometry().total_pcs());

  runtime::FleetConfig config;
  config.scheme = mitigate::MitigationKind::kStripe;
  config.stripe_width = 4;
  config.channel.spare_fraction = 0.25;
  config.ops_per_epoch = 4096;
  config.seed = seed;
  config.threads = kThreads;
  if (traced) {
    config.source = &timed;
    config.storm_hook = [&](unsigned pc, std::uint64_t tick) {
      return probe.tick(injector, pc, tick);
    };
    config.epoch_hook = [&](const runtime::EpochStatus&) {
      timed.on_epoch_hook();
      times.epochs.tick();
    };
  } else {
    config.source = &plane;
    config.storm_hook = [&injector](unsigned pc, std::uint64_t tick) {
      return injector.storm_tick(pc, tick);
    };
    config.epoch_hook = [&times](const runtime::EpochStatus&) {
      times.epochs.tick();
    };
  }
  runtime::ServingFleet fleet(board, config);
  const double t2 = now_s();
  if (prep_s) times.setup_s.push_back(*prep_s + (t2 - t0));

  times.epochs.start_run();
  const std::size_t epochs_before = times.epochs.epoch_ms().size();
  std::optional<telemetry::Telemetry> tel;
  std::optional<telemetry::ScopedTelemetry> scope;
  if (traced) {
    tel.emplace();
    scope.emplace(*tel);
  }
  const double t3 = now_s();
  auto result = fleet.run();
  times.run_s.push_back(now_s() - t3);
  times.epochs.end_run();
  scope.reset();

  const TenantTotals t = tenant_totals(plane);
  const std::size_t failures = report.failures();
  if (!result.is_ok()) {
    constexpr std::uint64_t planned = kTenantBeats * kTenantCount;
    report.check(false, "tenants: " + result.status().to_string());
    report.attempt(planned, planned, failures);
    return;
  }
  const runtime::FleetReport& r = result.value();
  times.ops += static_cast<double>(r.ops);
  report.check(r.corrupt_reads == 0, "tenants: corrupt reads");
  report.check(!r.halted, "tenants: halted");
  report.check(t.good + t.shed == t.demand,
               "tenants: served + stale + hedged + shed != demand");
  if (*fingerprint == 0) {
    *fingerprint = r.fingerprint;
    *totals = t;
    if (seed == kDefaultSeed) {
      report.check(r.fingerprint == kTenantsFingerprint &&
                       r.tenant_fingerprint == kTenantsTenantFingerprint &&
                       t.guaranteed_p99 == kTenantsGuaranteedP99ModelNs,
                   "tenants: fingerprints " + hex(r.fingerprint) + " / " +
                       hex(r.tenant_fingerprint) + " or guaranteed p99 " +
                       std::to_string(t.guaranteed_p99) +
                       " differ from the recorded reference");
    }
  } else {
    report.check(r.fingerprint == *fingerprint &&
                     t.guaranteed_p99 == totals->guaranteed_p99,
                 "tenants: fingerprint or guaranteed p99 differs between "
                 "iterations");
  }
  report.attempt(static_cast<std::uint64_t>(t.demand),
                 static_cast<std::uint64_t>(t.shed) + r.corrupt_reads,
                 failures);
  if (!traced) return;
  if (prep_s) layers.serving.order_build_s.push_back(device.order_build_s());
  layers.serving.fleet_construct_s.push_back(t2 - t1);
  layers.serving.record(fleet, injector, probe, *tel);
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(layers.admit_ms, timed.admit_ms);
  append(layers.fanout_ms, timed.fanout_ms);
  append(layers.fold_ms, timed.fold_ms);
  append(layers.barrier_ms, timed.barrier_ms);
  for (std::size_t k = 1; k < timed.barrier_ms.size(); ++k) {
    layers.layer_sum_ms += timed.admit_ms[k] + timed.fanout_ms[k] +
                           timed.fold_ms[k] + timed.barrier_ms[k];
  }
  const std::vector<double>& epochs = times.epochs.epoch_ms();
  for (std::size_t k = epochs_before; k < epochs.size(); ++k) {
    layers.epoch_sum_ms += epochs[k];
  }
  layers.counts = timed.totals();
  layers.write_amplification =
      ratio(static_cast<double>(fleet_stats(fleet).writes), t.tenant_writes);
}

void run_tenants(std::uint64_t seed, double seconds, bool traced,
                 Report& report) {
  ServingTimes untraced;
  ServingTimes traced_times;
  TenantLayers layers;
  TenantTotals totals;
  std::uint64_t fingerprint = 0;
  const double budget = traced ? seconds / 2.0 : seconds;
  ServingDevice device;
  while (sum(untraced.run_s) < budget ||
         untraced.run_s.size() < kMinIterations) {
    tenants_iteration(seed, false, device, untraced, layers, &totals,
                      &fingerprint, report);
  }
  untraced.publish(report);
  report.set("serve.guaranteed_p99_model_ns", totals.guaranteed_p99);
  std::printf("guaranteed_p99_model_ns %.17g ns\n", totals.guaranteed_p99);
  std::printf("tenants fingerprint %s\n", hex(fingerprint).c_str());
  if (!traced) return;

  ServingDevice traced_device;
  while (sum(traced_times.run_s) < seconds / 2.0 ||
         traced_times.run_s.size() < kMinIterations) {
    tenants_iteration(seed, true, traced_device, traced_times, layers, &totals,
                      &fingerprint, report);
  }
  layers.serving.publish(report);
  const TimedSource::SlotCounts& c = layers.counts;
  report.set("serve.admit_ms_p50", median(layers.admit_ms));
  report.set("serve.admit_ms_p95", quantile(layers.admit_ms, 0.95));
  report.set("serve.fold_ms_p50", median(layers.fold_ms));
  report.set("runtime.fanout_ms_p50", median(layers.fanout_ms));
  report.set("runtime.barrier_ms_p50", median(layers.barrier_ms));
  report.set("serve.requests", static_cast<double>(c.requests));
  report.set("serve.beats_per_request",
             ratio(static_cast<double>(c.beats), static_cast<double>(c.requests)));
  report.set("serve.outcome.served", static_cast<double>(c.outcome[0]));
  report.set("serve.outcome.hedged", static_cast<double>(c.outcome[1]));
  report.set("serve.outcome.stale", static_cast<double>(c.outcome[2]));
  report.set("serve.outcome.shed", static_cast<double>(c.outcome[3]));
  report.set("serve.retries_spent", static_cast<double>(c.retries));
  report.set("runtime.stripe_write_amplification", layers.write_amplification);
  print_samples("serve.admit_ms / fold / fanout", layers.admit_ms.size());
  print_samples("runtime.barrier_ms", layers.barrier_ms.size());

  std::printf("reconcile tenants: admit %.1f ms + fanout %.1f ms + fold "
              "%.1f ms + barrier %.1f ms over %zu epochs; hook-to-hook "
              "epochs: layers %.1f ms of %.1f ms summed epoch time (%.1f%%)\n",
              sum(layers.admit_ms), sum(layers.fanout_ms), sum(layers.fold_ms),
              sum(layers.barrier_ms), layers.admit_ms.size(),
              layers.layer_sum_ms, layers.epoch_sum_ms,
              100.0 * ratio(layers.layer_sum_ms, layers.epoch_sum_ms));
  print_overhead("tenants", untraced, traced_times);
}

// ======================================================================

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hbmbench: %s\nusage: hbmbench --workload campaign|tenants"
               " --seed N --seconds S --trace 0|1 [--describe TEXT]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-' || text[0] == '+') {
    usage((std::string(flag) + " needs an unsigned integer").c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "hbmbench: refusing to measure a build without NDEBUG; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> seconds;
  std::optional<std::uint64_t> trace;
  std::string describe = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("every flag needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      seconds = parse_u64(value, "--seconds");
    } else if (flag == "--trace") {
      trace = parse_u64(value, "--trace");
    } else if (flag == "--describe") {
      describe = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!seed || !seconds || !trace) usage("missing --seed/--seconds/--trace");
  if (*trace > 1) usage("--trace takes 0 or 1");
  if (*seconds == 0) usage("--seconds must be positive");
  if (workload != "campaign" && workload != "tenants") {
    usage("--workload must be campaign or tenants");
  }
  const bool traced = *trace == 1;

  std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, "
              "\"threads\": %u, \"nproc\": %u, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"git_describe\": %s, \"trace\": %d}\n",
              workload.c_str(), static_cast<unsigned long long>(*seed),
              kThreads, std::thread::hardware_concurrency(),
              HBMBENCH_BUILD_TYPE, __VERSION__,
              telemetry::json_quoted(describe).c_str(), traced ? 1 : 0);

  Report report;
  const double budget = static_cast<double>(*seconds);
  if (workload == "campaign") {
    run_campaign(*seed, budget, traced, report);
  } else {
    run_tenants(*seed, budget, traced, report);
  }
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("goodput_frac", report.goodput());
  report.print(traced);
  return report.correct() ? 0 : 1;
}
