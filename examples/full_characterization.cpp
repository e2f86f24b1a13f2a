// Full characterization campaign: reproduce the paper's entire evaluation
// in one run and archive every artifact.
//
//   ./build/examples/full_characterization [output_dir] [threads]
//
// Writes fig2.csv/fig4.csv/fig5.csv/fig6.csv and summary.txt (headline
// table + ASCII renderings of Figs 2-6) into `output_dir` (default:
// ./artifacts), then prints the headline table and the trade-off plans.
// `threads` fans the sweeps out across pseudo-channels (0 = all cores,
// default; the artifacts are byte-identical at any thread count -- see
// docs/parallelism.md).
//
// Robustness drills (see docs/robustness.md) via environment variables:
//   HBMVOLT_CHAOS_RATE=0.05  inject transient faults of every kind at the
//                            given per-event rate (figures stay identical)
//   HBMVOLT_CHAOS_SEED=N     chaos schedule seed (default 0xC4A05)
//   HBMVOLT_HALT_AFTER=N     simulate the process dying after N sweep
//                            steps; re-run with the same output_dir to
//                            resume from checkpoint.json
// An unparseable or out-of-range knob (or threads argument) exits 2
// naming it and what it accepts.

#include <climits>
#include <cstdio>

#include "core/campaign.hpp"
#include "common/log.hpp"
#include "knobs.hpp"

using namespace hbmvolt;

int main(int argc, char** argv) {
  set_log_level(LogLevel::kInfo);

  core::CampaignConfig config;
  if (argc > 1) config.output_dir = argv[1];
  config.threads = 0;  // all cores; same bytes as the serial path
  if (argc > 2) {
    config.threads = static_cast<unsigned>(knobs::parse_long(
        "threads", argv[2], 0, 1024, "a thread count in [0, 1024]"));
  }

  const double chaos_rate = knobs::env_double("HBMVOLT_CHAOS_RATE", 0.0);
  const std::uint64_t chaos_seed =
      knobs::env_u64("HBMVOLT_CHAOS_SEED", config.chaos.seed);
  if (chaos_rate > 0.0) {
    config.chaos.seed = chaos_seed;
    config.chaos.pmbus_nack_rate = chaos_rate;
    config.chaos.wire_corrupt_rate = chaos_rate;
    config.chaos.ina_dropout_rate = chaos_rate;
    config.chaos.axi_fail_rate = chaos_rate;
    config.chaos.spurious_crash_rate = chaos_rate;
    std::printf("chaos: all transient kinds at rate %g (seed %#llx)\n",
                chaos_rate,
                static_cast<unsigned long long>(config.chaos.seed));
  }
  config.halt_after_steps = static_cast<unsigned>(
      knobs::env_long("HBMVOLT_HALT_AFTER", 0, 0, INT_MAX,
                      "a sweep-step count in [0, 2147483647]"));

  board::BoardConfig board_config;
  board_config.geometry = hbm::HbmGeometry::simulation_default();
  board_config.monitor_config.noise_sigma_amps = 0.002;
  board::Vcu128Board board(board_config);
  core::Campaign campaign(board, config);
  auto result = campaign.run();
  if (!result.is_ok()) {
    std::fprintf(stderr, "campaign failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  const auto& campaign_result = result.value();

  if (campaign_result.halted) {
    std::printf("halted after %u step(s); checkpoint saved in %s -- "
                "re-run with the same output_dir to resume\n",
                config.halt_after_steps, config.output_dir.c_str());
    return 0;
  }
  for (const auto& error : campaign_result.errors) {
    std::fprintf(stderr, "degraded: %s\n", error.c_str());
  }

  std::fputs(core::render_headline(campaign_result.headline).c_str(),
             stdout);

  std::printf("\nOperating-point recommendations:\n");
  core::TradeoffAnalyzer analyzer(campaign_result.fault_map,
                                  Millivolts{1200}, &board.power_model());
  struct Ask {
    const char* what;
    unsigned pcs;
    double rate;
  };
  for (const Ask& ask : {Ask{"full capacity, zero faults", 32, 0.0},
                         Ask{"7 PCs, zero faults", 7, 0.0},
                         Ask{"half capacity, 1e-4 tolerable", 16, 1e-4}}) {
    if (const auto plan = analyzer.plan(ask.pcs, ask.rate)) {
      std::printf("  %-32s -> %.2fV, %.2fx savings\n", ask.what,
                  plan->voltage.volts(), plan->savings_factor);
    }
  }

  std::printf("\nArtifacts written:\n");
  for (const auto& file : campaign_result.files_written) {
    std::printf("  %s\n", file.c_str());
  }

  // Where the time and the traffic went (see docs/observability.md; load
  // trace.json from the artifact dir in ui.perfetto.dev for the timeline).
  if (!campaign_result.telemetry_summary.empty()) {
    std::printf("\n%s", campaign_result.telemetry_summary.c_str());
  }
  return 0;
}
