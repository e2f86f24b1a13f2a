// undervolt_explorer: command-line front-end over the characterization
// framework.  Sweeps the simulated board and emits figure data as ASCII
// tables or CSV.
//
// Usage:
//   undervolt_explorer [--mode power|faults|tradeoff|governor|campaign|all]
//                      [--start MV] [--stop MV] [--step MV]
//                      [--batch N] [--seed N] [--csv] [--tolerate RATE]
//                      [--out DIR]
//                      [--config FILE.ini] [--save-config FILE.ini]
//
// Examples:
//   undervolt_explorer --mode faults --start 1000 --stop 840 --step 20
//   undervolt_explorer --mode power --csv > power.csv
//   undervolt_explorer --save-config board.ini   # write a template
//   undervolt_explorer --config hot_board.ini --mode faults

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <fstream>

#include "board/config_io.hpp"
#include "board/vcu128.hpp"
#include "core/campaign.hpp"
#include "core/governor.hpp"
#include "core/power_characterizer.hpp"
#include "core/reliability_tester.hpp"
#include "core/report.hpp"
#include "core/tradeoff.hpp"
#include "knobs.hpp"

using namespace hbmvolt;

namespace {

struct Options {
  std::string mode = "all";
  int start_mv = 1200;
  int stop_mv = 810;
  int step_mv = 10;
  unsigned batch = 1;
  std::uint64_t seed = 0xB0A2D;
  bool csv = false;
  double tolerate = 0.0;
  std::string out_dir = "artifacts";
  std::string config_path;
  std::string save_config_path;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--mode power|faults|tradeoff|all] [--start MV] "
               "[--stop MV] [--step MV] [--batch N] [--seed N] [--csv] "
               "[--config FILE.ini] [--save-config FILE.ini]\n",
               argv0);
}

// Numeric flags parse strictly and fail fast (examples/knobs.hpp).
using knobs::bad_knob;
using knobs::parse_long;

int parse_mv(const char* name, const char* text) {
  return static_cast<int>(
      parse_long(name, text, 500, 1500, "millivolts in [500, 1500]"));
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--mode") {
      const char* value = next();
      if (value == nullptr) return false;
      options.mode = value;
      if (options.mode != "power" && options.mode != "faults" &&
          options.mode != "tradeoff" && options.mode != "all") {
        bad_knob("--mode", value, "power, faults, tradeoff, or all");
      }
    } else if (arg == "--start") {
      const char* value = next();
      if (value == nullptr) return false;
      options.start_mv = parse_mv("--start", value);
    } else if (arg == "--stop") {
      const char* value = next();
      if (value == nullptr) return false;
      options.stop_mv = parse_mv("--stop", value);
    } else if (arg == "--step") {
      const char* value = next();
      if (value == nullptr) return false;
      options.step_mv = static_cast<int>(parse_long(
          "--step", value, 1, 500, "a step in millivolts in [1, 500]"));
    } else if (arg == "--batch") {
      const char* value = next();
      if (value == nullptr) return false;
      options.batch = static_cast<unsigned>(
          parse_long("--batch", value, 1, 64, "a batch size in [1, 64]"));
    } else if (arg == "--seed") {
      const char* value = next();
      if (value == nullptr) return false;
      options.seed = knobs::parse_u64("--seed", value);
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--tolerate") {
      const char* value = next();
      if (value == nullptr) return false;
      options.tolerate = knobs::parse_double(
          "--tolerate", value, 0.0, 1.0,
          "a tolerable corrupted-read fraction in [0.0, 1.0]");
    } else if (arg == "--out") {
      const char* value = next();
      if (value == nullptr) return false;
      options.out_dir = value;
    } else if (arg == "--config") {
      const char* value = next();
      if (value == nullptr) return false;
      options.config_path = value;
    } else if (arg == "--save-config") {
      const char* value = next();
      if (value == nullptr) return false;
      options.save_config_path = value;
    } else {
      usage(argv[0]);
      return false;
    }
  }
  if (options.step_mv <= 0 || options.start_mv < options.stop_mv ||
      options.batch == 0) {
    usage(argv[0]);
    return false;
  }
  return true;
}

int run_power(board::Vcu128Board& board, const Options& options) {
  core::PowerSweepConfig config;
  config.sweep = {Millivolts{options.start_mv}, Millivolts{options.stop_mv},
                  options.step_mv};
  config.samples = 8;
  core::PowerCharacterizer characterizer(board, config);
  auto result = characterizer.run();
  if (!result.is_ok()) {
    std::fprintf(stderr, "power sweep failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  const auto data = std::move(result).value();
  if (options.csv) {
    std::fputs(core::to_csv_fig2(data).c_str(), stdout);
  } else {
    std::fputs(core::render_fig2(data, options.step_mv * 5).c_str(), stdout);
    std::fputs(core::render_fig3(data, options.step_mv * 5).c_str(), stdout);
  }
  return 0;
}

Result<faults::FaultMap> run_reliability(board::Vcu128Board& board,
                                         const Options& options) {
  core::ReliabilityConfig config;
  config.sweep = {Millivolts{options.start_mv}, Millivolts{options.stop_mv},
                  options.step_mv};
  config.batch_size = options.batch;
  config.crash_policy = core::CrashPolicy::kPowerCycleAndContinue;
  core::ReliabilityTester tester(board, config);
  return tester.run();
}

int run_faults(board::Vcu128Board& board, const Options& options) {
  auto map = run_reliability(board, options);
  if (!map.is_ok()) {
    std::fprintf(stderr, "reliability sweep failed: %s\n",
                 map.status().to_string().c_str());
    return 1;
  }
  if (options.csv) {
    std::fputs(core::to_csv_fig5(map.value()).c_str(), stdout);
  } else {
    std::fputs(core::render_fig4(map.value()).c_str(), stdout);
    std::fputs(core::render_fig5(map.value(), options.step_mv).c_str(),
               stdout);
  }
  return 0;
}

int run_tradeoff(board::Vcu128Board& board, const Options& options) {
  auto map = run_reliability(board, options);
  if (!map.is_ok()) {
    std::fprintf(stderr, "reliability sweep failed: %s\n",
                 map.status().to_string().c_str());
    return 1;
  }
  core::TradeoffAnalyzer analyzer(map.value(), Millivolts{1200},
                                  &board.power_model());
  core::TradeoffConfig config;
  const auto points = analyzer.analyze(config);
  if (options.csv) {
    std::fputs(core::to_csv_fig6(points, config).c_str(), stdout);
  } else {
    std::fputs(core::render_fig6(points, config).c_str(), stdout);
  }
  return 0;
}

int run_governor(board::Vcu128Board& board, const Options& options) {
  core::GovernorConfig config;
  config.tolerable_rate = options.tolerate;
  config.step_mv = options.step_mv;
  config.probe_beats = board.geometry().beats_per_pc();
  core::UndervoltGovernor governor(board, config);
  auto result = governor.run();
  if (!result.is_ok()) {
    std::fprintf(stderr, "governor failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  const auto& r = result.value();
  std::printf("governor settled at %.2fV (%.2fx savings) after %u probes; "
              "converged: %s\n",
              r.settled.volts(), r.savings_factor, r.probes,
              r.converged ? "yes" : "no");
  return 0;
}

int run_campaign(board::Vcu128Board& board, const Options& options) {
  core::CampaignConfig config;
  config.output_dir = options.out_dir;
  config.reliability.batch_size = options.batch;
  core::Campaign campaign(board, config);
  auto result = campaign.run();
  if (!result.is_ok()) {
    std::fprintf(stderr, "campaign failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  std::fputs(core::render_headline(result.value().headline).c_str(),
             stdout);
  for (const auto& file : result.value().files_written) {
    std::printf("wrote %s\n", file.c_str());
  }
  // Phase timing + pipeline counters; trace.json in --out loads in
  // ui.perfetto.dev (one track per worker).
  if (!result.value().telemetry_summary.empty()) {
    std::printf("\n%s", result.value().telemetry_summary.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) return 2;

  board::BoardConfig config;
  config.geometry = hbm::HbmGeometry::simulation_default();
  if (!options.config_path.empty()) {
    auto loaded = board::load_board_config(options.config_path);
    if (!loaded.is_ok()) {
      std::fprintf(stderr, "config error: %s\n",
                   loaded.status().to_string().c_str());
      return 1;
    }
    config = std::move(loaded).value();
  }
  config.seed = options.seed;

  if (!options.save_config_path.empty()) {
    std::ofstream out(options.save_config_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n",
                   options.save_config_path.c_str());
      return 1;
    }
    out << board::board_config_to_ini(config).to_string();
    std::fprintf(stderr, "wrote %s\n", options.save_config_path.c_str());
    return 0;
  }

  board::Vcu128Board board(config);

  if (options.mode == "power") return run_power(board, options);
  if (options.mode == "faults") return run_faults(board, options);
  if (options.mode == "tradeoff") return run_tradeoff(board, options);
  if (options.mode == "governor") return run_governor(board, options);
  if (options.mode == "campaign") return run_campaign(board, options);
  if (options.mode == "all") {
    if (const int rc = run_power(board, options)) return rc;
    if (const int rc = run_faults(board, options)) return rc;
    return run_tradeoff(board, options);
  }
  usage(argv[0]);
  return 2;
}
