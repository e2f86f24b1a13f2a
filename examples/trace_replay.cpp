// Trace replay: measure a real workload's fault exposure on undervolted
// HBM.
//
//   ./build/examples/trace_replay [--trace FILE] [--pc N] [--mv MV]
//
// Without --trace, a built-in workload mix is generated and also written
// to /tmp/hbmvolt_example.trace so you can see the format (one access
// per line: "R <beat>" / "W <beat>", '#' comments).  The replay reports
// corrupted reads, stuck cells touched, and footprint at the chosen
// voltage -- the application-side view of the paper's fault map.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "board/vcu128.hpp"
#include "knobs.hpp"
#include "workload/trace.hpp"

using namespace hbmvolt;

namespace {

Result<workload::AccessTrace> load_trace(const char* path) {
  std::ifstream in(path);
  if (!in) return not_found(std::string("cannot open ") + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return workload::AccessTrace::from_text(buffer.str());
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path = nullptr;
  unsigned pc = 18;
  int mv = 900;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--pc") == 0) {
      pc = static_cast<unsigned>(knobs::parse_long(
          "--pc", argv[i + 1], 0, 255, "a pseudo-channel index in [0, 255]"));
    } else if (std::strcmp(argv[i], "--mv") == 0) {
      mv = static_cast<int>(knobs::parse_long(
          "--mv", argv[i + 1], 500, 1500, "millivolts in [500, 1500]"));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace FILE] [--pc N] [--mv MV]\n", argv[0]);
      return 2;
    }
  }

  board::BoardConfig config;
  config.geometry = hbm::HbmGeometry::simulation_default();
  board::Vcu128Board board(config);
  if (pc >= board.total_ports()) {
    std::fprintf(stderr, "PC %u out of range\n", pc);
    return 2;
  }

  workload::AccessTrace trace;
  if (trace_path != nullptr) {
    auto loaded = load_trace(trace_path);
    if (!loaded.is_ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().to_string().c_str());
      return 1;
    }
    trace = std::move(loaded).value();
    std::printf("loaded %zu accesses from %s\n", trace.size(), trace_path);
  } else {
    const std::uint64_t beats = board.geometry().beats_per_pc();
    trace = workload::make_hot_set(beats, beats * 2, 0.1, 0.8, 0x7ACE);
    std::ofstream out("/tmp/hbmvolt_example.trace");
    out << "# generated hot-set workload (10% of beats get 80% of traffic)\n"
        << trace.to_text();
    std::printf("generated %zu accesses (saved to "
                "/tmp/hbmvolt_example.trace)\n",
                trace.size());
  }

  if (!board.set_hbm_voltage(Millivolts{mv}).is_ok() ||
      !board.responding()) {
    std::fprintf(stderr, "voltage %d mV not operable (crash region?)\n", mv);
    return 1;
  }

  const unsigned per_stack = board.geometry().pcs_per_stack();
  auto result = workload::replay_exposure(board.stack(pc / per_stack),
                                          pc % per_stack, trace);
  if (!result.is_ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  const auto& r = result.value();
  const double p_nom = board.power_model().power(Millivolts{1200}, 1.0).value;
  const double p_now =
      board.power_model().power(Millivolts{mv}, 1.0).value;

  std::printf("\nreplay of PC%u at %.2fV (%.2fx power savings):\n", pc,
              mv / 1000.0, p_nom / p_now);
  std::printf("  accesses          %llu (%llu writes, %llu reads)\n",
              static_cast<unsigned long long>(r.accesses),
              static_cast<unsigned long long>(r.writes),
              static_cast<unsigned long long>(r.reads));
  std::printf("  footprint         %llu beats\n",
              static_cast<unsigned long long>(r.footprint_beats));
  std::printf("  corrupted reads   %llu (%.4f%%)\n",
              static_cast<unsigned long long>(r.corrupted_reads),
              r.corrupted_read_fraction() * 100.0);
  std::printf("  flipped bits      %llu\n",
              static_cast<unsigned long long>(r.flipped_bits));
  std::printf("  stuck cells hit   %llu\n",
              static_cast<unsigned long long>(
                  r.distinct_stuck_cells_touched));
  return 0;
}
