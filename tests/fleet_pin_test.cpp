// Literal-value pins for ServingFleet runs at test_tiny geometry.
//
// Each case records the fleet fingerprint, the data fingerprint and the
// headline counters of one run as exact numbers, so any change to the
// serving loop that alters a single channel call -- a coalescing
// boundary, an escalation point, a retry count, a payload -- shows up
// here even when every invariant (zero corrupt reads, thread-count
// invariance) still holds.  The cases cover the loop's distinct paths:
//
//  (a) SECDED uniform traffic under a chaos fault storm (per-op ticks);
//  (b) stripe streaming sweeps with no hook (coalesced runs, epoch cap),
//      also resumed from a mid-run checkpoint;
//  (c) stripe with a whole-PC kill (reconstruction and online rebuild);
//  (d) DECTED uniform traffic deep in fault territory, no hook;
//  (e) a forced stack crash (power cycle and journal restore);
//  (f) a 4-tenant request plane over a stripe with a PC kill.

#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "board/vcu128.hpp"
#include "chaos/chaos.hpp"
#include "mitigate/scheme.hpp"
#include "runtime/fleet.hpp"
#include "serve/plane.hpp"
#include "serve/tenant.hpp"

namespace hbmvolt {
namespace {

board::BoardConfig tiny_board() {
  board::BoardConfig config;
  config.geometry = hbm::HbmGeometry::test_tiny();
  config.monitor_config.noise_sigma_amps = 0.0;
  return config;
}

struct Pin {
  std::uint64_t fingerprint;
  std::uint64_t data_fingerprint;
  std::uint64_t escalated_reads;
  std::uint64_t reconstructed_reads;
  std::uint64_t power_cycles;
  int final_voltage_mv;
};

void expect_pin(const runtime::FleetReport& r, const Pin& pin) {
  EXPECT_EQ(r.corrupt_reads, 0u);
  EXPECT_EQ(r.fingerprint, pin.fingerprint);
  EXPECT_EQ(r.data_fingerprint, pin.data_fingerprint);
  EXPECT_EQ(r.escalated_reads, pin.escalated_reads);
  EXPECT_EQ(r.reconstructed_reads, pin.reconstructed_reads);
  EXPECT_EQ(r.power_cycles, pin.power_cycles);
  EXPECT_EQ(r.final_voltage.value, pin.final_voltage_mv);
}

runtime::FleetReport run_fleet(board::Vcu128Board& board,
                               const runtime::FleetConfig& config) {
  runtime::ServingFleet fleet(board, config);
  auto report = fleet.run();
  EXPECT_TRUE(report.is_ok()) << report.status().to_string();
  return report.is_ok() ? report.value() : runtime::FleetReport{};
}

runtime::FleetConfig uniform_fleet(mitigate::MitigationKind scheme) {
  runtime::FleetConfig config;
  config.scheme = scheme;
  config.pcs = {0, 4, 5, 18};
  config.ops_per_pc = 2048;
  config.ops_per_epoch = 512;
  config.seed = 101;
  config.channel.spare_fraction = 0.25;
  return config;
}

runtime::FleetConfig stripe_fleet(std::uint64_t ops_per_pc) {
  runtime::FleetConfig config;
  config.scheme = mitigate::MitigationKind::kStripe;
  config.stripe_width = 4;
  config.rebuild_beats_per_epoch = 8;
  config.ops_per_pc = ops_per_pc;
  config.ops_per_epoch = 64;
  config.seed = 42;
  return config;
}

/// Kills global PC `victim` from its own worker at op tick `when`.
std::function<bool(unsigned, std::uint64_t)> kill_at(
    board::Vcu128Board& board, unsigned victim, std::uint64_t when) {
  return [&board, victim, when](unsigned pc, std::uint64_t tick) {
    if (pc == victim && tick == when) {
      const hbm::PcId id = hbm::PcId::from_global(board.geometry(), victim);
      board.stack(id.stack).kill_pc(id.index);
    }
    return false;
  };
}

TEST(FleetPinTest, SecdedUniformUnderChaosStorm) {
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{940}).is_ok());
  chaos::ChaosConfig chaos_config;
  chaos_config.seed = 404;
  chaos_config.weak_burst_rate = 1e-4;
  chaos_config.bit_rot_rate = 1e-3;
  chaos_config.burst_cells = 4;
  chaos::ChaosInjector injector(board, chaos_config);
  runtime::FleetConfig config =
      uniform_fleet(mitigate::MitigationKind::kSecded);
  config.storm_hook = [&injector](unsigned pc, std::uint64_t tick) {
    return injector.storm_tick(pc, tick);
  };
  expect_pin(run_fleet(board, config),
      {276763444933304876u, 14166945586119816096u, 0, 0, 0, 950});
}

runtime::FleetConfig streaming_stripe() {
  runtime::FleetConfig config = stripe_fleet(0);
  config.pcs = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  config.streaming_passes = 2;
  config.ops_per_epoch = 20;  // cuts sweeps mid-run
  return config;
}

constexpr Pin kStreamingStripePin = {16223677204151181198u,
                                     1938609861518411330u, 0, 0, 0, 950};

TEST(FleetPinTest, StripeStreamingCoalescesUnderTheEpochCap) {
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
  expect_pin(run_fleet(board, streaming_stripe()), kStreamingStripePin);
}

TEST(FleetPinTest, StripeStreamingResumesFromCheckpoint) {
  // Without a storm hook a request is a whole coalesced run, so the
  // checkpoint must carry the trace record cursor, not the request tick.
  runtime::FleetCheckpoint ck;
  {
    board::Vcu128Board board(tiny_board());
    ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
    runtime::FleetConfig config = streaming_stripe();
    config.halt_after_epochs = 3;
    runtime::ServingFleet fleet(board, config);
    auto halted = fleet.run();
    ASSERT_TRUE(halted.is_ok()) << halted.status().to_string();
    ASSERT_TRUE(halted.value().halted);
    ck = fleet.checkpoint();
  }
  board::Vcu128Board board(tiny_board());
  runtime::ServingFleet fleet(board, streaming_stripe());
  ASSERT_TRUE(fleet.restore(ck).is_ok());
  auto resumed = fleet.run();
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  expect_pin(resumed.value(), kStreamingStripePin);
}

TEST(FleetPinTest, StripeSurvivesPcKillWithRebuild) {
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
  runtime::FleetConfig config = stripe_fleet(2048);
  config.storm_hook = kill_at(board, /*victim=*/0, /*when=*/70);
  expect_pin(run_fleet(board, config),
      {1182213259331099582u, 8626812174641582217u, 0, 374, 0, 960});
}

TEST(FleetPinTest, DectedUniformAt920) {
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{920}).is_ok());
  expect_pin(
      run_fleet(board, uniform_fleet(mitigate::MitigationKind::kDected)),
      {5966366274146983377u, 8947894892499313423u, 1, 0, 0, 950});
}

TEST(FleetPinTest, ForcedStackCrashPowerCycles) {
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
  runtime::FleetConfig config =
      uniform_fleet(mitigate::MitigationKind::kSecded);
  config.storm_hook = [&board](unsigned pc, std::uint64_t tick) {
    if (pc == 5 && tick == 300) {
      board.stack(hbm::PcId::from_global(board.geometry(), pc).stack)
          .force_crash();
    }
    return false;
  };
  const runtime::FleetReport report = run_fleet(board, config);
  EXPECT_GE(report.power_cycles, 1u);
  expect_pin(report,
      {10041331925791161690u, 14166945586119816096u, 1, 0, 1, 1200});
}

TEST(FleetPinTest, TenantPlaneOverStripeWithPcKill) {
  board::Vcu128Board board(tiny_board());
  ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
  serve::PlaneConfig plane_config;
  plane_config.tenants = serve::make_tenant_set(
      4,
      {serve::WorkloadMix::kZipfian, serve::WorkloadMix::kStreaming,
       serve::WorkloadMix::kPointerChase, serve::WorkloadMix::kUniform},
      /*ops=*/1500, /*footprint_beats=*/256, /*quota_per_epoch=*/128);
  plane_config.seed = 42;
  plane_config.chunk_beats = 16;
  serve::RequestPlane plane(plane_config);
  runtime::FleetConfig config = stripe_fleet(0);
  config.pcs = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  config.source = &plane;
  config.storm_hook = kill_at(board, /*victim=*/1, /*when=*/5);
  const runtime::FleetReport report = run_fleet(board, config);
  EXPECT_EQ(report.tenant_fingerprint, 13352063080641059096u);
  expect_pin(report,
      {5403701988395120629u, 10706313441948617169u, 0, 12, 0, 950});
}

}  // namespace
}  // namespace hbmvolt
