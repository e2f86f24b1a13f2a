// Performance microbenchmarks (google-benchmark): the hot paths of the
// simulator itself -- beat reads with sparse/dense overlays, overlay
// construction, weak-cell order construction, and the Feistel PRP.
// These guard the "full sweep in seconds" property the fig benches rely
// on.

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include <benchmark/benchmark.h>

#include "axi/traffic_gen.hpp"
#include "bench_common.hpp"
#include "common/prp.hpp"
#include "core/parallel.hpp"
#include "faults/fault_overlay.hpp"
#include "hbm/stack.hpp"
#include "runtime/fleet.hpp"
#include "serve/plane.hpp"
#include "serve/tenant.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace hbmvolt;

hbm::HbmGeometry bench_geometry() {
  return hbm::HbmGeometry::simulation_default();
}

/// Forces `pc`'s lazy fault-overlay build with one beat read, so a timed
/// region measures serving rather than setup.
void warm_overlay(board::Vcu128Board& board, unsigned pc) {
  const unsigned per_stack = board.geometry().pcs_per_stack();
  (void)board.stack(pc / per_stack).read_beat(pc % per_stack, 0);
}

void BM_FeistelForward(benchmark::State& state) {
  FeistelPermutation prp(1ull << 20, 42);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prp.forward(i++ & ((1ull << 20) - 1)));
  }
}
BENCHMARK(BM_FeistelForward);

void BM_WeakCellOrderBuild(benchmark::State& state) {
  auto geometry = bench_geometry();
  geometry.bits_per_pc = 1ull << static_cast<unsigned>(state.range(0));
  geometry.banks_per_pc = 2;
  geometry.beats_per_row = 8;
  for (auto _ : state) {
    faults::WeakCellOrder order(geometry, 42, faults::WeakCellConfig{});
    benchmark::DoNotOptimize(order.order(faults::StuckPolarity::kStuckAt0)
                                 .size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(geometry.bits_per_pc));
}
BENCHMARK(BM_WeakCellOrderBuild)->Arg(14)->Arg(17)->Arg(19);

void BM_OverlayBuildSparse(benchmark::State& state) {
  const auto geometry = bench_geometry();
  faults::WeakCellOrder order(geometry, 42, faults::WeakCellConfig{});
  for (auto _ : state) {
    auto overlay = faults::FaultOverlay::build(order, 500, 500);
    benchmark::DoNotOptimize(overlay.total_count());
  }
}
BENCHMARK(BM_OverlayBuildSparse);

void BM_OverlayBuildDense(benchmark::State& state) {
  const auto geometry = bench_geometry();
  faults::WeakCellOrder order(geometry, 42, faults::WeakCellConfig{});
  const std::uint64_t k = geometry.bits_per_pc / 4;
  for (auto _ : state) {
    auto overlay = faults::FaultOverlay::build(order, k, k);
    benchmark::DoNotOptimize(overlay.total_count());
  }
}
BENCHMARK(BM_OverlayBuildDense);

void BM_ReadBeat(benchmark::State& state) {
  const auto geometry = bench_geometry();
  faults::FaultInjector injector(
      faults::FaultModel(geometry, faults::FaultModelConfig{}));
  hbm::HbmStack stack(geometry, 0, injector, 1);
  const int mv = static_cast<int>(state.range(0));
  injector.set_voltage(Millivolts{mv});
  stack.on_voltage_change(Millivolts{mv});
  std::uint64_t beat = 0;
  const std::uint64_t mask = geometry.beats_per_pc() - 1;
  for (auto _ : state) {
    auto data = stack.read_beat(4, beat++ & mask);
    benchmark::DoNotOptimize(data.is_ok());
  }
  state.SetBytesProcessed(state.iterations() * 32);
}
// Nominal (no overlay), tail faults (sparse), bulk faults (dense).
BENCHMARK(BM_ReadBeat)->Arg(1200)->Arg(920)->Arg(855);

void BM_FullPcPatternTest(benchmark::State& state) {
  const auto geometry = bench_geometry();
  faults::FaultInjector injector(
      faults::FaultModel(geometry, faults::FaultModelConfig{}));
  hbm::HbmStack stack(geometry, 0, injector, 1);
  injector.set_voltage(Millivolts{900});
  stack.on_voltage_change(Millivolts{900});
  axi::TrafficGenerator tg(stack, 4);
  axi::TgCommand command{axi::MacroOp::kWriteRead, 0, 0, hbm::kBeatAllOnes,
                         true};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tg.run(command).is_ok());
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(geometry.bits_per_pc / 8) * 2);
}
BENCHMARK(BM_FullPcPatternTest);

// The batched-engine headline (docs/performance.md, CI perf-smoke):
// solid-pattern full-PC write/read-verify at nominal voltage -- empty
// overlay, so the batched verify is O(1) -- per-beat reference (Arg 0)
// vs batched engine (Arg 1).  CI fails if batched is not faster.
void BM_PatternTest(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  const auto geometry = bench_geometry();
  faults::FaultInjector injector(
      faults::FaultModel(geometry, faults::FaultModelConfig{}));
  hbm::HbmStack stack(geometry, 0, injector, 1);
  axi::TrafficGenerator tg(stack, 4);
  tg.set_engine(batched ? axi::EnginePath::kAuto : axi::EnginePath::kPerBeat);
  axi::TgCommand command{axi::MacroOp::kWriteRead, 0, 0, hbm::kBeatAllOnes,
                         true};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tg.run(command).is_ok());
  }
  state.SetLabel(batched ? "batched" : "per-beat");
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(geometry.bits_per_pc / 8) * 2);
}
BENCHMARK(BM_PatternTest)->Arg(0)->Arg(1);

// Whole-device reliability sweep at different worker counts: the paper's
// Algorithm 1 with all 32 TGs, fanned out by core::ThreadPool.  The
// speedup over Arg(1) is the headline number for the parallel engine
// (expect >= 2x at Arg(4) on a 4-core host; on fewer cores the extra
// workers just measure the pool's overhead).  Results are byte-identical
// across arguments -- tests/parallel_test.cpp enforces that; this bench
// only measures time.
void BM_SweepThroughput(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  board::Vcu128Board board(bench::default_board_config());
  core::ReliabilityTester tester(board, bench::bench_sweep_config());
  // threads == 1 is the serial reference path: no pool at all.
  std::unique_ptr<core::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<core::ThreadPool>(threads);
  std::uint64_t bits = 0;
  for (auto _ : state) {
    auto map = tester.run(pool.get());
    if (!map.is_ok()) {
      state.SkipWithError("sweep failed");
      break;
    }
    bits += map.value().device_record(Millivolts{1200}).bits_tested;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_SweepThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Telemetry overhead on the serial sweep plus a nominal-voltage
// one-slot ServingFleet serve pass (docs/observability.md, CI telemetry
// gate).  The serve pass exercises the newer instrumentation sites --
// per-PC labeled family counters, HDR latency recording via OpTimer and
// the epoch-barrier telemetry flush -- so the gate covers them too, not
// just the sweep spans.  Every arm builds a fresh fleet per iteration and
// serves the same op stream.  Arg(0): no telemetry at all -- the
// baseline.  Arg(1): an instance installed but disabled, so every
// instrumentation site takes the one-branch null path; CI fails if this
// costs more than 3% over the baseline.  Arg(2): fully enabled (spans +
// counters + families + latency recorded), the documented price of
// turning observability on.
void BM_TelemetryOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  board::Vcu128Board board(bench::default_board_config());
  core::ReliabilityTester tester(board, bench::bench_sweep_config());

  // Nominal supply: the ladder never escalates, so every iteration's
  // fleet serves the same trace on the same board.
  runtime::FleetConfig fleet_config;
  fleet_config.pcs = {18};
  fleet_config.channel.spare_fraction = 0.25;
  fleet_config.ops_per_pc = 1 << 12;
  fleet_config.write_fraction = 0.25;
  fleet_config.seed = 0x5E11E;
  fleet_config.threads = 1;
  warm_overlay(board, 18);

  telemetry::Telemetry instance(
      telemetry::TelemetryConfig{.enabled = mode == 2});
  std::optional<telemetry::ScopedTelemetry> scoped;
  if (mode != 0) scoped.emplace(instance);

  std::uint64_t bits = 0;
  for (auto _ : state) {
    auto map = tester.run();
    if (!map.is_ok()) {
      state.SkipWithError("sweep failed");
      break;
    }
    bits += map.value().device_record(Millivolts{1200}).bits_tested;
    runtime::ServingFleet fleet(board, fleet_config);
    auto report = fleet.run();
    if (!report.is_ok()) {
      state.SkipWithError("serve failed");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits));
  state.SetLabel(mode == 0 ? "no-telemetry"
                           : mode == 1 ? "installed-disabled" : "enabled");
}
BENCHMARK(BM_TelemetryOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Resilient-runtime serving price (bench/ext_resilient_serving.cpp has
// the full raw-vs-reliable sweep; this tracks the trend).  One iteration
// serves a 16k-op uniform stream through a one-slot ServingFleet on the
// weakest PC.  Arg is the starting supply: nominal (ECC idle), 950 mV
// (SECDED absorbing stuck cells), 920 mV (budget burns, rows retire
// online).  The board is rebuilt per iteration -- the ladder mutates
// voltage and array state, so a fresh loop body is the only way
// iterations measure the same thing -- but construction, the lazy
// weak-cell order and fault-overlay build (~15-20 ms for one 2^19-bit PC,
// nearly all of it the order; forced by one beat read), and trace
// generation happen under PauseTiming: the counter is serving
// throughput, not setup.
void BM_ResilientServe(benchmark::State& state) {
  const int mv = static_cast<int>(state.range(0));
  constexpr std::uint64_t kOps = 1 << 14;
  std::optional<board::Vcu128Board> board;
  std::optional<runtime::ServingFleet> fleet;
  for (auto _ : state) {
    state.PauseTiming();
    fleet.reset();
    board.emplace(bench::default_board_config());
    (void)board->set_hbm_voltage(Millivolts{mv});
    warm_overlay(*board, 18);
    runtime::FleetConfig config;
    config.pcs = {18};
    config.channel.spare_fraction = 0.25;
    config.ops_per_pc = kOps;
    config.write_fraction = 0.25;
    config.seed = 0x5E11E;
    config.threads = 1;
    fleet.emplace(*board, std::move(config));
    state.ResumeTiming();
    auto report = fleet->run();
    if (!report.is_ok()) {
      state.SkipWithError("serve failed");
      break;
    }
    benchmark::DoNotOptimize(report.value().ops);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kOps));
}
BENCHMARK(BM_ResilientServe)
    ->Arg(1200)
    ->Arg(950)
    ->Arg(920)
    ->Unit(benchmark::kMillisecond);

// Reliability tax on streaming traffic (docs/performance.md, CI
// perf-smoke): one write sweep plus read sweeps over the weakest PC,
// served raw at the stack (mode 0 -- per-beat loads, no ECC, no
// journal, no scrub: the same unprotected baseline as
// bench/ext_resilient_serving.cpp) or through a one-slot SECDED
// ServingFleet (mode 1 -- the production serving loop; its built-in
// streaming traffic coalesces the sweeps into bulk encode/decode runs,
// scrub and budget amortized per run).  Same loop and shape as
// BM_StripeServe, so the SECDED and stripe taxes compare directly.  CI
// fails if the reliable path delivers less than 1/3 of raw ops/s at
// 950 mV.  Board rebuilt per iteration (same reason as
// BM_ResilientServe), with setup and the lazy overlay build likewise
// excluded from the timed region.
void BM_ReliableServe(benchmark::State& state) {
  const int mv = static_cast<int>(state.range(0));
  const bool reliable = state.range(1) != 0;
  // One write sweep, seven read sweeps: serving traffic is read-heavy,
  // and the write sweep carries the (documented) write-verify double cost.
  constexpr unsigned kPasses = 8;
  constexpr unsigned kPc = 18;
  std::uint64_t ops = 0;
  std::optional<board::Vcu128Board> board;
  std::optional<runtime::ServingFleet> fleet;
  for (auto _ : state) {
    state.PauseTiming();
    fleet.reset();
    board.emplace(bench::default_board_config());
    (void)board->set_hbm_voltage(Millivolts{mv});
    const unsigned per_stack = board->geometry().pcs_per_stack();
    auto& stack = board->stack(kPc / per_stack);
    const unsigned local = kPc % per_stack;
    (void)stack.read_beat(local, 0);  // force the lazy overlay build
    if (reliable) {
      runtime::FleetConfig config;
      config.pcs = {kPc};
      config.channel.spare_fraction = 0.25;
      config.streaming_passes = kPasses;
      config.threads = 1;
      config.seed = 0x5E11E;
      fleet.emplace(*board, std::move(config));
      state.ResumeTiming();
      auto report = fleet->run();
      if (!report.is_ok()) {
        state.SkipWithError("fleet run failed");
        break;
      }
      ops += report.value().ops;
    } else {
      const std::uint64_t beats = board->geometry().beats_per_pc();
      state.ResumeTiming();
      bool ok = true;
      for (std::uint64_t b = 0; b < beats && ok; ++b) {
        ok = stack.write_beat(local, b,
                              runtime::make_payload(1, kPc, b)).is_ok();
      }
      for (unsigned pass = 1; pass < kPasses && ok; ++pass) {
        for (std::uint64_t b = 0; b < beats && ok; ++b) {
          auto data = stack.read_beat(local, b);
          ok = data.is_ok();
          benchmark::DoNotOptimize(data);
        }
      }
      if (!ok) {
        state.SkipWithError("raw access failed");
        break;
      }
      ops += beats * kPasses;
    }
  }
  state.SetLabel(reliable ? "reliable" : "raw");
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ReliableServe)
    ->Args({1200, 0})
    ->Args({1200, 1})
    ->Args({950, 0})
    ->Args({950, 1})
    ->Unit(benchmark::kMillisecond);

// Stripe-mode serving price (docs/resilience.md): a single-threaded
// ServingFleet under the cross-PC erasure stripe, healthy (no PC kill),
// on the same streaming shape as BM_ReliableServe (one write sweep,
// seven read sweeps) so the range engine coalesces for both -- every
// data write also updates the group parity channel, so this is the
// steady-state RAIM write fan-out tax, not the reconstruction path.
// items/s counts foreground fleet ops, directly comparable to
// BM_ReliableServe's per-PC ops/s; CI fails if stripe-mode serve
// delivers less than 1/5 of the raw path at 950 mV.  Board rebuilt per
// iteration with all fault overlays pre-built under PauseTiming (one
// beat read per PC forces each lazy build).
void BM_StripeServe(benchmark::State& state) {
  const int mv = static_cast<int>(state.range(0));
  constexpr unsigned kPasses = 8;
  std::uint64_t ops = 0;
  std::optional<board::Vcu128Board> board;
  std::optional<runtime::ServingFleet> fleet;
  for (auto _ : state) {
    state.PauseTiming();
    fleet.reset();
    board.emplace(bench::default_board_config());
    (void)board->set_hbm_voltage(Millivolts{mv});
    for (unsigned pc = 0; pc < board->geometry().total_pcs(); ++pc) {
      warm_overlay(*board, pc);
    }
    runtime::FleetConfig config;
    config.scheme = mitigate::MitigationKind::kStripe;
    config.streaming_passes = kPasses;
    config.threads = 1;
    config.seed = 0x5E11E;
    fleet.emplace(*board, std::move(config));
    state.ResumeTiming();
    auto report = fleet->run();
    if (!report.is_ok()) {
      state.SkipWithError("fleet run failed");
      break;
    }
    ops += report.value().ops;
  }
  state.SetLabel("stripe");
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_StripeServe)->Arg(1200)->Arg(950)->Unit(benchmark::kMillisecond);

// ---- BM_TenantServe's identical op stream ----

/// Wraps the tenant plane and records every request each slot completes,
/// in completion order.
class RecordingSource final : public runtime::RequestSource {
 public:
  RecordingSource(runtime::RequestSource& inner, std::size_t slots)
      : log(slots), inner_(inner) {}

  std::vector<std::vector<runtime::PlacedRequest>> log;  // per slot

  void begin_epoch(const runtime::ServingFleet& fleet,
                   std::uint64_t epoch) override {
    inner_.begin_epoch(fleet, epoch);
  }
  const runtime::PlacedRequest* front(std::size_t slot) override {
    return inner_.front(slot);
  }
  void complete(std::size_t slot, const runtime::PlacedRequest& request,
                runtime::ServeOutcome outcome, unsigned attempts,
                std::uint64_t model_ns) override {
    log[slot].push_back(request);
    inner_.complete(slot, request, outcome, attempts, model_ns);
  }
  bool spend_retry(std::size_t slot, std::uint32_t tenant) override {
    return inner_.spend_retry(slot, tenant);
  }
  void end_epoch(telemetry::EpochSample* sample) override {
    inner_.end_epoch(sample);
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

 private:
  runtime::RequestSource& inner_;
};

/// Replays recorded per-slot requests with no QoS bookkeeping: never
/// hedges, never serves stale, no deadline, and the retry budget never
/// runs dry -- the bare fleet serving path on the plane's op stream.
class ReplaySource final : public runtime::RequestSource {
 public:
  explicit ReplaySource(
      const std::vector<std::vector<runtime::PlacedRequest>>& log)
      : log_(log), next_(log.size(), 0) {}

  void begin_epoch(const runtime::ServingFleet& /*fleet*/,
                   std::uint64_t /*epoch*/) override {}
  const runtime::PlacedRequest* front(std::size_t slot) override {
    if (next_[slot] >= log_[slot].size()) return nullptr;
    request_ = log_[slot][next_[slot]];
    request_.hedge = false;
    request_.stale_ok = false;
    request_.deadline_attempts = ~0u;
    return &request_;
  }
  void complete(std::size_t slot, const runtime::PlacedRequest& /*request*/,
                runtime::ServeOutcome /*outcome*/, unsigned /*attempts*/,
                std::uint64_t /*model_ns*/) override {
    ++next_[slot];
  }
  bool spend_retry(std::size_t /*slot*/, std::uint32_t /*tenant*/) override {
    return true;
  }
  void end_epoch(telemetry::EpochSample* /*sample*/) override {}
  [[nodiscard]] bool exhausted() const override {
    for (std::size_t slot = 0; slot < log_.size(); ++slot) {
      if (next_[slot] < log_[slot].size()) return false;
    }
    return true;
  }
  [[nodiscard]] std::uint64_t epochs_remaining_bound() const override {
    // Every epoch serves at least one request per non-empty slot.
    std::uint64_t bound = 0;
    for (std::size_t slot = 0; slot < log_.size(); ++slot) {
      bound = std::max<std::uint64_t>(bound, log_[slot].size() - next_[slot]);
    }
    return bound;
  }
  void fill_health(runtime::HealthRegistry* /*health*/) const override {}
  [[nodiscard]] std::uint64_t fingerprint() const override { return 0; }

 private:
  const std::vector<std::vector<runtime::PlacedRequest>>& log_;
  std::vector<std::size_t> next_;
  // One slot is served at a time (threads = 1), so one buffer suffices.
  runtime::PlacedRequest request_;
};

constexpr unsigned kTenantPasses = 8;
constexpr std::uint64_t kTenantSeed = 0x5E11E;

/// Four streaming tenants: ops = footprint x kTenantPasses, so each is one
/// write pass plus kTenantPasses-1 read passes.  chunk_beats is large (512)
/// so the range engine coalesces.
serve::PlaneConfig tenant_plane_config() {
  serve::PlaneConfig config;
  config.tenants = serve::make_tenant_set(
      4, {serve::WorkloadMix::kStreaming},
      /*ops=*/2048 * kTenantPasses,
      /*footprint_beats=*/2048, /*quota_per_epoch=*/8192);
  config.seed = kTenantSeed;
  config.chunk_beats = 512;
  return config;
}

runtime::FleetConfig tenant_fleet_config(runtime::RequestSource* source) {
  runtime::FleetConfig config;
  config.scheme = mitigate::MitigationKind::kSecded;
  config.threads = 1;
  config.seed = kTenantSeed;
  config.ops_per_epoch = 2048;
  config.source = source;
  return config;
}

/// The plane's placed op stream at `mv`, recorded once per process in an
/// untimed run, plus the ops that run served.
struct TenantStream {
  std::vector<std::vector<runtime::PlacedRequest>> log;
  std::uint64_t ops = 0;
};

const TenantStream& tenant_stream(int mv) {
  static std::map<int, TenantStream> cache;
  auto found = cache.find(mv);
  if (found != cache.end()) return found->second;
  board::Vcu128Board board(bench::default_board_config());
  (void)board.set_hbm_voltage(Millivolts{mv});
  serve::RequestPlane plane(tenant_plane_config());
  RecordingSource recorder(plane, board.geometry().total_pcs());
  runtime::ServingFleet fleet(board, tenant_fleet_config(&recorder));
  auto report = fleet.run();
  TenantStream& stream = cache[mv];
  stream.log = std::move(recorder.log);
  stream.ops = report.is_ok() ? report.value().ops : 0;
  return stream;
}

// Request-plane bookkeeping price (docs/serving.md, CI perf gate): a
// single-threaded SECDED fleet serving the identical op stream two ways.
// Arg 1 == 1: driven through the multi-tenant RequestPlane (four
// streaming tenants, chunk-placed, admission-controlled,
// deadline-tracked).  Arg 1 == 0: the requests that plane placed,
// recorded per slot in one untimed run, replayed through a minimal
// source with no QoS bookkeeping.  Both arms must serve the same
// FleetReport::ops, so the gap between them is what the plane's hashing,
// queues, and per-tenant accounting cost; CI fails if that overhead
// exceeds 10% at nominal voltage.  Board rebuilt per iteration with
// overlays pre-built under PauseTiming.
void BM_TenantServe(benchmark::State& state) {
  const int mv = static_cast<int>(state.range(0));
  const bool plane_on = state.range(1) != 0;
  const TenantStream& stream = tenant_stream(mv);
  std::uint64_t ops = 0;
  std::optional<board::Vcu128Board> board;
  std::optional<serve::RequestPlane> plane;
  std::optional<ReplaySource> replay;
  std::optional<runtime::ServingFleet> fleet;
  for (auto _ : state) {
    state.PauseTiming();
    fleet.reset();
    plane.reset();
    replay.reset();
    board.emplace(bench::default_board_config());
    (void)board->set_hbm_voltage(Millivolts{mv});
    for (unsigned pc = 0; pc < board->geometry().total_pcs(); ++pc) {
      warm_overlay(*board, pc);
    }
    runtime::RequestSource* source = nullptr;
    if (plane_on) {
      source = &plane.emplace(tenant_plane_config());
    } else {
      source = &replay.emplace(stream.log);
    }
    fleet.emplace(*board, tenant_fleet_config(source));
    state.ResumeTiming();
    auto report = fleet->run();
    if (!report.is_ok()) {
      state.SkipWithError("fleet run failed");
      break;
    }
    if (report.value().ops != stream.ops) {
      state.SkipWithError("arms served different op counts");
      break;
    }
    ops += report.value().ops;
    state.counters["epochs"] = static_cast<double>(report.value().epochs);
  }
  state.SetLabel(plane_on ? "plane" : "bare");
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_TenantServe)
    ->Args({1200, 0})
    ->Args({1200, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main so the JSON context records whether *this* binary (and the
// hbmvolt library linked into it) was built with optimizations -- the CI
// perf gate refuses numbers from a debug build.  google-benchmark's own
// `library_build_type` field only describes the benchmark library, which
// distro packages sometimes ship as debug.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("hbmvolt_build_type", "release");
#else
  benchmark::AddCustomContext("hbmvolt_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
