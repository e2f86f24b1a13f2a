// Serial reference driver for ReliableChannel (test-only).
//
// Replays an AccessTrace through one channel op by op (beats taken modulo
// capacity), self-checking every read against the journal and applying
// the full degradation ladder inline -- including the global rungs (raise
// the supply, power-cycle + journal restore), which is only sound because
// nothing else uses the board.  The library serves through
// runtime::ServingFleet, whose epoch barrier applies those rungs;
// tests/range_test.cpp pins a one-slot fleet against this driver on the
// identical op stream.
//
// Built only on the channel's public API and the board.

#pragma once

#include <cstdint>

#include "board/vcu128.hpp"
#include "common/status.hpp"
#include "runtime/fleet.hpp"
#include "runtime/reliable_channel.hpp"
#include "workload/trace.hpp"

namespace hbmvolt::test {

class SerialReference {
 public:
  SerialReference(board::Vcu128Board& board, runtime::ReliableChannel& channel)
      : board_(board), channel_(channel) {}

  /// Serves `trace`; payload of op i is make_payload(data_seed, pc, i).
  Result<runtime::ServeReport> serve(const workload::AccessTrace& trace,
                                     std::uint64_t data_seed = 1) {
    runtime::ServeReport report;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const std::uint64_t logical = trace[i].beat % channel_.capacity();
      // First touch of a beat is always a write: the journal is the read
      // self-check's truth, so reads of never-written beats are undefined.
      const bool write_op = trace[i].write || !channel_.journal_live(logical);
      const hbm::Beat payload =
          write_op ? runtime::make_payload(data_seed, channel_.pc_global(), i)
                   : hbm::Beat{};
      HBMVOLT_RETURN_IF_ERROR(serve_one(write_op, logical, payload, &report));
      // Consume a burned budget between ops, before a read trips on it.
      if (channel_.budget().burned() || channel_.escalation_pending()) {
        HBMVOLT_RETURN_IF_ERROR(apply_ladder());
      }
    }
    channel_.flush_telemetry();
    return report;
  }

 private:
  /// One trace op with journal self-check.
  Status serve_one(bool write_op, std::uint64_t logical,
                   const hbm::Beat& payload, runtime::ServeReport* report) {
    unsigned attempts = 0;
    if (write_op) {
      for (;;) {
        const Status wrote = channel_.write(logical, payload);
        if (wrote.is_ok()) break;
        // A crashed stack (e.g. a chaos spurious crash) is rung 3
        // territory: cycle, restore the journal, retry the op.
        if (wrote.code() != StatusCode::kUnavailable || ++attempts > 4) {
          return wrote;
        }
        HBMVOLT_RETURN_IF_ERROR(cycle_and_restore());
      }
      ++report->writes;
      ++report->ops;
      return Status::ok();
    }
    bool escalated = false;
    for (;;) {
      auto got = channel_.read(logical);
      if (got.is_ok()) {
        if (got.value() != channel_.journal_beat(logical)) {
          ++report->corrupt_reads;
        }
        break;
      }
      // The full ladder (retire -> raise to nominal -> power-cycle) is
      // bounded: a climb from deep undervolt to nominal is at most a few
      // dozen 10 mV rungs, and everything above it is O(1).
      if (++attempts > 64) return got.status();
      escalated = true;
      if (got.status().code() == StatusCode::kUnavailable) {
        HBMVOLT_RETURN_IF_ERROR(cycle_and_restore());
        continue;
      }
      if (got.status().code() != StatusCode::kDataLoss) return got.status();
      HBMVOLT_RETURN_IF_ERROR(apply_ladder());
    }
    ++report->reads;
    ++report->ops;
    if (escalated) ++report->escalated_reads;
    return Status::ok();
  }

  /// Applies whatever rung escalate() asks for, including the global ones.
  Status apply_ladder() {
    auto rung = channel_.escalate();
    if (!rung.is_ok()) return rung.status();
    switch (rung.value()) {
      case runtime::LadderRung::kCorrect:
      case runtime::LadderRung::kRetire:
      // Fleet-only rung (stripe spare adoption); escalate() never returns
      // it.
      case runtime::LadderRung::kStripeRebuild:
        return Status::ok();
      case runtime::LadderRung::kRaiseVoltage: {
        // Every channel under test runs at the default rung-2 step.
        const int step = runtime::ReliableChannelConfig{}.raise_step_mv;
        const Millivolts nominal =
            board_.config().regulator_config.vout_default;
        Millivolts next{board_.hbm_voltage().value + step};
        if (next > nominal) next = nominal;
        HBMVOLT_RETURN_IF_ERROR(board_.set_hbm_voltage(next));
        channel_.on_global_action(runtime::LadderRung::kRaiseVoltage);
        return Status::ok();
      }
      case runtime::LadderRung::kPowerCycle:
        // The cycle restores nominal voltage; bring the data back.
        return cycle_and_restore();
    }
    return Status::ok();
  }

  /// Power-cycle + journal restore with a bounded retry: a chaos spurious
  /// crash can land during the cycle's own voltage restore.
  Status cycle_and_restore() {
    for (unsigned tries = 0;; ++tries) {
      HBMVOLT_RETURN_IF_ERROR(board_.power_cycle());
      const Status restored = channel_.restore_after_power_cycle();
      if (restored.is_ok()) return restored;
      if (restored.code() != StatusCode::kUnavailable || tries >= 4) {
        return restored;
      }
      // A chaos crash landed mid-restore; cycle again (cooldown-limited,
      // so this terminates).
    }
  }

  board::Vcu128Board& board_;
  runtime::ReliableChannel& channel_;
};

}  // namespace hbmvolt::test
