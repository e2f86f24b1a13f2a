#include "board/config_io.hpp"

#include <string>

#include "common/table.hpp"

namespace hbmvolt::board {
namespace {

// Pulls a typed value if present, assigning through `out`; propagates
// parse errors, ignores absence.
template <typename T, typename U>
Status apply(const IniFile& ini, const std::string& section,
             const std::string& key, Result<T> (IniFile::*getter)(
                 const std::string&, const std::string&) const,
             U& out) {
  if (!ini.has(section, key)) return Status::ok();
  auto value = (ini.*getter)(section, key);
  if (!value.is_ok()) return value.status();
  out = static_cast<U>(value.value());
  return Status::ok();
}

Status apply_mv(const IniFile& ini, const std::string& section,
                const std::string& key, Millivolts& out) {
  if (!ini.has(section, key)) return Status::ok();
  auto value = ini.get_int(section, key);
  if (!value.is_ok()) return value.status();
  out = Millivolts{static_cast<int>(value.value())};
  return Status::ok();
}

}  // namespace

Result<BoardConfig> board_config_from_ini(const IniFile& ini) {
  BoardConfig config;

  // [geometry]
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "geometry", "stacks",
                                &IniFile::get_uint64,
                                config.geometry.stacks));
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "geometry", "channels_per_stack",
                                &IniFile::get_uint64,
                                config.geometry.channels_per_stack));
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "geometry", "pcs_per_channel",
                                &IniFile::get_uint64,
                                config.geometry.pcs_per_channel));
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "geometry", "bits_per_pc",
                                &IniFile::get_uint64,
                                config.geometry.bits_per_pc));
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "geometry", "banks_per_pc",
                                &IniFile::get_uint64,
                                config.geometry.banks_per_pc));
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "geometry", "beats_per_row",
                                &IniFile::get_uint64,
                                config.geometry.beats_per_row));
  HBMVOLT_RETURN_IF_ERROR(
      config.geometry.validate());

  // [faults]
  auto& faults = config.fault_config;
  HBMVOLT_RETURN_IF_ERROR(apply_mv(ini, "faults", "v_min_mv", faults.v_min));
  HBMVOLT_RETURN_IF_ERROR(
      apply_mv(ini, "faults", "v_first_flip_mv", faults.v_first_flip));
  HBMVOLT_RETURN_IF_ERROR(
      apply_mv(ini, "faults", "v_all_faulty_mv", faults.v_all_faulty));
  HBMVOLT_RETURN_IF_ERROR(
      apply_mv(ini, "faults", "v_critical_mv", faults.v_critical));
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "faults", "stuck_at_one_share",
                                &IniFile::get_double,
                                faults.stuck_at_one_share));
  // A probability: NaN, infinities and values outside [0, 1] are rejected.
  if (!(faults.stuck_at_one_share >= 0.0 &&
        faults.stuck_at_one_share <= 1.0)) {
    return invalid_argument("[faults] stuck_at_one_share must lie in [0, 1]");
  }
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "faults", "bulk_mid_volts",
                                &IniFile::get_double,
                                faults.bulk_mid_volts));
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "faults", "bulk_sigma_volts",
                                &IniFile::get_double,
                                faults.bulk_sigma_volts));
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "faults", "tail_k_weak",
                                &IniFile::get_double, faults.tail_k_weak));
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "faults", "tail_k_medium",
                                &IniFile::get_double, faults.tail_k_medium));
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "faults", "tail_k_strong",
                                &IniFile::get_double, faults.tail_k_strong));
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "faults", "temperature_c",
                                &IniFile::get_double, faults.temperature_c));
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "faults", "alpha_stuck_weight",
                                &IniFile::get_double,
                                faults.alpha_stuck_weight));

  // [clustering]
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "clustering", "cluster_count",
                                &IniFile::get_uint64,
                                config.weak_config.cluster_count));
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "clustering", "cluster_rows",
                                &IniFile::get_uint64,
                                config.weak_config.cluster_rows));
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "clustering", "cluster_key_shift",
                                &IniFile::get_uint64,
                                config.weak_config.cluster_key_shift));
  if (config.weak_config.cluster_key_shift > 63) {
    return invalid_argument(
        "[clustering] cluster_key_shift must be at most 63 (a 64-bit key)");
  }

  // [power]
  if (ini.has("power", "p_full_load_w")) {
    auto value = ini.get_double("power", "p_full_load_w");
    if (!value.is_ok()) return value.status();
    config.power_config.p_full_load = Watts{value.value()};
  }
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "power", "idle_fraction",
                                &IniFile::get_double,
                                config.power_config.idle_fraction));

  // [regulator]
  HBMVOLT_RETURN_IF_ERROR(apply_mv(ini, "regulator", "vout_default_mv",
                                   config.regulator_config.vout_default));
  HBMVOLT_RETURN_IF_ERROR(apply_mv(ini, "regulator", "vout_max_mv",
                                   config.regulator_config.vout_max));
  if (ini.has("regulator", "droop_ohms")) {
    auto value = ini.get_double("regulator", "droop_ohms");
    if (!value.is_ok()) return value.status();
    config.regulator_config.droop = Ohms{value.value()};
  }

  // [monitor]
  if (ini.has("monitor", "shunt_ohms")) {
    auto value = ini.get_double("monitor", "shunt_ohms");
    if (!value.is_ok()) return value.status();
    config.monitor_config.shunt = Ohms{value.value()};
  }
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "monitor", "noise_sigma_amps",
                                &IniFile::get_double,
                                config.monitor_config.noise_sigma_amps));
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "monitor", "max_amps",
                                &IniFile::get_double,
                                config.monitor_max_amps));

  // [axi]
  if (ini.has("axi", "clock_hz")) {
    auto value = ini.get_double("axi", "clock_hz");
    if (!value.is_ok()) return value.status();
    config.axi_clock = Hertz{value.value()};
  }
  HBMVOLT_RETURN_IF_ERROR(apply(ini, "axi", "port_efficiency",
                                &IniFile::get_double,
                                config.port_efficiency));

  // [board]
  HBMVOLT_RETURN_IF_ERROR(
      apply(ini, "board", "seed", &IniFile::get_uint64, config.seed));

  return config;
}

Result<BoardConfig> load_board_config(const std::string& path) {
  auto ini = IniFile::load(path);
  if (!ini.is_ok()) return ini.status();
  return board_config_from_ini(ini.value());
}

IniFile board_config_to_ini(const BoardConfig& config) {
  IniFile ini;
  const auto set_u64 = [&ini](const char* section, const char* key,
                              std::uint64_t value) {
    ini.set(section, key, std::to_string(value));
  };
  const auto set_f = [&ini](const char* section, const char* key,
                            double value) {
    ini.set(section, key, format_double(value, 10));
  };

  set_u64("geometry", "stacks", config.geometry.stacks);
  set_u64("geometry", "channels_per_stack",
          config.geometry.channels_per_stack);
  set_u64("geometry", "pcs_per_channel", config.geometry.pcs_per_channel);
  set_u64("geometry", "bits_per_pc", config.geometry.bits_per_pc);
  set_u64("geometry", "banks_per_pc", config.geometry.banks_per_pc);
  set_u64("geometry", "beats_per_row", config.geometry.beats_per_row);

  const auto& faults = config.fault_config;
  set_u64("faults", "v_min_mv", static_cast<std::uint64_t>(faults.v_min.value));
  set_u64("faults", "v_first_flip_mv",
          static_cast<std::uint64_t>(faults.v_first_flip.value));
  set_u64("faults", "v_all_faulty_mv",
          static_cast<std::uint64_t>(faults.v_all_faulty.value));
  set_u64("faults", "v_critical_mv",
          static_cast<std::uint64_t>(faults.v_critical.value));
  set_f("faults", "stuck_at_one_share", faults.stuck_at_one_share);
  set_f("faults", "bulk_mid_volts", faults.bulk_mid_volts);
  set_f("faults", "bulk_sigma_volts", faults.bulk_sigma_volts);
  set_f("faults", "tail_k_weak", faults.tail_k_weak);
  set_f("faults", "tail_k_medium", faults.tail_k_medium);
  set_f("faults", "tail_k_strong", faults.tail_k_strong);
  set_f("faults", "temperature_c", faults.temperature_c);
  set_f("faults", "alpha_stuck_weight", faults.alpha_stuck_weight);

  set_u64("clustering", "cluster_count", config.weak_config.cluster_count);
  set_u64("clustering", "cluster_rows", config.weak_config.cluster_rows);
  set_u64("clustering", "cluster_key_shift",
          config.weak_config.cluster_key_shift);

  set_f("power", "p_full_load_w", config.power_config.p_full_load.value);
  set_f("power", "idle_fraction", config.power_config.idle_fraction);

  set_u64("regulator", "vout_default_mv",
          static_cast<std::uint64_t>(config.regulator_config.vout_default.value));
  set_u64("regulator", "vout_max_mv",
          static_cast<std::uint64_t>(config.regulator_config.vout_max.value));
  set_f("regulator", "droop_ohms", config.regulator_config.droop.value);

  set_f("monitor", "shunt_ohms", config.monitor_config.shunt.value);
  set_f("monitor", "noise_sigma_amps", config.monitor_config.noise_sigma_amps);
  set_f("monitor", "max_amps", config.monitor_max_amps);

  set_f("axi", "clock_hz", config.axi_clock.value);
  set_f("axi", "port_efficiency", config.port_efficiency);

  set_u64("board", "seed", config.seed);
  return ini;
}

}  // namespace hbmvolt::board
