#pragma once
// One typed loader for every VCGT_* environment variable.
//
// The knobs grew up scattered: VCGT_LOG in util/log.cpp, VCGT_OP2_* in the
// op2 Context constructor, VCGT_FAULT_* in minimpi/fault.cpp and
// VCGT_RECV_TIMEOUT/RETRIES + VCGT_STALL_TIMEOUT in World::options_from_env
// — four private parsers, four error conventions, no way to dump what a run
// actually saw. env_config() parses the whole namespace in one place into
// typed optionals (unset variables stay nullopt so each consumer keeps its
// own default), collects warnings for malformed values instead of silently
// ignoring them, and can render the effective configuration for the tools'
// --print-config flag. Consumers re-parse on each call — tests setenv() at
// runtime, so caching here would freeze the first test's environment.
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace vcgt::util {

struct EnvConfig {
  // --- util ---------------------------------------------------------------
  std::optional<std::string> log_level;  ///< VCGT_LOG: debug|info|warn|error|off

  // --- op2 ----------------------------------------------------------------
  std::optional<int> op2_chain_tile;  ///< VCGT_OP2_CHAIN_TILE (> 0)

  // --- minimpi robustness ---------------------------------------------------
  std::optional<double> recv_timeout;   ///< VCGT_RECV_TIMEOUT [s]
  std::optional<int> recv_retries;      ///< VCGT_RECV_RETRIES
  std::optional<double> stall_timeout;  ///< VCGT_STALL_TIMEOUT [s]

  // --- fault injection ------------------------------------------------------
  std::optional<std::uint64_t> fault_seed;  ///< VCGT_FAULT_SEED
  std::optional<double> fault_p_delay;      ///< VCGT_FAULT_P_DELAY
  std::optional<double> fault_p_dup;        ///< VCGT_FAULT_P_DUP
  std::optional<double> fault_p_reorder;    ///< VCGT_FAULT_P_REORDER
  std::optional<double> fault_p_drop;       ///< VCGT_FAULT_P_DROP
  std::optional<std::string> fault_kill;    ///< VCGT_FAULT_KILL: "<rank>:<op>"

  /// Malformed values encountered while parsing (the variable keeps its
  /// consumer-side default; the message names the variable and the input).
  std::vector<std::string> warnings;

  /// Human-readable dump of every knob — set values with their source
  /// variable, unset ones marked "(unset)" — for the tools' --print-config.
  [[nodiscard]] std::string describe() const;
};

/// Parses the VCGT_* environment afresh (no caching; see header comment).
EnvConfig env_config();

}  // namespace vcgt::util
