#include "src/util/env_config.hpp"

#include <cstdlib>

#include "src/util/fmt.hpp"

namespace vcgt::util {

namespace {

void parse_string(EnvConfig& cfg, const char* name, std::optional<std::string>* out) {
  if (const char* v = std::getenv(name)) {
    (void)cfg;
    *out = std::string(v);
  }
}

void parse_double(EnvConfig& cfg, const char* name, std::optional<double>* out) {
  const char* v = std::getenv(name);
  if (!v) return;
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || (end && *end != '\0')) {
    cfg.warnings.push_back(fmt("{}: not a number: '{}'", name, v));
    return;
  }
  *out = d;
}

void parse_int(EnvConfig& cfg, const char* name, std::optional<int>* out) {
  const char* v = std::getenv(name);
  if (!v) return;
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  if (end == v || (end && *end != '\0')) {
    cfg.warnings.push_back(fmt("{}: not an integer: '{}'", name, v));
    return;
  }
  *out = static_cast<int>(n);
}

void parse_u64(EnvConfig& cfg, const char* name, std::optional<std::uint64_t>* out) {
  const char* v = std::getenv(name);
  if (!v) return;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (end == v || (end && *end != '\0')) {
    cfg.warnings.push_back(fmt("{}: not an unsigned integer: '{}'", name, v));
    return;
  }
  *out = static_cast<std::uint64_t>(n);
}

std::string pad(const char* name) {
  std::string s = "  ";
  s += name;
  while (s.size() < 25) s += ' ';
  return s;
}

template <class T>
std::string show(const char* name, const std::optional<T>& v) {
  if (!v) return pad(name) + "(unset)\n";
  return pad(name) + fmt("{}", *v) + "\n";
}

}  // namespace

EnvConfig env_config() {
  EnvConfig cfg;
  parse_string(cfg, "VCGT_LOG", &cfg.log_level);
  parse_int(cfg, "VCGT_OP2_CHAIN_TILE", &cfg.op2_chain_tile);
  parse_double(cfg, "VCGT_RECV_TIMEOUT", &cfg.recv_timeout);
  parse_int(cfg, "VCGT_RECV_RETRIES", &cfg.recv_retries);
  parse_double(cfg, "VCGT_STALL_TIMEOUT", &cfg.stall_timeout);
  parse_u64(cfg, "VCGT_FAULT_SEED", &cfg.fault_seed);
  parse_double(cfg, "VCGT_FAULT_P_DELAY", &cfg.fault_p_delay);
  parse_double(cfg, "VCGT_FAULT_P_DUP", &cfg.fault_p_dup);
  parse_double(cfg, "VCGT_FAULT_P_REORDER", &cfg.fault_p_reorder);
  parse_double(cfg, "VCGT_FAULT_P_DROP", &cfg.fault_p_drop);
  parse_string(cfg, "VCGT_FAULT_KILL", &cfg.fault_kill);
  return cfg;
}

std::string EnvConfig::describe() const {
  std::string out = "VCGT_* environment configuration:\n";
  out += show("VCGT_LOG", log_level);
  out += show("VCGT_OP2_CHAIN_TILE", op2_chain_tile);
  out += show("VCGT_RECV_TIMEOUT", recv_timeout);
  out += show("VCGT_RECV_RETRIES", recv_retries);
  out += show("VCGT_STALL_TIMEOUT", stall_timeout);
  out += show("VCGT_FAULT_SEED", fault_seed);
  out += show("VCGT_FAULT_P_DELAY", fault_p_delay);
  out += show("VCGT_FAULT_P_DUP", fault_p_dup);
  out += show("VCGT_FAULT_P_REORDER", fault_p_reorder);
  out += show("VCGT_FAULT_P_DROP", fault_p_drop);
  out += show("VCGT_FAULT_KILL", fault_kill);
  for (const auto& w : warnings) out += "  warning: " + w + "\n";
  return out;
}

}  // namespace vcgt::util
