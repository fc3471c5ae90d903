// vcgt_perfbench — the end-to-end benchmark binary.
//
//   vcgt_perfbench --workload rig_rk|row_implicit|serve_mix --seed N
//                  --seconds S --trace 0|1 [--refs DIR] [--out DIR]
//   vcgt_perfbench --workload W --emit-refs        (regenerate references)
//   vcgt_perfbench --print-schedule BLOCKS --seed N (serve_mix order)
//
// Prints one JSON object as its last stdout line: correct/attempted/failed,
// the metrics of the mode (end-to-end untraced, per-layer traced) and the
// run metadata. perfbench/run.py builds this binary and reduces that line
// to the benchmark's result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>

#include "perfbench/src/common.hpp"
#include "src/util/env_config.hpp"

extern char** environ;

namespace {

using perfbench::Result;

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Every VCGT_* variable in the environment ("NAME=value").
std::vector<std::string> vcgt_env() {
  std::vector<std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "VCGT_", 5) == 0) out.emplace_back(*e);
  }
  return out;
}

int usage(const char* why) {
  std::cerr << "vcgt_perfbench: " << why
            << "\nusage: vcgt_perfbench --workload rig_rk|row_implicit|serve_mix --seed N"
               " --seconds S --trace 0|1 [--refs DIR] [--out DIR] [--emit-refs]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  int schedule_blocks = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--emit-refs") {
      opt.emit_refs = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--refs") {
      opt.refs_dir = argv[++i];
    } else if (a == "--out") {
      opt.out_dir = argv[++i];
    } else if (a == "--print-schedule") {
      schedule_blocks = std::atoi(argv[++i]);
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }

  // A stray VCGT_OP2_LAYOUT or VCGT_FAULT_* would measure another program.
  if (const auto set = vcgt_env(); !set.empty()) {
    std::cerr << "vcgt_perfbench: refusing to run with VCGT_* knobs set:";
    for (const auto& s : set) std::cerr << " " << s;
    std::cerr << "\n";
    return 3;
  }

  try {
    if (schedule_blocks > 0) {
      perfbench::print_serve_schedule(opt, schedule_blocks);
      return 0;
    }
    Result res;
    if (opt.workload == "rig_rk") {
      res = perfbench::run_rig_rk(opt);
    } else if (opt.workload == "row_implicit") {
      res = perfbench::run_row_implicit(opt);
    } else if (opt.workload == "serve_mix") {
      res = perfbench::run_serve_mix(opt);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
    if (opt.emit_refs) return 0;

    if (opt.trace) {
      const auto floors = perfbench::measure_floors();
      res.set("hw.triad_gbs", floors.triad_gbs);
      res.set("op2.triad_gbs", floors.op2_triad_gbs);
      res.set("minimpi.pingpong_us", floors.pingpong_us);
      res.meta["triad_array_mb"] = json_num(floors.array_mb);
      res.meta["l3_mb"] = json_num(floors.l3_mb);
    }

    res.meta["workload"] = opt.workload;
    res.meta["seed"] = std::to_string(opt.seed);
    res.meta["seconds"] = json_num(opt.seconds);
    res.meta["trace"] = opt.trace ? "1" : "0";
    res.meta["build_type"] = PERFBENCH_BUILD_TYPE;
    res.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
    res.meta["vcgt_env"] = vcgt::util::env_config().describe();

    const auto& defs = opt.trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
    std::ostringstream js;
    js << "{\"correct\": " << (res.failed == 0 && res.attempted > 0 ? "true" : "false")
       << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      const auto it = res.values.find(defs[i].name);
      if (it == res.values.end() && !opt.trace) {
        throw std::logic_error(std::string("end-to-end metric not measured: ") + defs[i].name);
      }
      // A layer this workload does not run reports 0.
      const double v = it == res.values.end() ? 0.0 : it->second;
      js << (i ? ", " : "") << json_str(defs[i].name) << ": {\"value\": " << json_num(v)
         << ", \"unit\": " << json_str(defs[i].unit) << "}";
    }
    js << "}, \"failures\": [";
    for (std::size_t i = 0; i < res.failures.size(); ++i) {
      js << (i ? ", " : "") << json_str(res.failures[i]);
    }
    js << "], \"meta\": {";
    bool first = true;
    for (const auto& [k, v] : res.meta) {
      js << (first ? "" : ", ") << json_str(k) << ": " << json_str(v);
      first = false;
    }
    js << "}}";
    std::cout << js.str() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "vcgt_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
