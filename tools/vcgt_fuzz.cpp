// vcgt_fuzz — the vcgt::verify campaign driver (DESIGN.md §9).
//
//   vcgt_fuzz --cases 200 --seed 1 [--out DIR] [--stop-on-first]
//     Runs N seeded cases through the full backend × fault matrix;
//     on mismatch, shrinks and writes a repro to DIR. Exit 1 on mismatch.
//
//   vcgt_fuzz --replay FILE.vcgt [FILE2.vcgt ...]
//     Re-executes repro files deterministically through the same matrix.
//     Exit 0 when every file passes cleanly (the regression-corpus mode
//     used by ctest label `fuzz`), 1 when any mismatches.
//
//   vcgt_fuzz --print-case SEED INDEX
//     Dumps the generated spec for one campaign case (triage aid).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/env_config.hpp"
#include "src/verify/verify.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --cases N [--seed S] [--out DIR] [--max-repros N]"
               " [--stop-on-first]\n"
               "       %s --replay FILE.vcgt [FILE...]\n"
               "       %s --print-case SEED INDEX\n",
               argv0, argv0, argv0);
  return 2;
}

int replay(const std::vector<std::string>& files) {
  int failures = 0;
  for (const std::string& path : files) {
    std::ifstream f(path);
    if (!f) {
      std::fprintf(stderr, "vcgt_fuzz: cannot open %s\n", path.c_str());
      ++failures;
      continue;
    }
    std::ostringstream text;
    text << f.rdbuf();
    try {
      const auto spec = vcgt::verify::parse_repro(text.str());
      const auto m = vcgt::verify::check_case(spec);
      if (m) {
        std::fprintf(stderr, "FAIL %s: [%s] %s\n", path.c_str(), m->config.c_str(),
                     m->what.c_str());
        ++failures;
      } else {
        std::printf("PASS %s (%zu loops)\n", path.c_str(), spec.loops.size());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(), e.what());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  vcgt::verify::CampaignOptions opts;
  std::vector<std::string> replay_files;
  bool have_cases = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "vcgt_fuzz: %s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--print-config") {
      // The effective VCGT_* environment as the typed loader sees it —
      // what a campaign actually ran under (DESIGN.md; util::env_config).
      std::fputs(vcgt::util::env_config().describe().c_str(), stdout);
      return 0;
    }
    if (arg == "--cases") {
      opts.cases = std::strtoull(next("--cases").c_str(), nullptr, 10);
      have_cases = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(next("--seed").c_str(), nullptr, 10);
    } else if (arg == "--out") {
      opts.out_dir = next("--out");
    } else if (arg == "--max-repros") {
      opts.max_repros = std::atoi(next("--max-repros").c_str());
    } else if (arg == "--stop-on-first") {
      opts.stop_on_first = true;
    } else if (arg == "--replay") {
      while (i + 1 < argc) replay_files.push_back(argv[++i]);
      if (replay_files.empty()) return usage(argv[0]);
    } else if (arg == "--print-case") {
      const auto seed = std::strtoull(next("--print-case").c_str(), nullptr, 10);
      const auto index = std::strtoull(next("--print-case index").c_str(), nullptr, 10);
      const auto spec = vcgt::verify::gen_case(seed, index);
      std::fputs(vcgt::verify::format_repro(spec).c_str(), stdout);
      return 0;
    } else {
      return usage(argv[0]);
    }
  }

  if (!replay_files.empty()) return replay(replay_files);
  if (!have_cases) return usage(argv[0]);

  const auto rep = vcgt::verify::run_campaign(opts);
  std::printf("vcgt_fuzz: %llu cases, %llu mismatches, %zu repros, %.1f s (%.1f cases/s)\n",
              static_cast<unsigned long long>(rep.cases_run),
              static_cast<unsigned long long>(rep.mismatches), rep.repro_paths.size(),
              rep.seconds, rep.seconds > 0 ? static_cast<double>(rep.cases_run) / rep.seconds
                                           : 0.0);
  for (const auto& p : rep.repro_paths) std::printf("  repro: %s\n", p.c_str());
  return rep.mismatches == 0 ? 0 : 1;
}
