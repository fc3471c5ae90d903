// Hardware floors measured in the traced run's process: what the host can
// stream from memory (plain C++ and through op2) and what one minimpi
// round trip costs. The layer numbers are read against these.
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "perfbench/src/common.hpp"
#include "src/op2/op2.hpp"

namespace perfbench {

namespace {

std::size_t l3_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return l3 > 0 ? static_cast<std::size_t>(l3) : std::size_t{105} << 20;
}

constexpr int kTriadReps = 5;
constexpr double kScalar = 3.0;

/// STREAM counts 3 words per element: two loads and one store.
double gbs(std::size_t n, double seconds) {
  return 3.0 * sizeof(double) * static_cast<double>(n) / seconds * 1e-9;
}

double plain_triad(std::size_t n) {
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  std::vector<double> rates;
  for (int rep = 0; rep < kTriadReps; ++rep) {
    const double t0 = now_s();
    double* __restrict pa = a.data();
    const double* __restrict pb = b.data();
    const double* __restrict pc = c.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + kScalar * pc[i];
    rates.push_back(gbs(n, now_s() - t0));
  }
  if (a[n / 2] != 1.0 + kScalar * 2.0) return 0.0;  // triad went wrong: no floor
  return median(rates);
}

double op2_triad(std::size_t n) {
  vcgt::op2::Context ctx;
  auto& set = ctx.decl_set("triad", static_cast<vcgt::op2::gindex_t>(n));
  auto& a = ctx.decl_dat<double>(set, 1, "a");
  auto& b = ctx.decl_dat<double>(set, 1, "b", std::vector<double>(n, 1.0));
  auto& c = ctx.decl_dat<double>(set, 1, "c", std::vector<double>(n, 2.0));
  std::vector<double> rates;
  for (int rep = 0; rep < kTriadReps; ++rep) {
    const double t0 = now_s();
    vcgt::op2::par_loop(
        "triad", set,
        [](const double* bv, const double* cv, double* av) { *av = *bv + kScalar * *cv; },
        vcgt::op2::read(b), vcgt::op2::read(c), vcgt::op2::write(a));
    rates.push_back(gbs(n, now_s() - t0));
  }
  if (a.elem(static_cast<vcgt::op2::index_t>(n / 2))[0] != 1.0 + kScalar * 2.0) return 0.0;
  return median(rates);
}

double pingpong_us() {
  constexpr int kBatches = 21;
  constexpr int kTrips = 400;
  std::vector<double> per_trip;
  vcgt::minimpi::World::run(2, [&](vcgt::minimpi::Comm& comm) {
    const std::uint64_t payload = 42;
    for (int batch = 0; batch < kBatches; ++batch) {
      comm.barrier();
      const double t0 = now_s();
      for (int i = 0; i < kTrips; ++i) {
        if (comm.rank() == 0) {
          comm.send_value(payload, 1, 7);
          (void)comm.recv_value<std::uint64_t>(1, 8);
        } else {
          (void)comm.recv_value<std::uint64_t>(0, 7);
          comm.send_value(payload, 0, 8);
        }
      }
      if (comm.rank() == 0) per_trip.push_back((now_s() - t0) / kTrips * 1e6);
    }
  });
  return median(per_trip);
}

}  // namespace

Floors measure_floors() {
  Floors f;
  // Each triad array is at least 4x the last-level cache (STREAM's rule),
  // so the triad streams from DRAM rather than cache.
  const std::size_t n = 4 * l3_bytes() / sizeof(double) + 1;
  f.array_mb = static_cast<double>(n * sizeof(double)) / (1 << 20);
  f.l3_mb = static_cast<double>(l3_bytes()) / (1 << 20);
  f.triad_gbs = plain_triad(n);
  f.op2_triad_gbs = op2_triad(n);
  f.pingpong_us = pingpong_us();
  return f;
}

}  // namespace perfbench
