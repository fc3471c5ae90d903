// vcgt_scheme_hashes — bit-identity fingerprint of hydra's schemes.
//
// Runs one rotor row (12 blades, mesh {6, 4, 24}, wake 0.3, axial load 0.5,
// back pressure 1.02, omega 1000 rad/s, serial) for 40 inner iterations in
// each of the 12 (MUSCL, viscous, Roe, no-slip walls) combinations and
// prints FNV-1a of the bytes of `q` as a markdown table. A change meant to
// keep results bit-identical must print the same table before and after
// (EXPERIMENTS.md lists the current one):
//
//   ./build/tools/vcgt_scheme_hashes
#include <cstdio>
#include <span>

#include "src/hydra/solver.hpp"
#include "src/rig/annulus.hpp"
#include "src/util/bytes.hpp"

int main() {
  using namespace vcgt;
  rig::RowSpec row;
  row.name = "R";
  row.rotor = true;
  row.nblades = 12;
  const auto mesh = rig::generate_row_mesh(row, {6, 4, 24});
  std::printf("| MUSCL | viscous | Roe | no-slip walls | `q` hash |\n|---|---|---|---|---|\n");
  for (const bool muscl : {false, true}) {
    for (const bool viscous : {false, true}) {
      for (const bool roe : {false, true}) {
        for (const bool no_slip : {false, true}) {
          if (no_slip && !viscous) continue;  // walls only shear when viscous
          hydra::FlowConfig cfg;
          cfg.second_order = muscl;
          cfg.viscous = viscous;
          cfg.no_slip_walls = no_slip;
          cfg.flux_scheme =
              roe ? hydra::FlowConfig::FluxScheme::Roe : hydra::FlowConfig::FluxScheme::Rusanov;
          cfg.blade_wake_frac = 0.3;
          cfg.rotor_axial_load = 0.5;
          cfg.p_back_ratio = 1.02;
          op2::Context ctx;
          hydra::RowSolver solver(ctx, mesh, row, 1000.0, cfg);
          ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
          solver.initialize();
          solver.advance_inner(40);
          const auto q = ctx.fetch_global(solver.q());
          const auto h = util::fnv1a_bytes(std::as_bytes(std::span<const double>(q)));
          std::printf("| %d | %d | %d | %d | `%016llx` |\n", muscl, viscous, roe, no_slip,
                      static_cast<unsigned long long>(h));
        }
      }
    }
  }
  return 0;
}
