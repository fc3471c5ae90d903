#include "src/jm76/coupled.hpp"

#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>

#include "src/rig/annulus.hpp"
#include "src/util/log.hpp"
#include "src/util/timer.hpp"
#include "src/util/trace.hpp"

namespace vcgt::jm76 {

using hydra::RowSolver;
using op2::gindex_t;
using op2::index_t;
using rig::BoundaryGroup;

namespace {

constexpr int kPayload = RowSolver::kPayload;

// World-communicator tags. dir 0: donor = row i Outlet -> targets = row i+1
// Inlet; dir 1: donor = row i+1 Inlet -> targets = row i Outlet.
int tag_setup(int iface, int dir) { return 100 + iface * 2 + dir; }
int tag_donor(int iface, int dir, int component) {
  return 5000 + (iface * 2 + dir) * 16 + component;
}
int tag_ghost(int iface, int dir) { return 9000 + iface * 2 + dir; }

/// Packs the (count, gids, payload) wire format the staged-donor and ghost
/// messages share into a pooled buffer and ships it zero-copy.
void send_packed(minimpi::Comm& world, int dst, int tag, std::span<const gindex_t> gids,
                 std::span<const double> payload) {
  const std::uint64_t n = gids.size();
  minimpi::Buffer buf = world.lease(sizeof(n) + gids.size_bytes() + payload.size_bytes());
  std::byte* out = buf.data();
  std::memcpy(out, &n, sizeof(n));
  if (n > 0) {  // an empty span's data() may be null, which memcpy forbids
    std::memcpy(out + sizeof(n), gids.data(), gids.size_bytes());
    std::memcpy(out + sizeof(n) + gids.size_bytes(), payload.data(), payload.size_bytes());
  }
  world.send_owned(std::move(buf), dst, tag);
}

/// Inverse of send_packed: receives the slab (owned — it recycles on return)
/// and unpacks into the caller's typed arrays.
void recv_packed(minimpi::Comm& world, int src, int tag, std::vector<gindex_t>* gids,
                 std::vector<double>* payload) {
  const minimpi::Buffer buf = world.recv_owned(src, tag);
  std::uint64_t n = 0;
  std::memcpy(&n, buf.data(), sizeof(n));
  gids->resize(n);
  payload->resize(n * static_cast<std::size_t>(kPayload));
  if (n == 0) return;  // empty vectors' data() may be null
  const std::byte* in = buf.data() + sizeof(n);
  std::memcpy(gids->data(), in, n * sizeof(gindex_t));
  std::memcpy(payload->data(), in + n * sizeof(gindex_t), payload->size() * sizeof(double));
}

/// Donor payload send: staged (GG on) packs gids+values into one message;
/// unstaged sends the gid list plus one message per field component,
/// modelling the per-dat device-to-host copies GG eliminates (Table III).
void send_donor(minimpi::Comm& world, int dst, int iface, int dir,
                std::span<const gindex_t> gids, std::span<const double> payload,
                bool staged) {
  if (staged) {
    send_packed(world, dst, tag_donor(iface, dir, 0), gids, payload);
    return;
  }
  world.send(gids, dst, tag_donor(iface, dir, 0));
  std::vector<double> comp(gids.size());
  for (int c = 0; c < kPayload; ++c) {
    for (std::size_t i = 0; i < gids.size(); ++i) {
      comp[i] = payload[i * static_cast<std::size_t>(kPayload) + static_cast<std::size_t>(c)];
    }
    world.send(std::span<const double>(comp), dst, tag_donor(iface, dir, 1 + c));
  }
}

void recv_donor(minimpi::Comm& world, int src, int iface, int dir,
                std::vector<gindex_t>* gids, std::vector<double>* payload, bool staged) {
  if (staged) {
    recv_packed(world, src, tag_donor(iface, dir, 0), gids, payload);
    return;
  }
  *gids = world.recv<gindex_t>(src, tag_donor(iface, dir, 0));
  payload->assign(gids->size() * static_cast<std::size_t>(kPayload), 0.0);
  for (int c = 0; c < kPayload; ++c) {
    const auto comp = world.recv<double>(src, tag_donor(iface, dir, 1 + c));
    for (std::size_t i = 0; i < comp.size(); ++i) {
      (*payload)[i * static_cast<std::size_t>(kPayload) + static_cast<std::size_t>(c)] =
          comp[i];
    }
  }
}

/// Runs one transfer (send or receive), converting the structured minimpi
/// failures into a TransferError naming the coupling endpoint. WorldAborted
/// is left alone: it means the world died, not that this transfer failed.
template <class Fn>
decltype(auto) guarded_transfer(const char* role, int iface, int dir, int peer, Fn&& fn) {
  try {
    return fn();
  } catch (const minimpi::RecvTimeout& e) {
    throw TransferError(util::fmt("jm76: {} transfer (iface {}, dir {}, peer rank {}) timed out: {}",
                                  role, iface, dir, peer, e.what()),
                        role, iface, dir, peer);
  } catch (const minimpi::TransientSendError& e) {
    throw TransferError(util::fmt("jm76: {} transfer (iface {}, dir {}, peer rank {}) failed: {}",
                                  role, iface, dir, peer, e.what()),
                        role, iface, dir, peer);
  }
}

/// Ghost return message: gids + interpolated payload in one packed buffer.
void send_ghost(minimpi::Comm& world, int dst, int iface, int dir,
                std::span<const gindex_t> gids, std::span<const double> payload) {
  send_packed(world, dst, tag_ghost(iface, dir), gids, payload);
}

void recv_ghost(minimpi::Comm& world, int src, int iface, int dir,
                std::vector<gindex_t>* gids, std::vector<double>* payload) {
  recv_packed(world, src, tag_ghost(iface, dir), gids, payload);
}

}  // namespace

namespace {
/// Validates the world against the layout before any role lookup (a rank
/// beyond the layout must produce the size-mismatch error, not an
/// out-of-range role).
Role checked_role(const minimpi::Comm& world, const Layout& layout) {
  if (world.size() != layout.world_size()) {
    throw std::invalid_argument(util::fmt("CoupledRig: world size {} != layout size {}",
                                          world.size(), layout.world_size()));
  }
  return layout.role_of(world.rank());
}
}  // namespace

CoupledRig::CoupledRig(minimpi::Comm& world, const CoupledConfig& cfg)
    : world_(world), cfg_(cfg), layout_(cfg.layout()),
      role_(checked_role(world, layout_)) {
  stats_.world_rank = world.rank();

  // Row sub-communicators (collective: every rank must call split).
  const int color = role_.kind == Role::Kind::HydraSession ? role_.row : -1;
  minimpi::Comm row_comm = world.split(color, world.rank());

  if (role_.kind == Role::Kind::HydraSession) {
    stats_.is_cu = 0;
    stats_.row_or_iface = role_.row;
    const auto& row = cfg_.rig.rows[static_cast<std::size_t>(role_.row)];
    ctx_ = std::make_unique<op2::Context>(row_comm, cfg_.op2cfg);
    if (cfg_.plan_cache != nullptr) {
      // Per-row discriminator: every row's context shares the spec hash but
      // declares a different mesh, so their cache keys must not collide.
      ctx_->set_plan_cache(cfg_.plan_cache,
                           cfg_.spec_hash ^
                               (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(role_.row + 1)));
    }
    if (cfg_.sharded_setup) {
      // Billion-node path: this rank synthesizes only its shard of the row
      // and the shard-aware partitioner reproduces the monolithic Block
      // setup bit-identically (DESIGN.md §13). No whole-row mesh exists on
      // any HS rank.
      const rig::ShardSpec sspec{row_comm.rank(), row_comm.size()};
      const rig::RowShard shard = rig::generate_row_shard(row, cfg_.res, sspec);
      solver_ = std::make_unique<RowSolver>(*ctx_, shard, row, cfg_.rig.omega(), cfg_.flow);
      if (role_.row > 0) solver_->set_coupled(BoundaryGroup::Inlet, true);
      if (role_.row < layout_.nrows() - 1) solver_->set_coupled(BoundaryGroup::Outlet, true);
      ctx_->partition_sharded({&solver_->cells()});
    } else {
      const auto mesh = row_mesh(role_.row);
      solver_ = std::make_unique<RowSolver>(*ctx_, *mesh, row, cfg_.rig.omega(), cfg_.flow);
      if (role_.row > 0) solver_->set_coupled(BoundaryGroup::Inlet, true);
      if (role_.row < layout_.nrows() - 1) solver_->set_coupled(BoundaryGroup::Outlet, true);
      ctx_->partition(cfg_.partitioner, solver_->cell_center());
    }
    // Adopt cached plans before the first par_loop (initialize() below
    // already runs loops): a warm spec skips every plan build, a cold one
    // proceeds normally. Collective across the row.
    ctx_->import_plans_from_cache();
    solver_->initialize();
    stats_.owned_cells = static_cast<std::uint64_t>(solver_->cells().n_owned());
  } else {
    stats_.is_cu = 1;
    stats_.row_or_iface = role_.iface;
  }
}

std::shared_ptr<const rig::AnnulusMesh> CoupledRig::row_mesh(int row) const {
  const auto& spec = cfg_.rig.rows[static_cast<std::size_t>(row)];
  if (cfg_.plan_cache == nullptr) {
    return std::make_shared<const rig::AnnulusMesh>(rig::generate_row_mesh(spec, cfg_.res));
  }
  // Mesh generation is deterministic from (row spec, resolution), both
  // covered by the spec hash — every rank that needs row `row`'s mesh (its
  // HS ranks and the adjacent interfaces' CUs) shares one immutable copy.
  // Single-flight: concurrent ranks of a cold session wait for the first
  // builder instead of each generating the mesh. Generation is local, so
  // the wait never spans a collective.
  const std::string key = util::fmt("mesh:{}:row{}", cfg_.spec_hash, row);
  return cfg_.plan_cache->get_or_build_as<rig::AnnulusMesh>(key, [&] {
    auto mesh = std::make_shared<const rig::AnnulusMesh>(rig::generate_row_mesh(spec, cfg_.res));
    const std::size_t bytes =
        (mesh->face2cell.size() + mesh->bface2cell.size()) * sizeof(index_t) +
        (mesh->cell_center.size() + mesh->cell_vol.size() + mesh->cell_rtheta.size() +
         mesh->face_normal.size() + mesh->face_center.size() + mesh->bface_normal.size() +
         mesh->bface_center.size() + mesh->bface_rtheta.size()) *
            sizeof(double) +
        mesh->bface_group.size() * sizeof(int) + 256;
    return std::pair{mesh, bytes};
  });
}

CoupledRig::~CoupledRig() = default;

void CoupledRig::run(int nsteps, int inner, const StepFn& on_step) {
  if (inner < 0) inner = cfg_.flow.inner_iters;
  if (role_.kind == Role::Kind::HydraSession) {
    run_hs(nsteps, inner, on_step);
  } else {
    run_cu(nsteps);
  }
  base_time_ += nsteps * cfg_.flow.dt_phys;
}

void CoupledRig::reinitialize() {
  if (solver_) solver_->initialize();
  base_time_ = 0.0;
  reset_stats();
}

void CoupledRig::export_plans() {
  if (ctx_) ctx_->export_plans_to_cache();
}

void CoupledRig::run_hs(int nsteps, int inner, const StepFn& on_step) {
  RowSolver& solver = *solver_;
  const int row = role_.row;
  const int K = layout_.ninterfaces() > 0 ? layout_.cus_per_interface() : 0;
  const bool inlet_coupled = row > 0;
  const bool outlet_coupled = row < layout_.nrows() - 1;

  // Setup: announce owned target gids to the CUs of the adjacent interfaces.
  std::vector<gindex_t> gids;
  std::vector<double> payload;
  if (inlet_coupled) {
    std::vector<double> dummy;
    solver.gather_owned_face_states(BoundaryGroup::Inlet, &gids, &dummy);
    for (int u = 0; u < K; ++u) {
      world_.send(std::span<const gindex_t>(gids), layout_.cu_world_rank(row - 1, u),
                  tag_setup(row - 1, 0));
    }
  }
  if (outlet_coupled) {
    std::vector<double> dummy;
    solver.gather_owned_face_states(BoundaryGroup::Outlet, &gids, &dummy);
    for (int u = 0; u < K; ++u) {
      world_.send(std::span<const gindex_t>(gids), layout_.cu_world_rank(row, u),
                  tag_setup(row, 1));
    }
  }

  util::Stopwatch wait_sw;
  util::Timer total;

  auto send_states = [&]() {
    trace::Span tspan("coupler:send_states");
    // Donor roles: my Outlet feeds interface `row` dir 0; my Inlet feeds
    // interface `row-1` dir 1.
    if (outlet_coupled) {
      solver.gather_owned_face_states(BoundaryGroup::Outlet, &gids, &payload);
      for (int u = 0; u < K; ++u) {
        const int cu = layout_.cu_world_rank(row, u);
        guarded_transfer("HS", row, 0, cu, [&] {
          send_donor(world_, cu, row, 0, gids, payload, cfg_.staged_gather);
        });
      }
    }
    if (inlet_coupled) {
      solver.gather_owned_face_states(BoundaryGroup::Inlet, &gids, &payload);
      for (int u = 0; u < K; ++u) {
        const int cu = layout_.cu_world_rank(row - 1, u);
        guarded_transfer("HS", row - 1, 1, cu, [&] {
          send_donor(world_, cu, row - 1, 1, gids, payload, cfg_.staged_gather);
        });
      }
    }
  };

  auto recv_ghosts = [&]() {
    trace::Span tspan("coupler:recv_ghosts");
    const util::ScopedTimer st(wait_sw);
    // Target roles: my Inlet receives from interface `row-1` dir 0; my
    // Outlet from interface `row` dir 1.
    std::vector<gindex_t> all_gids;
    std::vector<double> all_payload;
    if (inlet_coupled) {
      all_gids.clear();
      all_payload.clear();
      for (int u = 0; u < K; ++u) {
        const int cu = layout_.cu_world_rank(row - 1, u);
        guarded_transfer("HS", row - 1, 0, cu,
                         [&] { recv_ghost(world_, cu, row - 1, 0, &gids, &payload); });
        all_gids.insert(all_gids.end(), gids.begin(), gids.end());
        all_payload.insert(all_payload.end(), payload.begin(), payload.end());
      }
      solver.scatter_ghosts(BoundaryGroup::Inlet, all_gids, all_payload);
    }
    if (outlet_coupled) {
      all_gids.clear();
      all_payload.clear();
      for (int u = 0; u < K; ++u) {
        const int cu = layout_.cu_world_rank(row, u);
        guarded_transfer("HS", row, 1, cu,
                         [&] { recv_ghost(world_, cu, row, 1, &gids, &payload); });
        all_gids.insert(all_gids.end(), gids.begin(), gids.end());
        all_payload.insert(all_payload.end(), payload.begin(), payload.end());
      }
      solver.scatter_ghosts(BoundaryGroup::Outlet, all_gids, all_payload);
    }
  };

  for (int t = 0; t < nsteps; ++t) {
    trace::Span tstep("hs:step");
    if (tstep.active()) {
      tstep.arg("step", static_cast<double>(t));
      tstep.arg("row", static_cast<double>(row));
    }
    if (cfg_.pipelined) {
      // One-step-lagged coupling: ghosts computed by the CUs while the
      // previous step's inner iterations ran are consumed now (overlap).
      if (t > 0) recv_ghosts();
      if (t < nsteps - 1) send_states();
    } else {
      send_states();
      recv_ghosts();
    }
    solver.advance_inner(inner);
    solver.shift_time_levels();
    if (on_step) on_step(t);
  }

  stats_.step_seconds = total.elapsed();
  stats_.coupler_wait = wait_sw.total();
  const auto op2_stats = ctx_->total_stats();
  stats_.halo_bytes = op2_stats.halo_bytes;
  stats_.halo_msgs = op2_stats.halo_msgs;
  stats_.halo_seconds = op2_stats.halo_seconds;
}

void CoupledRig::run_cu(int nsteps) {
  const int iface = role_.iface;
  const int K = layout_.cus_per_interface();
  const int unit = role_.unit;
  const double sector_lo = 2.0 * std::numbers::pi * unit / K;
  const double sector_hi = 2.0 * std::numbers::pi * (unit + 1) / K;

  const auto& row_u = cfg_.rig.rows[static_cast<std::size_t>(iface)];
  const auto& row_d = cfg_.rig.rows[static_cast<std::size_t>(iface) + 1];
  const auto mesh_u = row_mesh(iface);
  const auto mesh_d = row_mesh(iface + 1);
  const auto side_u = rig::extract_interface(*mesh_u, row_u, BoundaryGroup::Outlet);
  const auto side_d = rig::extract_interface(*mesh_d, row_d, BoundaryGroup::Inlet);

  struct Direction {
    const rig::InterfaceSide* donor;
    const rig::InterfaceSide* target;
    int donor_row;
    int target_row;
    std::unique_ptr<Interpolator> interp;
    std::unique_ptr<MixingPlane> mixing;
    std::vector<double> donor_payload;  ///< indexed by donor gid
    std::vector<int> tgt_ranks;                    ///< world ranks (target HS)
    std::vector<std::vector<gindex_t>> tgt_gids;   ///< per target HS rank, sector-filtered
  };
  Direction dirs[2];
  dirs[0] = {&side_u, &side_d, iface, iface + 1, nullptr, nullptr, {}, {}, {}};
  dirs[1] = {&side_d, &side_u, iface + 1, iface, nullptr, nullptr, {}, {}, {}};

  for (int d = 0; d < 2; ++d) {
    auto& dir = dirs[d];
    dir.interp = std::make_unique<Interpolator>(*dir.donor, cfg_.search, cfg_.interp);
    if (cfg_.transfer == TransferKind::MixingPlane) {
      dir.mixing = std::make_unique<MixingPlane>(*dir.donor);
    }
    dir.donor_payload.assign(
        static_cast<std::size_t>(dir.donor->size()) * static_cast<std::size_t>(kPayload),
        0.0);
    // Setup: receive each target-row HS rank's owned gid list; keep this
    // unit's share — a contiguous circumferential sector (the paper's
    // partitioning) or round-robin interleaved theta columns.
    const int nhs = layout_.hs_count(dir.target_row);
    for (int h = 0; h < nhs; ++h) {
      const int wrank = layout_.hs_world_rank(dir.target_row, h);
      const auto owned = guarded_transfer("CU", iface, d, wrank, [&] {
        return world_.recv<gindex_t>(wrank, tag_setup(iface, d));
      });
      std::vector<gindex_t> mine;
      for (const gindex_t g : owned) {
        bool take;
        if (cfg_.cu_partition == CoupledConfig::CuPartition::Sector) {
          const double th = dir.target->rtheta[static_cast<std::size_t>(g) * 2 + 1];
          take = th >= sector_lo && th < sector_hi;
        } else {
          take = (g / dir.target->nr) % K == unit;  // theta-column interleave
        }
        if (take) mine.push_back(g);
      }
      dir.tgt_ranks.push_back(wrank);
      dir.tgt_gids.push_back(std::move(mine));
    }
  }

  util::Stopwatch idle_sw, search_sw;
  const double omega = cfg_.rig.omega();
  const double dt = cfg_.flow.dt_phys;
  std::vector<gindex_t> gids;
  std::vector<double> payload;

  const double base_time = base_time_;
  const int iters = cfg_.pipelined ? nsteps - 1 : nsteps;
  for (int t = 0; t < iters; ++t) {
    trace::Span tstep("cu:step");
    if (tstep.active()) {
      tstep.arg("step", static_cast<double>(t));
      tstep.arg("iface", static_cast<double>(iface));
    }
    // Receive donor payloads from every donor-row HS rank, both directions.
    {
      trace::Span trecv("cu:recv_donors");
      const util::ScopedTimer st(idle_sw);
      for (int d = 0; d < 2; ++d) {
        auto& dir = dirs[d];
        const int nhs = layout_.hs_count(dir.donor_row);
        for (int h = 0; h < nhs; ++h) {
          const int wrank = layout_.hs_world_rank(dir.donor_row, h);
          guarded_transfer("CU", iface, d, wrank, [&] {
            recv_donor(world_, wrank, iface, d, &gids, &payload, cfg_.staged_gather);
          });
          for (std::size_t i = 0; i < gids.size(); ++i) {
            std::memcpy(dir.donor_payload.data() +
                            static_cast<std::size_t>(gids[i]) * kPayload,
                        payload.data() + i * static_cast<std::size_t>(kPayload),
                        sizeof(double) * kPayload);
          }
        }
      }
    }

    // Search + interpolate + return, per direction. The ghost consumers run
    // at physical step (t+1) in pipelined mode; base_time carries over from
    // previous run() segments and checkpoint restarts.
    const double step_time = base_time + (cfg_.pipelined ? t + 1 : t) * dt;
    {
      trace::Span tsearch("cu:search_interp");
      const util::ScopedTimer st(search_sw);
      for (int d = 0; d < 2; ++d) {
        auto& dir = dirs[d];
        const double phi_donor =
            cfg_.rig.rows[static_cast<std::size_t>(dir.donor_row)].rotor ? omega * step_time
                                                                         : 0.0;
        const double phi_target =
            cfg_.rig.rows[static_cast<std::size_t>(dir.target_row)].rotor
                ? omega * step_time
                : 0.0;
        const double rotation = phi_donor - phi_target;
        const double cr = std::cos(rotation), sr = std::sin(rotation);

        if (dir.mixing) dir.mixing->average(dir.donor_payload);
        for (std::size_t h = 0; h < dir.tgt_ranks.size(); ++h) {
          const auto& tgids = dir.tgt_gids[h];
          payload.assign(tgids.size() * static_cast<std::size_t>(kPayload), 0.0);
          for (std::size_t i = 0; i < tgids.size(); ++i) {
            const auto g = static_cast<std::size_t>(tgids[i]);
            const double r = dir.target->rtheta[g * 2 + 0];
            const double th = dir.target->rtheta[g * 2 + 1];
            double* dst = payload.data() + i * static_cast<std::size_t>(kPayload);
            if (dir.mixing) {
              // Mixing plane: ring-averaged state, no rotation dependence.
              dir.mixing->evaluate(static_cast<int>(g % static_cast<std::size_t>(
                                                            dir.target->nr)),
                                   th, dst);
              continue;
            }
            const Stencil st = dir.interp->stencil(r, th, rotation);
            for (int s = 0; s < kPayload; ++s) dst[s] = 0.0;
            for (int n = 0; n < st.count; ++n) {
              const double* src = dir.donor_payload.data() +
                                  static_cast<std::size_t>(st.face[static_cast<std::size_t>(n)]) *
                                      kPayload;
              for (int s = 0; s < kPayload; ++s) {
                dst[s] += st.weight[static_cast<std::size_t>(n)] * src[s];
              }
            }
            // Rotate the (y, z) momentum components by the relative angle
            // ("interpolated, after appropriate rotation", paper §II-C).
            const double my = dst[2], mz = dst[3];
            dst[2] = cr * my - sr * mz;
            dst[3] = sr * my + cr * mz;
          }
          guarded_transfer("CU", iface, d, dir.tgt_ranks[h], [&] {
            send_ghost(world_, dir.tgt_ranks[h], iface, d, tgids, payload);
          });
        }
      }
    }
  }

  stats_.cu_idle_seconds = idle_sw.total();
  stats_.search_seconds = search_sw.total();
  stats_.candidates =
      dirs[0].interp->candidates_tested() + dirs[1].interp->candidates_tested();
}

void CoupledRig::reset_stats() {
  if (ctx_) ctx_->reset_stats();
  RankStats fresh;
  fresh.world_rank = stats_.world_rank;
  fresh.is_cu = stats_.is_cu;
  fresh.row_or_iface = stats_.row_or_iface;
  fresh.owned_cells = stats_.owned_cells;
  stats_ = fresh;
}

bool CoupledRig::save_state(const std::string& prefix) {
  // Each row's HS group saves within its own sub-communicator; rank 0 of
  // each session writes its row's files. CU ranks have nothing to save.
  bool ok = true;
  if (solver_) {
    ok = solver_->save_state(prefix + "_row" + std::to_string(role_.row));
  }
  // Make the result world-consistent.
  return world_.allreduce(ok ? 1 : 0, [](int a, int b) { return a & b; }) != 0;
}

bool CoupledRig::load_state(const std::string& prefix) {
  bool ok = true;
  if (solver_) {
    ok = solver_->load_state(prefix + "_row" + std::to_string(role_.row));
  }
  // Resume the shared physical clock (CUs included) from row 0's state;
  // world rank 0 is always an HS rank of row 0.
  double t = solver_ ? solver_->physical_time() : 0.0;
  t = world_.bcast_value(t, 0);
  base_time_ = t;
  return world_.allreduce(ok ? 1 : 0, [](int a, int b) { return a & b; }) != 0;
}

std::vector<RankStats> CoupledRig::collect(minimpi::Comm& world, const RankStats& mine) {
  const auto all = world.gatherv(std::span<const RankStats>(&mine, 1), 0);
  return all;  // empty on non-root ranks
}

}  // namespace vcgt::jm76
