#include "src/serve/session_spec.hpp"

#include <stdexcept>

#include "src/jm76/layout.hpp"
#include "src/util/bytes.hpp"

namespace vcgt::serve {

namespace {

// Wire format version for the spec blob itself (the frame protocol carries
// its own version; this one guards the spec encoding inside a frame).
constexpr std::uint16_t kSpecVersion = 7;  // v7: op2::Config lost the layout and staged-gather bytes

void put_flow(util::ByteWriter& w, const hydra::FlowConfig& f) {
  w.put_f64(f.gamma);
  w.put_f64(f.gas_constant);
  w.put_f64(f.rho_in);
  w.put_f64(f.u_axial_in);
  w.put_f64(f.p_in);
  w.put_f64(f.p_back_ratio);
  w.put_f64(f.cfl);
  w.put_f64(f.cfl_start);
  w.put_i32(f.cfl_ramp_iters);
  w.put_i32(f.rk_stages);
  w.put_bool(f.sort_faces);
  w.put_i32(f.inner_iters);
  w.put_f64(f.dt_phys);
  w.put_bool(f.implicit_dual_time);
  w.put_f64(f.implicit_cfl);
  w.put_i32(f.implicit_max_iters);
  w.put_f64(f.implicit_rtol);
  w.put_bool(f.steady);
  w.put_f64(f.blade_wake_frac);
  w.put_f64(f.blade_relax);
  w.put_f64(f.rotor_swirl_frac);
  w.put_f64(f.stator_swirl_frac);
  w.put_f64(f.rotor_axial_load);
  w.put_u8(static_cast<std::uint8_t>(f.flux_scheme));
  w.put_bool(f.second_order);
  w.put_bool(f.viscous);
  w.put_f64(f.mu_laminar);
  w.put_f64(f.prandtl);
  w.put_f64(f.prandtl_turb);
  w.put_bool(f.no_slip_walls);
  w.put_bool(f.inlet_total_conditions);
  w.put_f64(f.inlet_p0);
  w.put_f64(f.inlet_t0);
  w.put_f64(f.sa_cb1);
  w.put_f64(f.sa_cw1);
  w.put_f64(f.sa_sigma);
  w.put_f64(f.sa_cv1);
  w.put_f64(f.sa_nut_in);
}

hydra::FlowConfig get_flow(util::ByteReader& r) {
  hydra::FlowConfig f;
  f.gamma = r.get_f64();
  f.gas_constant = r.get_f64();
  f.rho_in = r.get_f64();
  f.u_axial_in = r.get_f64();
  f.p_in = r.get_f64();
  f.p_back_ratio = r.get_f64();
  f.cfl = r.get_f64();
  f.cfl_start = r.get_f64();
  f.cfl_ramp_iters = r.get_i32();
  f.rk_stages = r.get_i32();
  f.sort_faces = r.get_bool();
  f.inner_iters = r.get_i32();
  f.dt_phys = r.get_f64();
  f.implicit_dual_time = r.get_bool();
  f.implicit_cfl = r.get_f64();
  f.implicit_max_iters = r.get_i32();
  f.implicit_rtol = r.get_f64();
  f.steady = r.get_bool();
  f.blade_wake_frac = r.get_f64();
  f.blade_relax = r.get_f64();
  f.rotor_swirl_frac = r.get_f64();
  f.stator_swirl_frac = r.get_f64();
  f.rotor_axial_load = r.get_f64();
  f.flux_scheme = static_cast<hydra::FlowConfig::FluxScheme>(r.get_u8());
  f.second_order = r.get_bool();
  f.viscous = r.get_bool();
  f.mu_laminar = r.get_f64();
  f.prandtl = r.get_f64();
  f.prandtl_turb = r.get_f64();
  f.no_slip_walls = r.get_bool();
  f.inlet_total_conditions = r.get_bool();
  f.inlet_p0 = r.get_f64();
  f.inlet_t0 = r.get_f64();
  f.sa_cb1 = r.get_f64();
  f.sa_cw1 = r.get_f64();
  f.sa_sigma = r.get_f64();
  f.sa_cv1 = r.get_f64();
  f.sa_nut_in = r.get_f64();
  return f;
}

void put_op2(util::ByteWriter& w, const op2::Config& c) {
  w.put_bool(c.partial_halos);
  w.put_bool(c.grouped_halos);
  w.put_i32(c.nthreads);
  w.put_bool(c.force_coloring);
  w.put_bool(c.latency_hiding);
  w.put_bool(c.deterministic_reductions);
  w.put_i32(c.chain_tile);
}

op2::Config get_op2(util::ByteReader& r) {
  op2::Config c;
  c.partial_halos = r.get_bool();
  c.grouped_halos = r.get_bool();
  c.nthreads = r.get_i32();
  c.force_coloring = r.get_bool();
  c.latency_hiding = r.get_bool();
  c.deterministic_reductions = r.get_bool();
  c.chain_tile = r.get_i32();
  return c;
}

void put_fault(util::ByteWriter& w, const minimpi::FaultConfig& f) {
  w.put_u64(f.seed);
  w.put_f64(f.p_delay);
  w.put_f64(f.p_duplicate);
  w.put_f64(f.p_reorder);
  w.put_f64(f.p_drop);
  w.put_f64(f.delay_seconds);
  w.put_i32(f.drop_attempts);
  w.put_u32(static_cast<std::uint32_t>(f.schedule.size()));
  for (const auto& s : f.schedule) {
    w.put_i32(s.rank);
    w.put_u64(s.op);
    w.put_u8(static_cast<std::uint8_t>(s.kind));
  }
}

minimpi::FaultConfig get_fault(util::ByteReader& r) {
  minimpi::FaultConfig f;
  f.seed = r.get_u64();
  f.p_delay = r.get_f64();
  f.p_duplicate = r.get_f64();
  f.p_reorder = r.get_f64();
  f.p_drop = r.get_f64();
  f.delay_seconds = r.get_f64();
  f.drop_attempts = r.get_i32();
  const std::uint32_t n = r.get_u32();
  f.schedule.resize(n);
  for (auto& s : f.schedule) {
    s.rank = r.get_i32();
    s.op = r.get_u64();
    s.kind = static_cast<minimpi::FaultKind>(r.get_u8());
  }
  return f;
}

/// The setup-determining prefix: everything the mesh, partition and plan
/// artifacts depend on. setup_hash() is FNV-1a over exactly these bytes.
void put_setup(util::ByteWriter& w, const SessionSpec& s) {
  w.put_string(s.rig);
  w.put_i32(s.nrows);
  w.put_f64(s.rpm);
  w.put_bool(s.contraction);
  w.put_string(s.tier);
  w.put_i32(s.res.nx);
  w.put_i32(s.res.nr);
  w.put_i32(s.res.ntheta);
  put_flow(w, s.flow);
  w.put_u32(static_cast<std::uint32_t>(s.hs_ranks.size()));
  for (const int n : s.hs_ranks) w.put_i32(n);
  w.put_i32(s.cus_per_interface);
  w.put_u8(static_cast<std::uint8_t>(s.search));
  w.put_u8(static_cast<std::uint8_t>(s.interp));
  w.put_u8(static_cast<std::uint8_t>(s.transfer));
  w.put_u8(static_cast<std::uint8_t>(s.cu_partition));
  w.put_bool(s.staged_gather);
  put_op2(w, s.op2cfg);
  w.put_u8(static_cast<std::uint8_t>(s.partitioner));
  w.put_bool(s.sharded_setup);
}

void get_setup(util::ByteReader& r, SessionSpec& s) {
  s.rig = r.get_string();
  s.nrows = r.get_i32();
  s.rpm = r.get_f64();
  s.contraction = r.get_bool();
  s.tier = r.get_string();
  s.res.nx = r.get_i32();
  s.res.nr = r.get_i32();
  s.res.ntheta = r.get_i32();
  s.flow = get_flow(r);
  const std::uint32_t nrows = r.get_u32();
  s.hs_ranks.resize(nrows);
  for (auto& n : s.hs_ranks) n = r.get_i32();
  s.cus_per_interface = r.get_i32();
  s.search = static_cast<jm76::SearchKind>(r.get_u8());
  s.interp = static_cast<jm76::InterpKind>(r.get_u8());
  s.transfer = static_cast<jm76::TransferKind>(r.get_u8());
  s.cu_partition = static_cast<jm76::CoupledConfig::CuPartition>(r.get_u8());
  s.staged_gather = r.get_bool();
  s.op2cfg = get_op2(r);
  s.partitioner = static_cast<op2::Partitioner>(r.get_u8());
  s.sharded_setup = r.get_bool();
}

}  // namespace

int SessionSpec::world_size() const {
  return jm76::Layout(hs_ranks, cus_per_interface).world_size();
}

std::vector<std::byte> SessionSpec::serialize() const {
  util::ByteWriter w;
  w.put_u16(kSpecVersion);
  put_setup(w, *this);
  w.put_i32(nsteps);
  w.put_i32(inner);
  put_fault(w, fault);
  return w.take();
}

SessionSpec SessionSpec::deserialize(std::span<const std::byte> bytes) {
  util::ByteReader r(bytes);
  const std::uint16_t version = r.get_u16();
  if (version != kSpecVersion) {
    throw std::runtime_error("SessionSpec: unsupported spec version");
  }
  SessionSpec s;
  get_setup(r, s);
  s.nsteps = r.get_i32();
  s.inner = r.get_i32();
  s.fault = get_fault(r);
  return s;
}

std::uint64_t SessionSpec::hash() const {
  const auto bytes = serialize();
  return util::fnv1a_bytes(bytes);
}

std::uint64_t SessionSpec::setup_hash() const {
  util::ByteWriter w;
  put_setup(w, *this);
  return w.hash();
}

std::uint64_t SessionSpec::fault_hash() const {
  util::ByteWriter w;
  put_fault(w, fault);
  return w.hash();
}

jm76::CoupledConfig SessionSpec::coupled_config(op2::PlanCache* plan_cache) const {
  jm76::CoupledConfig cfg;
  if (rig == "rig250") {
    cfg.rig = rig::rig250_spec(nrows, rpm, contraction);
  } else if (rig == "rig250_swan_neck") {
    cfg.rig = rig::rig250_with_swan_neck(nrows, rpm, contraction);
  } else {
    throw std::invalid_argument("SessionSpec: unknown rig \"" + rig + "\"");
  }
  cfg.res = tier.empty() ? res : rig::resolution_tier(tier);
  cfg.flow = flow;
  cfg.hs_ranks = hs_ranks;
  cfg.cus_per_interface = cus_per_interface;
  cfg.search = search;
  cfg.interp = interp;
  cfg.transfer = transfer;
  cfg.cu_partition = cu_partition;
  cfg.staged_gather = staged_gather;
  cfg.op2cfg = op2cfg;
  cfg.partitioner = partitioner;
  cfg.sharded_setup = sharded_setup;
  // Served sessions stream a frame per step and may run short segments; the
  // pipelined one-step ghost lag is wrong for both (see header).
  cfg.pipelined = false;
  cfg.plan_cache = plan_cache;
  cfg.spec_hash = plan_cache != nullptr ? setup_hash() : 0;
  return cfg;
}

bool SessionSpec::operator==(const SessionSpec& other) const {
  return serialize() == other.serialize();
}

}  // namespace vcgt::serve
