#pragma once
// op2::Dat<T> — data defined on a set (dim components per element), plus
// op2::Global<T> — per-rank global values used for reductions (residual
// norms, CFL limits) and read-only parameters passed into kernels.
//
// Storage is array-of-structures (DESIGN.md §8): element e's dim
// components sit contiguously at data() + e*dim, so a kernel pointer is a
// plain offset and halo packing and renumbering move whole elements with
// one memcpy each.
//
// Halo coherence uses epochs rather than a single dirty bit so the partial
// halo exchange optimization (Table III "PH") can track cleanliness per
// loop plan: every write bumps write_epoch(); an exchange records the epoch
// it made (a subset of) the halo consistent with.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/op2/set.hpp"
#include "src/op2/types.hpp"

namespace vcgt::op2 {

/// Type-erased base; the halo machinery moves element payloads as raw bytes.
class DatBase {
 public:
  virtual ~DatBase() = default;
  DatBase(const DatBase&) = delete;
  DatBase& operator=(const DatBase&) = delete;

  [[nodiscard]] const Set& set() const { return *set_; }
  [[nodiscard]] int dim() const { return dim_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int id() const { return id_; }
  /// Payload bytes per element (dim * sizeof(T)).
  [[nodiscard]] std::size_t elem_bytes() const { return elem_bytes_; }

  /// Number of local elements (global size before partitioning).
  [[nodiscard]] index_t size() const { return nelem_; }

  [[nodiscard]] virtual std::byte* raw() = 0;
  [[nodiscard]] virtual const std::byte* raw() const = 0;

  /// Packs the payloads of `elems` into `out` (elem_bytes() per element,
  /// in the order given).
  virtual void gather_elems(std::span<const index_t> elems, std::byte* out) const = 0;
  /// Inverse of gather_elems: unpacks payloads from `in` into the elements
  /// named by `elems`.
  virtual void scatter_elems(std::span<const index_t> elems, const std::byte* in) = 0;

  /// Epoch of the last write (any loop or external writer touching the dat).
  [[nodiscard]] std::uint64_t write_epoch() const { return write_epoch_; }
  /// Epoch the *full* halo was last synchronized at.
  [[nodiscard]] std::uint64_t halo_clean_epoch() const { return halo_clean_epoch_; }
  [[nodiscard]] bool halo_dirty() const { return write_epoch_ > halo_clean_epoch_; }

  /// External writers (the JM76 coupler scattering interface values, mesh
  /// deformation, test setup) must call this after mutating owned entries so
  /// the next reading loop refreshes halo copies.
  void mark_written() { ++write_epoch_; }
  void mark_halo_clean() { halo_clean_epoch_ = write_epoch_; }

 protected:
  DatBase(Set* set, int id, std::string name, int dim, std::size_t elem_bytes)
      : set_(set), id_(id), name_(std::move(name)), dim_(dim), elem_bytes_(elem_bytes) {}

  friend class Context;
  /// Re-lays out storage for the local window after partitioning:
  /// new_local[l] = old[src[l]] for l in [0, total), where `src` indexes the
  /// *pre-partition rows* of this dat (global ids in monolithic mode — they
  /// fit index_t by the decl_set guard — shard rows in sharded mode).
  virtual void localize(std::span<const index_t> src) = 0;

  Set* set_;
  int id_;
  std::string name_;
  int dim_;
  std::size_t elem_bytes_;
  index_t nelem_ = 0;
  std::uint64_t write_epoch_ = 1;       // starts dirty-equal: halo starts clean
  std::uint64_t halo_clean_epoch_ = 1;  // (localize() copies halo values too)
};

template <class T>
class Dat final : public DatBase {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }
  [[nodiscard]] std::span<T> span() { return data_; }
  [[nodiscard]] std::span<const T> span() const { return data_; }

  /// Element e, component c.
  [[nodiscard]] T& at(index_t e, int c) { return data_[off(e, c)]; }
  [[nodiscard]] const T& at(index_t e, int c) const { return data_[off(e, c)]; }

  /// Pointer to element e's dim() contiguous components.
  [[nodiscard]] T* elem(index_t e) { return data_.data() + off(e, 0); }
  [[nodiscard]] const T* elem(index_t e) const { return data_.data() + off(e, 0); }

  [[nodiscard]] std::byte* raw() override { return reinterpret_cast<std::byte*>(data_.data()); }
  [[nodiscard]] const std::byte* raw() const override {
    return reinterpret_cast<const std::byte*>(data_.data());
  }

  void gather_elems(std::span<const index_t> elems, std::byte* out) const override {
    for (std::size_t k = 0; k < elems.size(); ++k) {
      std::memcpy(out + k * elem_bytes_, elem(elems[k]), elem_bytes_);
    }
  }

  void scatter_elems(std::span<const index_t> elems, const std::byte* in) override {
    for (std::size_t k = 0; k < elems.size(); ++k) {
      std::memcpy(elem(elems[k]), in + k * elem_bytes_, elem_bytes_);
    }
  }

 private:
  friend class Context;
  Dat(Set* set, int id, std::string name, int dim, std::vector<T> global_data)
      : DatBase(set, id, std::move(name), dim, sizeof(T) * static_cast<std::size_t>(dim)),
        data_(std::move(global_data)) {
    nelem_ = set->decl_rows();
    data_.resize(static_cast<std::size_t>(nelem_) * static_cast<std::size_t>(dim));
  }

  [[nodiscard]] std::size_t off(index_t e, int c) const {
    return static_cast<std::size_t>(e) * static_cast<std::size_t>(dim_) +
           static_cast<std::size_t>(c);
  }

  void localize(std::span<const index_t> l2g) override {
    std::vector<T> local(l2g.size() * static_cast<std::size_t>(dim_));
    for (std::size_t l = 0; l < l2g.size(); ++l) {
      std::memcpy(local.data() + l * static_cast<std::size_t>(dim_), elem(l2g[l]), elem_bytes_);
    }
    nelem_ = static_cast<index_t>(l2g.size());
    data_ = std::move(local);
  }

  std::vector<T> data_;
};

/// Global (per-rank) value participating in loops either read-only or as a
/// reduction target. par_loop finalizes Inc/Min/Max globals across ranks.
template <class T>
class Global {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  [[nodiscard]] int dim() const { return dim_; }
  [[nodiscard]] T* data() { return value_.data(); }
  [[nodiscard]] const T* data() const { return value_.data(); }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] T value(int i = 0) const { return value_[static_cast<std::size_t>(i)]; }
  void set(std::span<const T> v) {
    value_.assign(v.begin(), v.end());
  }
  void set(T v) { value_.assign(static_cast<std::size_t>(dim_), v); }

 private:
  friend class Context;
  Global(std::string name, int dim, std::vector<T> init)
      : name_(std::move(name)), dim_(dim), value_(std::move(init)) {
    value_.resize(static_cast<std::size_t>(dim_));
  }

  std::string name_;
  int dim_;
  std::vector<T> value_;
};

}  // namespace vcgt::op2
