// Mesh renumbering: reverse Cuthill-McKee over the map-induced adjacency,
// applied pre-partition by permuting the global numbering of one set. This
// is the locality optimization OP2 applies to unstructured meshes before
// building its execution plans.
#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "src/op2/context.hpp"

namespace vcgt::op2 {

namespace {

/// Adjacency of `s` through every declared map targeting it (two elements
/// are adjacent when some element of another set references both).
std::vector<std::vector<index_t>> adjacency_of(
    const Set& s, const std::vector<std::unique_ptr<Map>>& maps) {
  std::vector<std::vector<index_t>> adj(static_cast<std::size_t>(s.global_size()));
  for (const auto& map : maps) {
    if (&map->to() != &s || map->dim() < 2) continue;
    const auto table = map->table();
    const auto dim = static_cast<std::size_t>(map->dim());
    const auto n = static_cast<std::size_t>(map->from().global_size());
    for (std::size_t e = 0; e < n; ++e) {
      for (std::size_t i = 0; i < dim; ++i) {
        for (std::size_t j = i + 1; j < dim; ++j) {
          const index_t a = table[e * dim + i];
          const index_t b = table[e * dim + j];
          if (a == b) continue;
          adj[static_cast<std::size_t>(a)].push_back(b);
          adj[static_cast<std::size_t>(b)].push_back(a);
        }
      }
    }
  }
  for (auto& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  return adj;
}

}  // namespace

std::vector<index_t> Context::reverse_cuthill_mckee(const Set& s) const {
  const auto adj = adjacency_of(s, maps_);
  const auto n = static_cast<std::size_t>(s.global_size());

  // Cuthill-McKee: BFS from a minimum-degree seed, neighbors by ascending
  // degree; then reverse. Disconnected components are swept in seed order.
  std::vector<index_t> order;
  order.reserve(n);
  std::vector<bool> visited(n, false);
  std::vector<std::size_t> degree(n);
  for (std::size_t v = 0; v < n; ++v) degree[v] = adj[v].size();

  std::vector<index_t> seeds(n);
  std::iota(seeds.begin(), seeds.end(), index_t{0});
  std::sort(seeds.begin(), seeds.end(),
            [&](index_t a, index_t b) {
              return std::tie(degree[static_cast<std::size_t>(a)], a) <
                     std::tie(degree[static_cast<std::size_t>(b)], b);
            });

  std::vector<index_t> nbrs;
  for (const index_t seed : seeds) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    std::queue<index_t> frontier;
    frontier.push(seed);
    visited[static_cast<std::size_t>(seed)] = true;
    while (!frontier.empty()) {
      const index_t v = frontier.front();
      frontier.pop();
      order.push_back(v);
      nbrs.clear();
      for (const index_t w : adj[static_cast<std::size_t>(v)]) {
        if (!visited[static_cast<std::size_t>(w)]) {
          visited[static_cast<std::size_t>(w)] = true;
          nbrs.push_back(w);
        }
      }
      std::sort(nbrs.begin(), nbrs.end(), [&](index_t a, index_t b) {
        return std::tie(degree[static_cast<std::size_t>(a)], a) <
               std::tie(degree[static_cast<std::size_t>(b)], b);
      });
      for (const index_t w : nbrs) frontier.push(w);
    }
  }
  std::reverse(order.begin(), order.end());

  // order[k] = old id at new position k  ->  perm[old] = new.
  std::vector<index_t> perm(n);
  for (std::size_t k = 0; k < n; ++k) {
    perm[static_cast<std::size_t>(order[k])] = static_cast<index_t>(k);
  }
  return perm;
}

void Context::renumber_set(Set& s, std::span<const index_t> perm) {
  require_not_partitioned("renumber_set");
  if (s.sharded()) {
    // A permutation of the global numbering cannot be applied shard-locally
    // (it would need the full table on every rank, which sharding exists to
    // avoid); sharded setups keep the generator's numbering.
    throw std::logic_error(
        "op2: renumber_set on sharded set '" + s.name() + "' is not supported");
  }
  const auto n = static_cast<std::size_t>(s.global_size());
  if (perm.size() != n) {
    throw std::invalid_argument("op2: renumber_set permutation size mismatch");
  }
  {
    std::vector<bool> seen(n, false);
    for (const index_t p : perm) {
      if (p < 0 || static_cast<std::size_t>(p) >= n || seen[static_cast<std::size_t>(p)]) {
        throw std::invalid_argument("op2: renumber_set: not a permutation");
      }
      seen[static_cast<std::size_t>(p)] = true;
    }
  }

  // Rewrite map tables: targets are relabeled; source rows are moved.
  for (auto& map : maps_) {
    if (&map->to() == &s) {
      for (auto& t : map->table_) t = perm[static_cast<std::size_t>(t)];
    }
    if (&map->from() == &s) {
      const auto dim = static_cast<std::size_t>(map->dim());
      std::vector<index_t> moved(map->table_.size());
      for (std::size_t e = 0; e < n; ++e) {
        const auto ne = static_cast<std::size_t>(perm[e]);
        for (std::size_t i = 0; i < dim; ++i) {
          moved[ne * dim + i] = map->table_[e * dim + i];
        }
      }
      map->table_ = std::move(moved);
    }
  }

  // Permute dats on the set (gather every element's payload in old order,
  // scatter to the permuted positions).
  std::vector<index_t> iota(n);
  for (std::size_t e = 0; e < n; ++e) iota[e] = static_cast<index_t>(e);
  for (auto& dat : dats_) {
    if (&dat->set() != &s) continue;
    std::vector<std::byte> payload(n * dat->elem_bytes());
    dat->gather_elems(iota, payload.data());
    dat->scatter_elems(perm, payload.data());
    dat->mark_written();
  }
}

Context::BandwidthStats Context::numbering_bandwidth(const Set& s) const {
  const auto adj = adjacency_of(s, maps_);
  BandwidthStats stats;
  std::size_t count = 0;
  double sum = 0.0;
  for (std::size_t v = 0; v < adj.size(); ++v) {
    for (const index_t w : adj[v]) {
      const auto d = std::abs(static_cast<long>(v) - static_cast<long>(w));
      sum += static_cast<double>(d);
      stats.max = std::max(stats.max, static_cast<index_t>(d));
      ++count;
    }
  }
  stats.mean = count ? sum / static_cast<double>(count) : 0.0;
  return stats;
}

}  // namespace vcgt::op2
