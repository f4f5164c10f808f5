#include "transpile/coupling.hpp"

#include <algorithm>
#include <queue>

#include "common/require.hpp"

namespace qucad {

CouplingMap::CouplingMap(int num_qubits, std::vector<std::pair<int, int>> edges,
                         std::string name)
    : num_qubits_(num_qubits), name_(std::move(name)), edges_(std::move(edges)) {
  require(num_qubits > 0, "coupling map requires at least one qubit");
  std::vector<std::vector<int>> neighbors(static_cast<std::size_t>(num_qubits));
  for (auto& [a, b] : edges_) {
    require(a >= 0 && a < num_qubits && b >= 0 && b < num_qubits && a != b,
            "invalid coupling edge");
    if (a > b) std::swap(a, b);
    neighbors[static_cast<std::size_t>(a)].push_back(b);
    neighbors[static_cast<std::size_t>(b)].push_back(a);
  }
  for (auto& nb : neighbors) std::sort(nb.begin(), nb.end());

  // BFS from every source to fill dist_ and next_ (next hop toward target).
  const std::size_t n = static_cast<std::size_t>(num_qubits);
  dist_.assign(n, std::vector<int>(n, -1));
  next_.assign(n, std::vector<int>(n, -1));
  for (int src = 0; src < num_qubits; ++src) {
    auto& dist_row = dist_[static_cast<std::size_t>(src)];
    std::vector<int> parent(n, -1);
    std::queue<int> frontier;
    dist_row[static_cast<std::size_t>(src)] = 0;
    frontier.push(src);
    while (!frontier.empty()) {
      const int u = frontier.front();
      frontier.pop();
      for (int v : neighbors[static_cast<std::size_t>(u)]) {
        if (dist_row[static_cast<std::size_t>(v)] >= 0) continue;
        dist_row[static_cast<std::size_t>(v)] = dist_row[static_cast<std::size_t>(u)] + 1;
        parent[static_cast<std::size_t>(v)] = u;
        frontier.push(v);
      }
    }
    // next_[src][dst] = first hop from src toward dst.
    for (int dst = 0; dst < num_qubits; ++dst) {
      if (dst == src || dist_row[static_cast<std::size_t>(dst)] < 0) continue;
      int cur = dst;
      while (parent[static_cast<std::size_t>(cur)] != src) {
        cur = parent[static_cast<std::size_t>(cur)];
      }
      next_[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)] = cur;
    }
  }
}

bool CouplingMap::adjacent(int a, int b) const { return distance(a, b) == 1; }

int CouplingMap::distance(int a, int b) const {
  require(a >= 0 && a < num_qubits_ && b >= 0 && b < num_qubits_,
          "qubit out of range");
  return dist_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
}

std::vector<int> CouplingMap::shortest_path(int a, int b) const {
  require(distance(a, b) >= 0, "qubits are disconnected");
  std::vector<int> path{a};
  int cur = a;
  while (cur != b) {
    cur = next_[static_cast<std::size_t>(cur)][static_cast<std::size_t>(b)];
    path.push_back(cur);
  }
  return path;
}

CouplingMap CouplingMap::belem() {
  return CouplingMap(5, {{0, 1}, {1, 2}, {1, 3}, {3, 4}}, "ibmq_belem");
}

CouplingMap CouplingMap::jakarta() {
  return CouplingMap(7, {{0, 1}, {1, 2}, {1, 3}, {3, 5}, {4, 5}, {5, 6}},
                     "ibmq_jakarta");
}

CouplingMap CouplingMap::line(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return CouplingMap(n, std::move(edges), "line" + std::to_string(n));
}

CouplingMap CouplingMap::ring(int n) {
  require(n >= 3, "ring requires at least 3 qubits");
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  return CouplingMap(n, std::move(edges), "ring" + std::to_string(n));
}

CouplingMap CouplingMap::full(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  return CouplingMap(n, std::move(edges), "full" + std::to_string(n));
}

}  // namespace qucad
