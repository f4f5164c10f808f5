#pragma once

#include <string>
#include <utility>
#include <vector>

namespace qucad {

/// Undirected device connectivity graph with precomputed all-pairs shortest
/// paths (BFS; every physical device here is small).
class CouplingMap {
 public:
  CouplingMap(int num_qubits, std::vector<std::pair<int, int>> edges,
              std::string name = "custom");

  int num_qubits() const { return num_qubits_; }
  const std::string& name() const { return name_; }
  const std::vector<std::pair<int, int>>& edges() const { return edges_; }

  bool adjacent(int a, int b) const;

  /// Hop distance between two physical qubits.
  int distance(int a, int b) const;

  /// One shortest path from a to b, inclusive of both endpoints.
  std::vector<int> shortest_path(int a, int b) const;

  // --- presets -------------------------------------------------------------
  /// ibmq_belem: 5 qubits, T shape 0-1-2 with 1-3-4.
  static CouplingMap belem();
  /// ibmq_jakarta: 7 qubits, H shape.
  static CouplingMap jakarta();
  static CouplingMap line(int n);
  static CouplingMap ring(int n);
  static CouplingMap full(int n);

 private:
  int num_qubits_;
  std::string name_;
  std::vector<std::pair<int, int>> edges_;
  std::vector<std::vector<int>> dist_;  // -1 = unreachable
  std::vector<std::vector<int>> next_;  // next hop on shortest path
};

}  // namespace qucad
