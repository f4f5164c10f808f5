#pragma once

#include <cstddef>
#include <vector>

namespace qucad {

/// Heap bytes a vector holds (its capacity, not its size): the unit every
/// footprint accessor (CompiledProgram::heap_bytes, the executors'
/// footprint_bytes) sums.
template <typename T>
std::size_t heap_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace qucad
