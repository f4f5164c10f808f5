// The library sizes its process-global ThreadPool from
// std::thread::hardware_concurrency(). ThreadPool::parallel_for on a pool of
// more than one worker can touch its caller's stack after the caller
// returned (ROADMAP open item 1), which now and then aborts a process that
// makes millions of calls, as every workload here does (pretraining, ADMM
// gradients, batch sweeps). perfbench/CMakeLists.txt links the benchmark
// with --wrap on that function, so every reference to it in the library and
// in this program lands here and reports one hardware thread: the global
// pool gets one worker and runs every parallel_for on its caller, as on a
// one-core host. The one-worker path never hands work to another thread, so
// it cannot race. Parallelism in the workloads comes from their own threads
// (serving shards and wire connections).

#include "common.hpp"

extern "C" unsigned __real__ZNSt6thread20hardware_concurrencyEv() noexcept;

extern "C" unsigned __wrap__ZNSt6thread20hardware_concurrencyEv() noexcept { return 1; }

namespace perfbench {

unsigned host_threads() { return __real__ZNSt6thread20hardware_concurrencyEv(); }

}  // namespace perfbench
