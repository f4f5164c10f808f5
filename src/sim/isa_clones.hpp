#pragma once

#include <cstddef>  // pulls in the C library's feature macros (__GLIBC__)

/// \file
/// Per-ISA clones of the compiled engines' replay entry points.
///
/// QUCAD_ISA_CLONES marks a non-template function for GCC's
/// `target_clones`: the compiler emits one copy built for x86-64-v4
/// (AVX-512), one for x86-64-v3 (AVX2 + FMA) and one for the build's
/// baseline, and the dynamic loader binds the widest copy the CPU supports
/// once, through an ifunc resolver. `flatten` inlines every call the
/// function makes whose body is visible — the BatchedStateVector /
/// BatchedDensityMatrix kernels included — so each clone carries its own
/// vectorized kernels rather than calling the baseline ones.
///
/// The build compiles with -ffp-contract=off, so the FMA-capable clones
/// never fuse `a * b + c`; with plain IEEE mul/add in the same expression
/// order, every clone produces bitwise the same results as the baseline.
///
/// The macro is empty (one baseline copy, no dispatch) under Clang, on
/// targets other than x86-64, without glibc's ifunc support, and under
/// ThreadSanitizer: the loader runs ifunc resolvers before TSan's runtime
/// is initialized, and a TSan binary with a target_clones function crashes
/// at startup.

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__GLIBC__) && !defined(__SANITIZE_THREAD__)
#define QUCAD_HAVE_ISA_CLONES 1
/// The clone levels, widest first: the one list both QUCAD_ISA_CLONES and
/// engine_isa() are generated from. X(level) is applied to each level name.
#define QUCAD_ISA_CLONE_LEVELS(X) X("x86-64-v4") X("x86-64-v3")
#define QUCAD_ISA_CLONE_TARGET(level) "arch=" level,
#define QUCAD_ISA_CLONES                                                  \
  __attribute__((flatten,                                                \
                 target_clones(QUCAD_ISA_CLONE_LEVELS(QUCAD_ISA_CLONE_TARGET) \
                                   "default")))
#else
#define QUCAD_HAVE_ISA_CLONES 0
#define QUCAD_ISA_CLONES
#endif

namespace qucad {

/// The ISA level whose replay clones this process runs: a level of
/// QUCAD_ISA_CLONE_LEVELS or "x86-64" (the default clone), as the loader's
/// resolver picks it on this CPU — or "baseline" when the build has no
/// clones. The answer comes from a function multiversioned over the same
/// level list, so GCC's dispatcher itself picks it by the rule it applies
/// to every QUCAD_ISA_CLONES function.
const char* engine_isa();

}  // namespace qucad
