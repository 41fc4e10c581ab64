// Kernel dispatch and scratch accounting (tensor/gemm_kernel.h).
#include "tensor/gemm_kernel.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace helcfl::tensor::detail {
namespace {

std::atomic<std::uint64_t> g_scratch_reallocs{0};

/// Picks the widest kernel the CPU supports, once per process.  The choice
/// is a pure function of CPUID and the environment, so every thread (and
/// every call) in a run executes the same kernel — results are bitwise
/// deterministic within a machine.  HELCFL_KERNEL_ISA *caps* the dispatch
/// (generic < avx2_fma < avx512): pinning "generic" gives cross-machine
/// bit-reproducibility, pinning "avx512" on a machine without AVX-512
/// degrades gracefully to the best kernel CPUID allows (docs/KERNELS.md).
const KernelVTable* resolve() {
  const char* pin_env = std::getenv("HELCFL_KERNEL_ISA");
  const std::string_view pin = pin_env == nullptr ? "" : pin_env;
  int cap = 2;  // 0 = generic, 1 = avx2_fma, 2 = avx512
  if (pin == "generic") {
    cap = 0;
  } else if (pin == "avx2_fma" || pin == "avx2") {
    cap = 1;
  } else if (pin == "avx512") {
    cap = 2;
  } else if (!pin.empty()) {
    std::fprintf(stderr,
                 "helcfl: ignoring unknown HELCFL_KERNEL_ISA '%s' "
                 "(expected generic|avx2_fma|avx512)\n",
                 pin_env);
  }
#if defined(HELCFL_HAVE_AVX512_KERNELS)
  if (cap >= 2 && __builtin_cpu_supports("avx512f")) {
    return &gemm_avx512_vtable();
  }
#endif
#if defined(HELCFL_HAVE_AVX2_KERNELS)
  if (cap >= 1 && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    return &gemm_avx2_vtable();
  }
#endif
  (void)cap;
  return &gemm_generic_vtable();
}

const KernelVTable& resolved() {
  static const KernelVTable* const vt = resolve();
  return *vt;
}

}  // namespace

const KernelVTable& active_kernel_vtable() { return resolved(); }

std::string_view kernel_isa() { return resolved().isa; }

std::uint64_t scratch_reallocs() {
  return g_scratch_reallocs.load(std::memory_order_relaxed);
}

void note_scratch_realloc() {
  g_scratch_reallocs.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace helcfl::tensor::detail
