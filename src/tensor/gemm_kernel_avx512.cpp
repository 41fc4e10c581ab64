// AVX-512 GEMM driver: same source as the generic TU, compiled with
// -mavx512f (per-file flags set in CMakeLists.txt) and a 12x32 micro-tile —
// 24 ZMM accumulators + 2 B vectors + 1 broadcast uses 27 of the 32
// 512-bit registers, and MR=12 divides the kMc=96 row block so prepacked-A
// panel addressing stays aligned.  Selected at runtime by
// detail::active_kernel_vtable() only when CPUID reports AVX512F (and the
// HELCFL_KERNEL_ISA cap allows it).
#define HELCFL_KERNEL_FN gemm_avx512
#define HELCFL_KERNEL_PACK_A_FN gemm_avx512_pack_a
#define HELCFL_KERNEL_PACK_B_FN gemm_avx512_pack_b
#define HELCFL_KERNEL_VTABLE_FN gemm_avx512_vtable
#define HELCFL_KERNEL_ISA_NAME "avx512"
#define HELCFL_KERNEL_MR 12
#define HELCFL_KERNEL_NR 32
#define HELCFL_KERNEL_VW 16
#include "tensor/gemm_kernel.inl"
