#include "tensor/ops.h"

#include <cassert>

#include "tensor/gemm_kernel.h"

namespace helcfl::tensor {

void add_inplace(std::span<float> y, std::span<const float> x) {
  assert(y.size() == x.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += x[i];
}

// Every GEMM variant below fills one detail::GemmArgs descriptor and runs
// it, whole and on the calling thread, through the kernel resolved at
// startup (generic, AVX2+FMA, or AVX-512); the packing routines absorb the
// transposes, so all variants share one micro-kernel and one accumulation
// order (see ops.h header comment).

void gemm(std::size_t m, std::size_t k, std::size_t n, std::span<const float> a,
          std::span<const float> b, std::span<float> c) {
  assert(a.size() == m * k && b.size() == k * n && c.size() == m * n);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data()};
  detail::active_kernel_vtable().gemm(args);
}

void gemm_bias_rows(std::size_t m, std::size_t k, std::size_t n,
                    std::span<const float> a, std::span<const float> b,
                    std::span<const float> bias, std::span<float> c) {
  assert(a.size() == m * k && b.size() == k * n && c.size() == m * n &&
         bias.size() == m);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .bias = bias.data()};
  detail::active_kernel_vtable().gemm(args);
}

void gemm_at_b(std::size_t m, std::size_t k, std::size_t n, std::span<const float> a,
               std::span<const float> b, std::span<float> c) {
  assert(a.size() == k * m && b.size() == k * n && c.size() == m * n);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .trans_a = true};
  detail::active_kernel_vtable().gemm(args);
}

void gemm_at_b_accumulate(std::size_t m, std::size_t k, std::size_t n,
                          std::span<const float> a, std::span<const float> b,
                          std::span<float> c) {
  assert(a.size() == k * m && b.size() == k * n && c.size() == m * n);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .trans_a = true, .accumulate = true};
  detail::active_kernel_vtable().gemm(args);
}

void gemm_a_bt(std::size_t m, std::size_t k, std::size_t n, std::span<const float> a,
               std::span<const float> b, std::span<float> c) {
  assert(a.size() == m * k && b.size() == n * k && c.size() == m * n);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .trans_b = true};
  detail::active_kernel_vtable().gemm(args);
}

void gemm_a_bt_accumulate(std::size_t m, std::size_t k, std::size_t n,
                          std::span<const float> a, std::span<const float> b,
                          std::span<float> c) {
  assert(a.size() == m * k && b.size() == n * k && c.size() == m * n);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .trans_b = true, .accumulate = true};
  detail::active_kernel_vtable().gemm(args);
}

void gemm_a_bt_bias_cols(std::size_t m, std::size_t k, std::size_t n,
                         std::span<const float> a, std::span<const float> b,
                         std::span<const float> bias, std::span<float> c) {
  assert(a.size() == m * k && b.size() == n * k && c.size() == m * n &&
         bias.size() == n);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .bias = bias.data(),
                        .bias_per_col = true, .trans_b = true};
  detail::active_kernel_vtable().gemm(args);
}

void PackedWeights::pack_a(std::size_t m, std::size_t k,
                           std::span<const float> w) {
  assert(w.size() == m * k);
  const detail::KernelVTable& vt = detail::active_kernel_vtable();
  detail::ensure_scratch(buf_, detail::packed_a_size(vt, m, k));
  detail::GemmArgs args{.m = m, .k = k, .a = w.data()};
  vt.pack_a(args, buf_.data());
  m_ = m;
  k_ = k;
  n_ = 0;
  side_ = 'a';
  valid_ = true;
}

void PackedWeights::pack_b_trans(std::size_t k, std::size_t n,
                                 std::span<const float> w) {
  assert(w.size() == n * k);
  const detail::KernelVTable& vt = detail::active_kernel_vtable();
  detail::ensure_scratch(buf_, detail::packed_b_size(vt, k, n));
  detail::GemmArgs args{.k = k, .n = n, .b = w.data(), .trans_b = true};
  vt.pack_b(args, buf_.data());
  m_ = 0;
  k_ = k;
  n_ = n;
  side_ = 'b';
  valid_ = true;
}

void gemm_bias_rows(std::size_t m, std::size_t k, std::size_t n,
                    const PackedWeights& a, std::span<const float> b,
                    std::span<const float> bias, std::span<float> c) {
  assert(a.is_a(m, k) && b.size() == k * n && c.size() == m * n &&
         bias.size() == m);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .b = b.data(), .c = c.data(),
                        .bias = bias.data(), .packed_a = a.panels()};
  detail::active_kernel_vtable().gemm(args);
}

void gemm_a_bt_bias_cols(std::size_t m, std::size_t k, std::size_t n,
                         std::span<const float> a, const PackedWeights& b,
                         std::span<const float> bias, std::span<float> c) {
  assert(b.is_b_trans(k, n) && a.size() == m * k && c.size() == m * n &&
         bias.size() == n);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .c = c.data(),
                        .bias = bias.data(), .bias_per_col = true,
                        .packed_b = b.panels()};
  detail::active_kernel_vtable().gemm(args);
}

std::string_view kernel_isa() { return detail::kernel_isa(); }

std::uint64_t scratch_realloc_count() { return detail::scratch_reallocs(); }

}  // namespace helcfl::tensor
