#pragma once

// PR_SIMD_KERNEL marks a hot loop that is built twice on x86-64 GCC, once
// for the baseline ISA and once for AVX2, with the loader picking one for
// the host. AVX2 does not imply FMA, so no multiply-add is ever contracted:
// a kernel made of element-wise IEEE arithmetic gives bitwise identical
// results from both builds. Thread-sanitizer builds keep only the baseline:
// TSan instruments the loader's resolver, which then runs before the TSan
// runtime is up and crashes.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__linux__) && !defined(__SANITIZE_THREAD__)
#define PR_SIMD_KERNEL __attribute__((target_clones("avx2", "default")))
#else
#define PR_SIMD_KERNEL
#endif
