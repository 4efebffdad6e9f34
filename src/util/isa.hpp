// G5_ISA_CLONES: build a hot kernel three times from one source, for
// x86-64-v4 (AVX-512; GCC builds only), for AVX2 and for the baseline
// ISA, and dispatch once at load time through an ifunc that picks the
// widest clone the CPU runs. util::kernel_isa() names the one it picked.
//
// A kernel marked with it must give the same bits in every clone: every
// operation in it is integer work, a table read or a correctly rounded
// IEEE add, subtract, multiply, divide or sqrt, and its library compiles
// with -ffp-contract=off so that no clone fuses a multiply-add (and with
// -fno-math-errno so that sqrt is one instruction and the loop
// vectorizes). The kernels are the pipeline's pair loops and block-sum
// pass (src/grape/pipeline.cpp) and the host list kernel's lane loop
// (src/tree/walk.cpp).
//
// ThreadSanitizer instruments the ifunc resolver, which runs before its
// runtime is up and crashes at load time, so TSan builds (and any build
// defining G5_TSAN_BUILD) keep one clone. A build that defines
// G5_ISA_CLONES before this header (on the command line, or in a
// force-included header) keeps that definition, so one clone can be
// built alone and tested on a CPU whose resolver would pick another (CI
// does, for each clone).
#pragma once

#if defined(__SANITIZE_THREAD__)  // GCC
#define G5_TSAN_BUILD
#elif defined(__has_feature)  // Clang
#if __has_feature(thread_sanitizer)
#define G5_TSAN_BUILD
#endif
#endif
#if defined(G5_ISA_CLONES)
#define G5_ISA_OVERRIDE
#elif defined(__x86_64__) && defined(__linux__) && !defined(G5_TSAN_BUILD)
#if defined(__has_attribute)
#if __has_attribute(target_clones)
#define G5_ISA_DISPATCH
#if defined(__clang__)
// Clang checks an arch= multiversion target against the CPU model names
// of __builtin_cpu_is, which name no ISA level such as x86-64-v4, so its
// builds keep the AVX2 and baseline clones.
#define G5_ISA_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define G5_ISA_V4
#define G5_ISA_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#endif
#endif
#endif
#endif
#ifndef G5_ISA_CLONES
#define G5_ISA_CLONES
#endif

namespace g5::util {

// The clone of the G5_ISA_CLONES kernels this process runs:
// "x86-64-v4", "avx2" or "default" ("default" also where the kernels
// are built once: TSan and non-x86 builds). A build that defines
// G5_ISA_CLONES itself returns that definition's text.
const char* kernel_isa();

}  // namespace g5::util
