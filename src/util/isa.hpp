// G5_ISA_CLONES: build a hot kernel twice from one source, for AVX2 and
// for the baseline ISA, and dispatch once at load time through an ifunc.
//
// A kernel marked with it must give the same bits in both clones: every
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
// defining G5_TSAN_BUILD) keep one clone.
#pragma once

#if defined(__SANITIZE_THREAD__)  // GCC
#define G5_TSAN_BUILD
#elif defined(__has_feature)  // Clang
#if __has_feature(thread_sanitizer)
#define G5_TSAN_BUILD
#endif
#endif
#if defined(__x86_64__) && defined(__linux__) && !defined(G5_TSAN_BUILD) && \
    defined(__has_attribute)
#if __has_attribute(target_clones)
#define G5_ISA_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef G5_ISA_CLONES
#define G5_ISA_CLONES
#endif
