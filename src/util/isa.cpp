#include "util/isa.hpp"

namespace g5::util {

#if defined(G5_ISA_DISPATCH)
namespace {

// One version per G5_ISA_CLONES target, dispatched by the same resolver
// (GCC/Clang function multiversioning), so the name is the clone the
// kernels run rather than a second reading of the CPU flags.
__attribute__((target("default"))) const char* dispatched() {
  return "default";
}
__attribute__((target("avx2"))) const char* dispatched() { return "avx2"; }
#if defined(G5_ISA_V4)
__attribute__((target("arch=x86-64-v4"))) const char* dispatched() {
  return "x86-64-v4";
}
#endif

}  // namespace

const char* kernel_isa() { return dispatched(); }
#elif defined(G5_ISA_OVERRIDE)
#define G5_ISA_STRINGIZE(...) #__VA_ARGS__
#define G5_ISA_TEXT(...) G5_ISA_STRINGIZE(__VA_ARGS__)
const char* kernel_isa() { return G5_ISA_TEXT(G5_ISA_CLONES); }
#else
const char* kernel_isa() { return "default"; }
#endif

}  // namespace g5::util
