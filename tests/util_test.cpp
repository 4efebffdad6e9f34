#include <gtest/gtest.h>

#include <string>

#include "util/isa.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using g5::util::Histogram;
using g5::util::Options;
using g5::util::RunningStat;

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.rms(), std::sqrt(30.0 / 4.0), 1e-12);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i * 0.37) * 5.0 + 1.0;
    (i < 37 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_NEAR(a.rms(), all.rms(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Histogram, LinearBinning) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(h.count(b), 1u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  h.add(-1.0);
  h.add(10.0);  // hi edge counts as overflow
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, LogBinningAndQuantile) {
  Histogram h(1e-4, 1.0, 4, Histogram::Scale::Log10);
  h.add(3e-4);  // bin 0
  h.add(3e-3);  // bin 1
  h.add(3e-2);  // bin 2
  h.add(3e-1);  // bin 3
  for (std::size_t b = 0; b < 4; ++b) EXPECT_EQ(h.count(b), 1u) << b;
  EXPECT_NEAR(h.bin_lo(1), 1e-3, 1e-12);
  // Non-positive samples land in underflow rather than NaN.
  h.add(0.0);
  EXPECT_EQ(h.underflow(), 1u);
  const double q50 = h.quantile(0.5);
  EXPECT_GT(q50, 1e-4);
  EXPECT_LT(q50, 1.0);
}

TEST(Options, ParsesAllForms) {
  // Note `--key value` greedily binds the next non-option token, so a
  // positional argument must not directly follow a boolean flag.
  const char* argv[] = {"prog",      "positional", "--n=100",
                        "--theta",   "0.5",        "--verbose=true",
                        "--flag"};
  Options opt(7, argv);
  EXPECT_EQ(opt.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(opt.get_double("theta", 0.0), 0.5);
  EXPECT_TRUE(opt.get_bool("verbose", false));
  EXPECT_TRUE(opt.get_bool("flag", false));
  EXPECT_FALSE(opt.get_bool("absent", false));
  ASSERT_EQ(opt.positional().size(), 1u);
  EXPECT_EQ(opt.positional()[0], "positional");
}

TEST(Options, GreedyValueBinding) {
  const char* argv[] = {"prog", "--verbose", "maybe"};
  Options opt(3, argv);
  EXPECT_EQ(opt.get_string("verbose", ""), "maybe");
  EXPECT_TRUE(opt.positional().empty());
}

TEST(Options, TypeErrorsThrow) {
  const char* argv[] = {"prog", "--n=abc", "--b=maybe"};
  Options opt(3, argv);
  EXPECT_THROW((void)opt.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)opt.get_bool("b", false), std::invalid_argument);
  EXPECT_EQ(opt.get_string("n", ""), "abc");
}

TEST(Table, AlignedRendering) {
  g5::util::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Format, HumanReadable) {
  EXPECT_EQ(g5::util::human_flops(5.92e9), "5.92 Gflops");
  EXPECT_EQ(g5::util::human_flops(109.44e9), "109.44 Gflops");
  EXPECT_NE(g5::util::human_seconds(30141.0).find("8.37 h"),
            std::string::npos);
  EXPECT_EQ(g5::util::sci(2.90e13, 3), "2.90e+13");
}

TEST(Timer, StopwatchMonotonic) {
  g5::util::Stopwatch w;
  volatile double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink = sink + i;
  const double t1 = w.elapsed();
  EXPECT_GE(t1, 0.0);
  w.lap();
  EXPECT_GE(w.total(), t1 * 0.5);
  w.reset();
  EXPECT_EQ(w.total(), 0.0);
}

TEST(KernelIsa, NamesTheCloneThisHostDispatches) {
  const std::string isa = g5::util::kernel_isa();
#if defined(G5_ISA_DISPATCH)
  // The resolver takes the widest clone whose CPU test passes.
  std::string expected = "default";
  if (__builtin_cpu_supports("avx2")) expected = "avx2";
#if defined(G5_ISA_V4)
  if (__builtin_cpu_supports("x86-64-v4")) expected = "x86-64-v4";
#endif
  EXPECT_EQ(isa, expected);
#elif defined(G5_ISA_OVERRIDE)
  EXPECT_NE(isa.find("target"), std::string::npos) << isa;
#else
  EXPECT_EQ(isa, "default");
#endif
}

}  // namespace
