// Observability layer: spans, registry, trace export, step metrics.
//
// The concurrency tests (ObsCounter.ParallelIncrementsAreExact,
// ObsSpan.WorkerSpansInheritParentPath) are in the TSan CI job's filter
// (.github/workflows/ci.yml) — the registry and the thread-local span
// stack are the only obs state shared across walk lanes.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <cmath>
#include <limits>

#include "core/engines.hpp"
#include "core/simulation.hpp"
#include "ic/plummer.hpp"
#include "obs/obs.hpp"
#include "obs/probe.hpp"
#include "util/parallel.hpp"

namespace {

using namespace g5;

/// Every obs test owns the global switch/accumulators for its scope.
class ObsEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset_phases();
    obs::Registry::instance().reset_values();
  }
  void TearDown() override {
    obs::stop_trace();
    obs::set_enabled(false);
    obs::reset_phases();
    obs::Registry::instance().reset_values();
  }
};

double phase_seconds(const std::string& path) {
  for (const auto& p : obs::phase_report()) {
    if (p.path == path) return p.total_s;
  }
  return -1.0;
}

using ObsRegistry = ObsEnv;
using ObsSpan = ObsEnv;
using ObsCounter = ObsEnv;
using ObsTrace = ObsEnv;
using ObsMetrics = ObsEnv;
using ObsHistogram = ObsEnv;
using ObsProbe = ObsEnv;

TEST_F(ObsRegistry, CounterAndGaugeRoundTrip) {
  obs::counter("test.reg.counter").add(3);
  obs::counter("test.reg.counter").add(2);
  obs::gauge("test.reg.gauge").set(0.625);
  EXPECT_EQ(obs::counter("test.reg.counter").value(), 5u);
  EXPECT_DOUBLE_EQ(obs::gauge("test.reg.gauge").value(), 0.625);

  bool saw_counter = false;
  bool saw_gauge = false;
  for (const auto& s : obs::Registry::instance().snapshot()) {
    if (s.name == "test.reg.counter") {
      saw_counter = true;
      EXPECT_TRUE(s.is_counter);
      EXPECT_EQ(s.count, 5u);
    }
    if (s.name == "test.reg.gauge") {
      saw_gauge = true;
      EXPECT_FALSE(s.is_counter);
      EXPECT_DOUBLE_EQ(s.value, 0.625);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);

  obs::Registry::instance().reset_values();
  EXPECT_EQ(obs::counter("test.reg.counter").value(), 0u);
  EXPECT_DOUBLE_EQ(obs::gauge("test.reg.gauge").value(), 0.0);
}

TEST_F(ObsRegistry, SnapshotIsSortedByName) {
  obs::counter("test.sort.b");
  obs::counter("test.sort.a");
  obs::gauge("test.sort.c");
  const auto snap = obs::Registry::instance().snapshot();
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name);
  }
}

TEST_F(ObsCounter, ParallelIncrementsAreExact) {
  // A counter reference obtained once must take lock-free exact updates
  // from every lane — the pattern the engines use per force phase.
  obs::Counter& c = obs::counter("test.parallel.hits");
  util::ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  pool.parallel_for(kN, 64, [&c](std::size_t begin, std::size_t end,
                                 unsigned /*lane*/) {
    for (std::size_t i = begin; i < end; ++i) c.add(1);
  });
  EXPECT_EQ(c.value(), kN);
}

TEST_F(ObsSpan, NestedPathsWithinThread) {
  {
    obs::Span outer("alpha", "test");
    EXPECT_EQ(obs::Span::current_path(), "/alpha");
    {
      obs::Span inner("beta", "test");
      EXPECT_EQ(obs::Span::current_path(), "/alpha/beta");
      EXPECT_EQ(obs::Span::current_depth(), 2);
    }
    EXPECT_EQ(obs::Span::current_path(), "/alpha");
  }
  EXPECT_EQ(obs::Span::current_depth(), 0);
  EXPECT_GE(phase_seconds("/alpha"), 0.0);
  EXPECT_GE(phase_seconds("/alpha/beta"), 0.0);
}

TEST_F(ObsSpan, DisabledSpansRecordNothing) {
  obs::set_enabled(false);
  {
    obs::Span s("ghost", "test");
    EXPECT_EQ(obs::Span::current_depth(), 0);
  }
  EXPECT_EQ(phase_seconds("/ghost"), -1.0);
}

TEST_F(ObsSpan, WorkerSpansInheritParentPath) {
  // Spans opened inside pool lanes must file under the submitting
  // thread's phase — including lane 0, which runs on that thread.
  util::ThreadPool pool(4);
  std::atomic<int> bad_paths{0};
  {
    obs::Span parent("fork", "test");
    pool.parallel_for(256, 1, [&bad_paths](std::size_t, std::size_t,
                                           unsigned /*lane*/) {
      obs::Span leaf("lane_work", "test");
      if (obs::Span::current_path() != "/fork/worker/lane_work" &&
          obs::Span::current_path() != "/fork/lane_work") {
        bad_paths.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  EXPECT_EQ(bad_paths.load(), 0);
  // Lane 0 nests directly under /fork; worker threads add the pool span.
  const double direct = phase_seconds("/fork/lane_work");
  const double pooled = phase_seconds("/fork/worker/lane_work");
  EXPECT_TRUE(direct >= 0.0 || pooled >= 0.0);
}

TEST_F(ObsSpan, RecordPhaseExtendsCurrentPath) {
  {
    obs::Span s("reduce", "test");
    obs::record_phase("cpu", 1.25, 3);
  }
  bool found = false;
  for (const auto& p : obs::phase_report()) {
    if (p.path == "/reduce/cpu") {
      found = true;
      EXPECT_EQ(p.count, 3u);
      EXPECT_DOUBLE_EQ(p.total_s, 1.25);
    }
  }
  EXPECT_TRUE(found);
}

// --- minimal recursive-descent JSON validator (well-formedness only) ---

struct JsonCursor {
  const std::string& s;
  std::size_t i = 0;
  bool fail = false;

  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  void value() {  // NOLINT(misc-no-recursion)
    skip_ws();
    if (fail || i >= s.size()) {
      fail = true;
      return;
    }
    const char c = s[i];
    if (c == '{') {
      ++i;
      if (consume('}')) return;
      do {
        skip_ws();
        string();
        if (!consume(':')) fail = true;
        value();
      } while (!fail && consume(','));
      if (!consume('}')) fail = true;
    } else if (c == '[') {
      ++i;
      if (consume(']')) return;
      do {
        value();
      } while (!fail && consume(','));
      if (!consume(']')) fail = true;
    } else if (c == '"') {
      string();
    } else if (c == 't') {
      literal("true");
    } else if (c == 'f') {
      literal("false");
    } else if (c == 'n') {
      literal("null");
    } else {
      number();
    }
  }
  void string() {
    if (i >= s.size() || s[i] != '"') {
      fail = true;
      return;
    }
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;
      ++i;
    }
    if (i >= s.size()) {
      fail = true;
      return;
    }
    ++i;
  }
  void literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++i) {
      if (i >= s.size() || s[i] != *p) {
        fail = true;
        return;
      }
    }
  }
  void number() {
    const std::size_t start = i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '-' ||
            s[i] == '+' || s[i] == '.' || s[i] == 'e' || s[i] == 'E')) {
      ++i;
    }
    if (i == start) fail = true;
  }
  bool whole_document() {
    value();
    skip_ws();
    return !fail && i == s.size();
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST_F(ObsTrace, ChromeTraceWellFormed) {
  obs::start_trace();
  {
    obs::Span a("phase_a", "test");
    obs::Span b("phase \"b\"\\slash", "test");  // exercises escaping
    obs::trace_counter("test.counter", 42.0);
  }
  obs::stop_trace();
  EXPECT_GE(obs::trace_event_count(), 3u);
  EXPECT_EQ(obs::trace_dropped_count(), 0u);

  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(obs::write_trace(path));
  const std::string doc = slurp(path);
  ASSERT_FALSE(doc.empty());
  JsonCursor cur{doc};
  EXPECT_TRUE(cur.whole_document()) << "invalid JSON near offset " << cur.i;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTrace, BufferCapDropsAndCounts) {
  obs::start_trace(4);
  for (int k = 0; k < 10; ++k) {
    obs::Span s("tiny", "test");
  }
  obs::stop_trace();
  EXPECT_LE(obs::trace_event_count(), 4u);
  EXPECT_GE(obs::trace_dropped_count(), 6u);
}

TEST_F(ObsMetrics, TwoStepSimulationEmitsRecords) {
  ic::PlummerConfig pc;
  pc.n = 256;
  pc.seed = 7;
  auto pset = ic::make_plummer(pc);

  core::ForceParams fp;
  fp.threads = 2;
  core::TreeEngine engine(fp, core::TreeEngine::Mode::Modified);

  const std::string path = ::testing::TempDir() + "obs_metrics_test.jsonl";
  core::SimulationConfig sc;
  sc.dt = 0.01;
  sc.steps = 2;
  sc.log_every = 0;
  sc.metrics_jsonl = path;
  core::Simulation sim(engine, sc);
  sim.run(pset);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::string last;
  std::uint64_t records = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++records;
    last = line;
    JsonCursor cur{line};
    EXPECT_TRUE(cur.whole_document()) << "bad JSONL record: " << line;
    EXPECT_NE(line.find("\"step\":"), std::string::npos);
    EXPECT_NE(line.find("\"interactions\":"), std::string::npos);
    EXPECT_NE(line.find("\"grape_occupancy\":"), std::string::npos);
  }
  EXPECT_EQ(records, 2u);
  // Host engine: grape account deltas stay zero.
  EXPECT_NE(last.find("\"grape_force_calls\":0"), std::string::npos);
  std::remove(path.c_str());

  // The instrumented phases showed up under the step span.
  EXPECT_GE(phase_seconds("/step"), 0.0);
  EXPECT_GE(phase_seconds("/step/force/build"), 0.0);
  EXPECT_GE(phase_seconds("/step/force/walk"), 0.0);
  EXPECT_GE(phase_seconds("/step/integrate"), 0.0);
  EXPECT_GE(obs::counter("g5.sim.steps").value(), 2u);
  EXPECT_GT(obs::counter("g5.walk.interactions").value(), 0u);
}

TEST_F(ObsMetrics, WriterThrowsOnUnwritablePath) {
  EXPECT_THROW(obs::MetricsWriter("/nonexistent-dir-g5/metrics.jsonl"),
               std::runtime_error);
}

TEST_F(ObsMetrics, NonFiniteFieldsSerializeAsNull) {
  // JSON has no NaN/Inf; the sink must emit null for unmeasured or
  // corrupted values and plain numbers for everything else.
  const std::string path = ::testing::TempDir() + "obs_metrics_nan.jsonl";
  {
    obs::MetricsWriter writer(path);
    obs::StepMetrics m;
    m.step = 1;
    m.wall_s = 0.25;
    // Default accuracy fields are kUnmeasured (NaN) -> null.
    m.energy_drift = obs::StepMetrics::kUnmeasured;
    m.err_tree_p50 = 1.5e-3;  // measured -> number
    m.kernel_s = std::numeric_limits<double>::infinity();  // corrupt -> null
    writer.write(m);
    EXPECT_EQ(writer.records_written(), 1u);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  JsonCursor cur{line};
  EXPECT_TRUE(cur.whole_document()) << line;
  EXPECT_NE(line.find("\"energy_drift\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"momentum_drift\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"err_total_p50\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"err_tree_p50\":0.0015"), std::string::npos) << line;
  EXPECT_NE(line.find("\"kernel_s\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"wall_s\":0.25"), std::string::npos) << line;
  EXPECT_EQ(line.find("nan"), std::string::npos) << line;
  EXPECT_EQ(line.find("inf"), std::string::npos) << line;
  std::remove(path.c_str());
}

TEST_F(ObsHistogram, StatisticsAreExactQuantilesBucketed) {
  auto& h = obs::histogram("test.hist.basic");
  for (double v : {1.0, 2.0, 4.0, 8.0, 1024.0}) h.observe(v);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 1039.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1024.0);
  EXPECT_DOUBLE_EQ(s.mean(), 1039.0 / 5.0);
  // Rank-3 of 5 observations is the value 4; its power-of-two bucket is
  // [4, 8) and the estimate is the geometric midpoint 4*sqrt(2).
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 4.0 * std::sqrt(2.0));
  // Edge quantiles clamp to the observed range.
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1024.0);
  EXPECT_GE(s.quantile(0.0), s.min);
  EXPECT_LT(s.quantile(0.0), 2.0);
}

TEST_F(ObsHistogram, DropsNonFiniteAndBucketsNonPositive) {
  auto& h = obs::histogram("test.hist.edge");
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(std::numeric_limits<double>::infinity());
  h.observe(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.snapshot().count, 0u);
  h.observe(0.0);    // underflow bucket
  h.observe(-3.0);   // underflow bucket, still counted in min/sum
  h.observe(1e-30);  // far below 2^-40: clamps to bucket 0
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, -3.0);
  EXPECT_DOUBLE_EQ(s.max, 1e-30);
  EXPECT_EQ(s.buckets[0], 3u);
}

TEST_F(ObsHistogram, ParallelObservationsAreExact) {
  // The shard design must lose nothing under contention: count and sum
  // are exact, min/max see every thread's extremes. (In the TSan CI
  // job's filter.)
  auto& h = obs::histogram("test.hist.parallel");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int k = 0; k < kPerThread; ++k) {
        h.observe(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Sum of t+1 over threads, kPerThread each: 36 * 5000.
  EXPECT_DOUBLE_EQ(s.sum, 36.0 * kPerThread);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
  std::uint64_t bucketed = 0;
  for (std::uint64_t b : s.buckets) bucketed += b;
  EXPECT_EQ(bucketed, s.count);
}

TEST_F(ObsHistogram, RegistrySnapshotCarriesHistogram) {
  obs::histogram("test.hist.snap").observe(2.0);
  obs::histogram("test.hist.snap").observe(4.0);
  bool found = false;
  for (const auto& sample : obs::Registry::instance().snapshot()) {
    if (sample.name != "test.hist.snap") continue;
    found = true;
    EXPECT_EQ(sample.kind, obs::MetricKind::kHistogram);
    EXPECT_FALSE(sample.is_counter);
    EXPECT_EQ(sample.count, 2u);
    EXPECT_DOUBLE_EQ(sample.value, 3.0);  // mean
    EXPECT_EQ(sample.hist.count, 2u);
  }
  EXPECT_TRUE(found);
}

/// Engine-evaluated Plummer state for probe tests.
model::ParticleSet probed_state(std::uint32_t threads) {
  auto pset = ic::make_plummer(ic::PlummerConfig{.n = 512, .seed = 11});
  core::ForceParams fp{.eps = 0.05, .theta = 0.6, .n_crit = 64};
  fp.threads = threads;
  auto engine = core::make_engine("grape-tree", fp);
  engine->compute(pset);
  return pset;
}

obs::ProbeConfig probe_config() {
  obs::ProbeConfig pc;
  pc.samples = 24;
  pc.seed = 1234;
  pc.eps = 0.05;
  pc.theta = 0.6;
  return pc;
}

bool same_result(const obs::ProbeResult& a, const obs::ProbeResult& b) {
  return a.samples == b.samples && a.total_p50 == b.total_p50 &&
         a.total_p99 == b.total_p99 && a.total_max == b.total_max &&
         a.tree_p50 == b.tree_p50 && a.tree_p99 == b.tree_p99 &&
         a.tree_max == b.tree_max && a.codec_p50 == b.codec_p50 &&
         a.codec_p99 == b.codec_p99 && a.codec_max == b.codec_max;
}

TEST_F(ObsProbe, DeterministicForFixedSeed) {
  const auto pset = probed_state(1);
  obs::ForceErrorProbe probe_a(probe_config());
  obs::ForceErrorProbe probe_b(probe_config());
  const auto first = probe_a.measure(pset);
  const auto second = probe_b.measure(pset);
  EXPECT_GT(first.samples, 0u);
  EXPECT_TRUE(same_result(first, second));
  // The same probe's sampling stream advances per call: a second call
  // draws a fresh subset but must be reproducible run-to-run.
  const auto third = probe_a.measure(pset);
  const auto fourth = probe_b.measure(pset);
  EXPECT_TRUE(same_result(third, fourth));
}

TEST_F(ObsProbe, BitwiseInvariantAcrossThreadsAndPipelineDepth) {
  // The engine's forces are bitwise-invariant across host-thread count,
  // and the probe itself is serial host-double arithmetic — so its error
  // measurement must be too.
  const auto ref = probed_state(1);
  obs::ForceErrorProbe probe_ref(probe_config());
  const auto expected = probe_ref.measure(ref);
  for (const std::uint32_t threads : {2u, 4u}) {
    const auto pset = probed_state(threads);
    obs::ForceErrorProbe probe(probe_config());
    const auto got = probe.measure(pset);
    EXPECT_TRUE(same_result(expected, got)) << "threads=" << threads;
  }
}

TEST_F(ObsProbe, ErrorSplitWithinSaneBudgets) {
  // Loose sanity bounds (the tight paper-budget check is the 16k golden
  // run in CI): the codec error must sit near the hardware's ~0.3%
  // pairwise format error, and both components must be present.
  const auto pset = probed_state(1);
  obs::ForceErrorProbe probe(probe_config());
  const auto r = probe.measure(pset);
  ASSERT_GT(r.samples, 0u);
  EXPECT_GT(r.total_p50, 0.0);
  EXPECT_GT(r.tree_p50, 0.0);
  EXPECT_GT(r.codec_p50, 0.0);
  EXPECT_LE(r.tree_p50, r.tree_p99);
  EXPECT_LE(r.codec_p50, r.codec_p99);
  EXPECT_LT(r.codec_p50, 0.01);  // ~0.3% format error, much slack
  EXPECT_LT(r.tree_p50, 0.10);   // theta=0.6 monopole, much slack
  // Probe telemetry reached the registry.
  EXPECT_EQ(obs::counter("g5.probe.calls").value(), 1u);
  EXPECT_EQ(obs::counter("g5.probe.samples").value(), r.samples);
  EXPECT_GT(obs::gauge("g5.err.force_rel.p50").value(), 0.0);
}

TEST_F(ObsProbe, CodecLegOffLeavesCodecNaNAndTheRestUnchanged) {
  // A host engine's run has no pipeline to judge: the probe skips the
  // codec leg, and its tree and total legs read exactly what they read
  // with the leg on.
  const auto pset = probed_state(1);
  obs::ForceErrorProbe with_codec(probe_config());
  obs::ProbeConfig pc = probe_config();
  pc.codec = false;
  obs::ForceErrorProbe without_codec(pc);
  const auto on = with_codec.measure(pset);
  const auto off = without_codec.measure(pset);
  ASSERT_GT(on.samples, 0u);
  EXPECT_GT(on.codec_p50, 0.0);
  EXPECT_TRUE(std::isnan(off.codec_p50));
  EXPECT_TRUE(std::isnan(off.codec_p99));
  EXPECT_TRUE(std::isnan(off.codec_max));
  EXPECT_EQ(on.samples, off.samples);
  EXPECT_EQ(on.total_p50, off.total_p50);
  EXPECT_EQ(on.total_p99, off.total_p99);
  EXPECT_EQ(on.tree_p50, off.tree_p50);
  EXPECT_EQ(on.tree_p99, off.tree_p99);
  EXPECT_EQ(on.tree_max, off.tree_max);
}

}  // namespace
