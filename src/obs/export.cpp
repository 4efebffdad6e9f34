#include "obs/export.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace g5::obs {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

/// Gauge value without registering the name; 0 when absent.
double gauge_or_zero(std::string_view name) {
  const Gauge* g = Registry::instance().find_gauge(name);
  return g != nullptr ? g->value() : 0.0;
}

void append_hist_summary(std::string& out, const Histogram::Snapshot& h) {
  out += "{\"count\":";
  out += std::to_string(h.count);
  out += ",\"mean\":";
  out += json_number(h.count != 0 ? h.mean() : 0.0);
  out += ",\"min\":";
  out += json_number(h.min);
  out += ",\"max\":";
  out += json_number(h.max);
  out += ",\"p50\":";
  out += json_number(h.quantile(0.50));
  out += ",\"p90\":";
  out += json_number(h.quantile(0.90));
  out += ",\"p99\":";
  out += json_number(h.quantile(0.99));
  out += '}';
}

void append_registry_maps(std::string& out,
                          const std::vector<MetricSample>& samples) {
  out += "\"counters\":{";
  bool first = true;
  for (const MetricSample& s : samples) {
    if (s.kind != MetricKind::kCounter) continue;
    if (!first) out += ',';
    first = false;
    append_json_string(out, s.name);
    out += ':';
    out += std::to_string(s.count);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const MetricSample& s : samples) {
    if (s.kind != MetricKind::kGauge) continue;
    if (!first) out += ',';
    first = false;
    append_json_string(out, s.name);
    out += ':';
    out += json_number(s.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const MetricSample& s : samples) {
    if (s.kind != MetricKind::kHistogram) continue;
    if (!first) out += ',';
    first = false;
    append_json_string(out, s.name);
    out += ':';
    append_hist_summary(out, s.hist);
  }
  out += '}';
}

/// Prometheus metric name: [a-zA-Z0-9_:], everything else becomes '_'.
std::string prom_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  // A name may not start with a digit: lead with '_' instead.
  if (!name.empty() && name[0] >= '0' && name[0] <= '9') out += '_';
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prom_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

std::string registry_json() {
  std::string out;
  out.reserve(4096);
  out += '{';
  append_registry_maps(out, Registry::instance().snapshot());
  out += '}';
  return out;
}

std::string build_status_json() {
  static std::atomic<std::uint64_t> g_sequence{0};
  const std::uint64_t seq =
      g_sequence.fetch_add(1, std::memory_order_relaxed) + 1;

  const FlightRecorder& fr = FlightRecorder::instance();
  std::string out;
  out.reserve(8192);
  out += "{\"schema\":\"g5.status.v1\",\"pid\":";
#if defined(__unix__) || defined(__APPLE__)
  out += std::to_string(static_cast<long>(::getpid()));
#else
  out += '0';
#endif
  out += ",\"sequence\":";
  out += std::to_string(seq);
  out += ",\"uptime_s\":";
  out += json_number(now_us() * 1e-6);

  out += ",\"heartbeat\":{\"step\":";
  out += json_number(gauge_or_zero("g5.sim.step"));
  out += ",\"steps_total\":";
  out += json_number(gauge_or_zero("g5.sim.steps_total"));
  out += ",\"steps_per_s\":";
  out += json_number(gauge_or_zero("g5.sim.steps_per_s"));
  out += ",\"eta_s\":";
  out += json_number(gauge_or_zero("g5.sim.eta_s"));
  out += ",\"interactions_per_s\":";
  out += json_number(gauge_or_zero("g5.sim.interactions_per_s"));
  out += ",\"mean_list\":";
  out += json_number(gauge_or_zero("g5.sim.mean_list"));
  out += '}';

  out += ",\"device\":{\"boards\":";
  out += json_number(gauge_or_zero("g5.board.count"));
  out += '}';

  out += ",\"flight\":{\"steps\":";
  out += std::to_string(fr.step_count());
  out += ",\"spans\":";
  out += std::to_string(fr.span_count());
  out += ",\"threads\":[";
  bool first = true;
  for (const ThreadPath& tp : fr.thread_paths()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, tp.thread);
    out += ",\"path\":";
    append_json_string(out, tp.path);
    out += '}';
  }
  out += "]}";

  out += ",\"last_step\":";
  const std::vector<StepMetrics> steps = fr.last_steps();
  if (steps.empty()) {
    out += "null";
  } else {
    out += step_metrics_json(steps.back());
  }

  out += ',';
  append_registry_maps(out, Registry::instance().snapshot());
  out += '}';
  return out;
}

std::string prometheus_text() {
  std::string out;
  out.reserve(8192);
  char buf[64];
  for (const MetricSample& s : Registry::instance().snapshot()) {
    const std::string name = prom_name(s.name);
    out += "# TYPE ";
    out += name;
    switch (s.kind) {
      case MetricKind::kCounter:
        out += " counter\n";
        out += name;
        out += ' ';
        out += std::to_string(s.count);
        out += '\n';
        break;
      case MetricKind::kGauge:
        out += " gauge\n";
        out += name;
        out += ' ';
        out += prom_number(s.value);
        out += '\n';
        break;
      case MetricKind::kHistogram: {
        out += " histogram\n";
        const Histogram::Snapshot& h = s.hist;
        // Cumulative bucket series over the power-of-two bounds;
        // buckets past the last populated one collapse into +Inf.
        int last = -1;
        for (int b = 0; b < Histogram::kBuckets; ++b) {
          if (h.buckets[static_cast<std::size_t>(b)] != 0) last = b;
        }
        std::uint64_t cum = 0;
        for (int b = 0; b <= last; ++b) {
          cum += h.buckets[static_cast<std::size_t>(b)];
          const double le = std::ldexp(1.0, b - Histogram::kExpBias + 1);
          std::snprintf(buf, sizeof(buf), "%.9g", le);
          out += name;
          out += "_bucket{le=\"";
          out += buf;
          out += "\"} ";
          out += std::to_string(cum);
          out += '\n';
        }
        out += name;
        out += "_bucket{le=\"+Inf\"} ";
        out += std::to_string(h.count);
        out += '\n';
        out += name;
        out += "_sum ";
        out += prom_number(h.sum);
        out += '\n';
        out += name;
        out += "_count ";
        out += std::to_string(h.count);
        out += '\n';
        break;
      }
    }
  }
  return out;
}

bool atomic_write_file(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written =
      content.empty() ? 0 : std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace g5::obs
