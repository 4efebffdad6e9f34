#include "spans.hpp"

#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace g5bench {

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string_view name)
    : rec_(rec) {
  if (rec_ == nullptr) return;
  index_ = static_cast<int>(rec_->spans_.size());
  const int parent = rec_->open_.empty() ? -1 : rec_->open_.back();
  rec_->spans_.push_back(Span{name, parent, rec_->now(), 0.0});
  rec_->open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  rec_->spans_[static_cast<std::size_t>(index_)].end_s = rec_->now();
  rec_->open_.pop_back();
}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(Clock::now() - t0_).count();
}

double SpanRecorder::total(std::string_view name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.seconds();
  }
  return sum;
}

std::vector<double> SpanRecorder::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].seconds();
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  }
  return self;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto dot = s.name.find('.');
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.name.substr(0, dot) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << s.start_s * 1e6 << ",\"dur\":" << s.seconds() * 1e6
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace " + path);
}

}  // namespace g5bench
