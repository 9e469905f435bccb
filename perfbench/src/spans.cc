#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<uint64_t> t_open;

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredMs(std::vector<std::pair<double, double>> intervals, double lo,
                 double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cur_lo = 0.0;
  double cur_hi = -1.0;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

double SpanLog::NowMs() const {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   epoch_)
      .count();
}

void SpanLog::Record(const SpanRecord& rec) { spans_.push_back(rec); }

void SpanLog::BeginQuery(uint64_t query_id) { query_ = query_id; }

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  rec_.name = name;
  rec_.id = log_->next_id_++;
  rec_.query = log_->query_;
  rec_.parent = t_open.empty() ? 0 : t_open.back();
  t_open.push_back(rec_.id);
  rec_.start_ms = log_->NowMs();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  rec_.end_ms = log_->NowMs();
  t_open.pop_back();
  log_->Record(rec_);
}

std::map<std::string, double> SpanLog::SelfMsByName() const {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ms, s.end_ms);
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans_) {
    double ms = s.end_ms - s.start_ms;
    const auto it = children.find(s.id);
    if (it != children.end()) ms -= CoveredMs(it->second, s.start_ms, s.end_ms);
    self[s.name] += ms;
  }
  return self;
}

double SpanLog::RootMs() const {
  double total = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.parent == 0) total += s.end_ms - s.start_ms;
  }
  return total;
}

bool SpanLog::WriteJsonl(const std::string& path, const std::string& meta_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"record\": \"span_meta\", \"meta\": %s}\n", meta_json.c_str());
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, \"query\": %llu, "
                 "\"start_ms\": %.6f, \"end_ms\": %.6f}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query), s.start_ms, s.end_ms);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
