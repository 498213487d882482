#include "trace.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {
double Ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }
}  // namespace

std::int64_t Tracer::Open(const char* name, std::uint64_t id, Clock::time_point start) {
  if (!enabled_) return -1;
  SpanRecord rec;
  rec.name = name;
  rec.start = start;
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.id = id;
  spans_.push_back(rec);
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::Close(std::int64_t index, Clock::time_point end) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = end;
  // Spans close innermost first; tolerate an out-of-order close by removing
  // the index wherever it sits.
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (*it == index) {
      open_.erase(std::next(it).base());
      break;
    }
  }
}

std::map<std::string, double> Tracer::SelfMs() const {
  std::map<std::string, double> self;
  for (const auto& s : spans_) self[s.name] += Ms(s.end - s.start);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      self[spans_[static_cast<std::size_t>(s.parent)].name] -= Ms(s.end - s.start);
    }
  }
  return self;
}

double Tracer::TopLevelMs(const char* except) const {
  double total = 0;
  for (const auto& s : spans_) {
    if (s.parent < 0 && std::strcmp(s.name, except) != 0) total += Ms(s.end - s.start);
  }
  return total;
}

bool Tracer::WriteJson(const std::string& path, Clock::time_point origin) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "  {\"span\": %zu, \"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"parent\": %lld, \"id\": %llu}%s\n",
                 i, s.name, Ms(s.start - origin) * 1e3, Ms(s.end - origin) * 1e3,
                 static_cast<long long>(s.parent), static_cast<unsigned long long>(s.id),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
