#include "tracer.h"

#include <cstdio>
#include <cstring>

#include "common.h"

namespace perfbench {

void Tracer::Begin(const char* name, uint64_t id) {
  int64_t stored = -1;
  if (stored_.size() < kMaxStored) {
    stored = static_cast<int64_t>(stored_.size());
    int64_t parent = stack_.empty() ? -1 : stack_.back().stored;
    stored_.push_back(Record{name, id, 0, 0, parent});
  }
  stack_.push_back(Open{name, id, NowNs(), 0, stored});
}

void Tracer::End(const char* rename) {
  int64_t end = NowNs();
  Open open = stack_.back();
  stack_.pop_back();
  const char* name = rename != nullptr ? rename : open.name;
  int64_t duration = end - open.start;
  Stats& stats = Find(name)->stats;
  ++stats.count;
  stats.total_ns += duration;
  stats.self_ns += duration - open.child_ns;
  if (stack_.empty()) {
    top_level_ns_ += duration;
  } else {
    stack_.back().child_ns += duration;
  }
  if (open.stored >= 0) {
    Record& record = stored_[static_cast<size_t>(open.stored)];
    record.name = name;
    record.start = open.start;
    record.end = end;
  }
  ++spans_;
}

void Tracer::StartLaps() {
  if (enabled_) lap_start_ = NowNs();
}

void Tracer::Lap(const char* name, uint64_t id) {
  if (!enabled_) return;
  const int64_t end = NowNs();
  const int64_t duration = end - lap_start_;
  Stats& stats = Find(name)->stats;
  ++stats.count;
  stats.total_ns += duration;
  stats.self_ns += duration;
  top_level_ns_ += duration;
  if (stored_.size() < kMaxStored) {
    stored_.push_back(Record{name, id, lap_start_, end, -1});
  }
  ++spans_;
  lap_start_ = end;
}

Tracer::Named* Tracer::Find(const char* name) {
  for (Named& named : by_name_) {
    if (named.name == name || std::strcmp(named.name, name) == 0) {
      return &named;
    }
  }
  by_name_.push_back(Named{name, {}});
  return &by_name_.back();
}

Tracer::Stats Tracer::Get(const char* name) const {
  for (const Named& named : by_name_) {
    if (std::strcmp(named.name, name) == 0) return named.stats;
  }
  return {};
}

double Tracer::MeanSelfNs(const char* name) const {
  Stats stats = Get(name);
  return stats.count == 0 ? 0.0
                          : static_cast<double>(stats.self_ns) /
                                static_cast<double>(stats.count);
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < stored_.size(); ++i) {
    const Record& r = stored_[i];
    if (r.end == 0) continue;  // still open when the run ended
    std::fprintf(out,
                 "{\"span\": %zu, \"name\": \"%s\", \"id\": %llu, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %lld}\n",
                 i, r.name, static_cast<unsigned long long>(r.id),
                 static_cast<long long>(r.start),
                 static_cast<long long>(r.end),
                 static_cast<long long>(r.parent));
  }
  return std::fclose(out) == 0;
}

double Tracer::CalibrateSpanNs() {
  constexpr int kSpans = 200000;
  Tracer scratch(true);
  int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    scratch.Begin("calibrate", static_cast<uint64_t>(i));
    scratch.End();
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

}  // namespace perfbench
