// Outside-in layer tracing for the benchmark's traced run.
//
// The traced run does not instrument src/. It re-composes one device
// analysis from the public entry points of each layer, in the order
// core::Pipeline::analyze calls them, and wraps every call in a span kept in
// memory. A layer's self time is its spans' duration minus the part their
// child spans cover. The helper checks the composed report byte for byte
// against Pipeline::analyze, so the split describes the real pipeline.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/components/registry.h"
#include "core/analysis_cache.h"
#include "core/pipeline.h"
#include "core/semantics.h"
#include "firmware/firmware_image.h"

namespace firmbench {

/// Single-threaded span recorder: name, parent, start and end of each span.
class Tracer {
 public:
  int open(const char* name);
  void close(int index);

  /// Self time per span name in milliseconds, over every recorded span.
  std::map<std::string, double> self_ms() const;
  /// Total (inclusive) time per span name in milliseconds.
  std::map<std::string, double> total_ms() const;
  void clear() { spans_.clear(); }

 private:
  struct Record {
    const char* name;
    int parent;
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point end;
  };
  std::vector<Record> spans_;
  std::vector<int> stack_;
};

/// RAII span on a Tracer.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~Span() { tracer_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// SemanticsModel decorator that times every classification and counts
/// calls and distinct slice texts. It reports the wrapped model's name, so
/// reports stay byte-identical.
class TimedModel final : public firmres::core::SemanticsModel {
 public:
  TimedModel(const firmres::core::SemanticsModel& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  firmres::fw::Primitive classify(const std::string& slice_text) const override;
  firmres::core::ScoredClassification classify_scored(
      const std::string& slice_text) const override;
  std::string name() const override { return inner_.name(); }

  std::size_t calls() const { return calls_; }
  std::size_t distinct() const { return distinct_.size(); }
  void reset_counts() {
    calls_ = 0;
    distinct_.clear();
  }

 private:
  const firmres::core::SemanticsModel& inner_;
  Tracer& tracer_;
  mutable std::size_t calls_ = 0;
  mutable std::unordered_set<std::string> distinct_;
};

/// The sequential (jobs = 1) Pipeline::analyze with default options,
/// composed from layer calls with a span around each. `registry` and
/// `cache` may be null, as in Pipeline::Options. Timings stay zero.
firmres::core::DeviceAnalysis analyze_layered(
    const firmres::fw::FirmwareImage& image,
    const firmres::core::SemanticsModel& model,
    const firmres::analysis::components::LibraryRegistry* registry,
    firmres::core::AnalysisCache* cache, Tracer& tracer);

}  // namespace firmbench
