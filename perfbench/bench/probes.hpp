// Host-time probes the benchmark installs from outside the simulator.
//
// Nothing here reaches into the simulator's internals: the traced run
// wraps the chain's MapUdf/ReduceUdf pointers and the auditor's
// Observability hooks in delegating timers, and records spans around its
// own calls into the public entry points (scene construction, run,
// verification). Spans stay in memory and are written out once at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mapred/record.hpp"
#include "obs/obs.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded interval. Spans of one op share `op`; `parent` indexes
/// the causing span in the same log (-1 for an op's root span). Names
/// are string literals.
struct Span {
  std::uint32_t op = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

class SpanLog {
 public:
  int open(std::uint32_t op, const char* name, int parent) {
    spans_.push_back(Span{op, name, now_ns(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  /// Aggregated per-op child (UDF calls, per-fetch reuse checks): one
  /// record with a call count and total time instead of one span each.
  struct Aggregate {
    std::uint32_t op;
    const char* name;
    std::uint64_t calls;
    std::int64_t total_ns;
    int parent;
  };
  void aggregate(const Aggregate& a) { aggregates_.push_back(a); }

  /// JSON lines: spans first, then the per-op aggregates.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"op\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d}\n",
                   i, s.op, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent);
    }
    for (const Aggregate& a : aggregates_) {
      std::fprintf(f,
                   "{\"op\":%u,\"name\":\"%s\",\"calls\":%llu,"
                   "\"total_ns\":%lld,\"parent\":%d}\n",
                   a.op, a.name,
                   static_cast<unsigned long long>(a.calls),
                   static_cast<long long>(a.total_ns), a.parent);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
};

/// Per-op child-time accumulators for the run span. UDF calls made
/// while an auditor hook is active (the result-cache eager replay) count
/// as audit time, not UDF calls, so udf + audit + self adds up to the
/// run span.
struct OpProbe {
  SpanLog* log = nullptr;
  std::uint32_t op = 0;
  int run_span = -1;

  std::int64_t udf_ns = 0;
  std::uint64_t udf_calls = 0;
  std::uint64_t udf_records = 0;
  std::int64_t audit_ns = 0;
  std::uint64_t audit_calls = 0;
  std::int64_t fetch_check_ns = 0;  // reuse hook, aggregated
  std::uint64_t fetch_checks = 0;
  int audit_depth = 0;
};

class TimedMapper final : public rcmp::mapred::MapUdf {
 public:
  TimedMapper(const rcmp::mapred::MapUdf& inner, OpProbe& probe)
      : inner_(inner), probe_(probe) {}
  void map(const rcmp::mapred::Record& in, std::uint64_t job_salt,
           rcmp::mapred::Emitter& out) const override {
    if (probe_.audit_depth > 0) {
      inner_.map(in, job_salt, out);
      return;
    }
    ++probe_.udf_calls;
    ++probe_.udf_records;
    const std::int64_t t0 = now_ns();
    inner_.map(in, job_salt, out);
    probe_.udf_ns += now_ns() - t0;
  }

 private:
  const rcmp::mapred::MapUdf& inner_;
  OpProbe& probe_;
};

class TimedReducer final : public rcmp::mapred::ReduceUdf {
 public:
  TimedReducer(const rcmp::mapred::ReduceUdf& inner, OpProbe& probe)
      : inner_(inner), probe_(probe) {}
  void reduce(std::uint64_t key, std::span<const std::uint64_t> values,
              std::uint64_t job_salt,
              rcmp::mapred::Emitter& out) const override {
    if (probe_.audit_depth > 0) {
      inner_.reduce(key, values, job_salt, out);
      return;
    }
    ++probe_.udf_calls;
    probe_.udf_records += values.size();
    const std::int64_t t0 = now_ns();
    inner_.reduce(key, values, job_salt, out);
    probe_.udf_ns += now_ns() - t0;
  }

 private:
  const rcmp::mapred::ReduceUdf& inner_;
  OpProbe& probe_;
};

/// Times one auditor-hook call; exception-safe because a failing audit
/// throws AuditError through it.
class AuditScope {
 public:
  /// A null `span_name` aggregates the call as a fetch check.
  AuditScope(OpProbe& p, const char* span_name)
      : p_(p), fetch_check_(span_name == nullptr) {
    ++p_.audit_depth;
    if (!fetch_check_ && p_.log != nullptr) {
      span_ = p_.log->open(p_.op, span_name, p_.run_span);
    }
    t0_ = now_ns();
  }
  ~AuditScope() {
    const std::int64_t dt = now_ns() - t0_;
    if (span_ >= 0) p_.log->close(span_);
    if (--p_.audit_depth > 0) return;  // nested: the outer scope counts it
    if (fetch_check_) {
      p_.fetch_check_ns += dt;
      ++p_.fetch_checks;
    } else {
      p_.audit_ns += dt;
      ++p_.audit_calls;
    }
  }
  AuditScope(const AuditScope&) = delete;
  AuditScope& operator=(const AuditScope&) = delete;

 private:
  OpProbe& p_;
  bool fetch_check_;
  int span_ = -1;
  std::int64_t t0_ = 0;
};

template <class... A>
void wrap_hook(std::function<void(A...)>& hook, OpProbe& probe,
               const char* span_name) {
  if (!hook) return;
  hook = [inner = std::move(hook), &probe, span_name](A... args) {
    AuditScope scope(probe, span_name);
    inner(std::forward<A>(args)...);
  };
}

/// Wrap every hook the auditor installs (violation_hook only throws).
/// Per-fetch reuse checks are too frequent for one span each; they are
/// aggregated like UDF calls but still count as audit time.
inline void wrap_auditor_hooks(rcmp::obs::Observability& obs,
                               OpProbe& probe) {
  wrap_hook(obs.audit_hook, probe, "audit");
  wrap_hook(obs.reuse_hook, probe, nullptr);
  wrap_hook(obs.policy_replication_hook, probe, "audit.policy_replication");
  wrap_hook(obs.eviction_check_hook, probe, "audit.eviction");
  wrap_hook(obs.cache_hit_hook, probe, "audit.cache_hit");
  wrap_hook(obs.journal_replay_hook, probe, "audit.journal_replay");
}

}  // namespace perfbench
