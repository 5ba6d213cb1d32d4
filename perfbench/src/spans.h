// In-memory span recorder for the traced replay.
//
// A span is (name, id, parent, op, start, end). Spans nest through a stack:
// the innermost open span is the parent of the next one. Every replayed
// operation opens one root span, which is timed on every pass; child spans
// are recorded only while tracing is enabled, so an untraced pass costs the
// root's two clock reads and nothing else. Records stay in memory and are
// written out once, after the replay ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Record {
    const char* name = "";  // string literal
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = none (a root)
    std::uint32_t op = 0;
    bool traced = false;  // recorded on a traced pass
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
  };

  void set_tracing(bool on) { tracing_ = on; }
  bool tracing() const { return tracing_; }

  // Opens a span; roots are recorded even when tracing is off. Returns 0
  // when the span is not recorded.
  std::uint32_t open(const char* name, std::uint32_t op, bool root) {
    if (!root && !tracing_) return 0;
    Record r;
    r.name = name;
    r.id = static_cast<std::uint32_t>(records_.size() + 1);
    r.parent = stack_.empty() ? 0 : stack_.back();
    r.op = op;
    r.traced = tracing_;
    stack_.push_back(r.id);
    records_.push_back(r);
    records_.back().t0 = now_ns();
    return r.id;
  }

  // Closes span `id` (the innermost open one); returns its duration.
  std::int64_t close(std::uint32_t id) {
    const std::int64_t t1 = now_ns();
    Record& r = records_[id - 1];
    r.t1 = t1;
    stack_.pop_back();
    return t1 - r.t0;
  }

  // One line per span: "P <traced> <id> <parent> <op> <t0> <t1> <name>".
  void write(std::ostream& out) const {
    for (const Record& r : records_) {
      out << "P " << (r.traced ? 1 : 0) << ' ' << r.id << ' ' << r.parent
          << ' ' << r.op << ' ' << r.t0 << ' ' << r.t1 << ' ' << r.name
          << '\n';
    }
  }

 private:
  bool tracing_ = false;
  std::vector<Record> records_;
  std::vector<std::uint32_t> stack_;
};

// RAII span. A root span is timed on every pass; other spans only while the
// tracer is tracing.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint32_t op, bool root = false)
      : tracer_(tracer), id_(tracer.open(name, op, root)) {}
  ~Span() {
    if (id_ != 0) tracer_.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span early and returns its duration in ns (0 if unrecorded).
  std::int64_t end() {
    if (id_ == 0) return 0;
    const std::int64_t ns = tracer_.close(id_);
    id_ = 0;
    return ns;
  }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
