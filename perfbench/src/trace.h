#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call into a layer, recorded by the benchmark around the
/// library's public functions (the library itself is not instrumented).
struct Span {
  const char* name = "";  ///< Layer-qualified, e.g. "compressors.encode".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< Index of the enclosing span, -1 for a root.
  uint64_t op = 0;        ///< Operation id shared by one replayed call.
  uint64_t bytes = 0;     ///< Bytes the call processed (0 = not counted).
};

/// In-memory span log. Spans are opened and closed on one thread (the
/// replays are serial) and written out once the run ends. A disabled
/// tracer records nothing, which is how the untraced baseline of
/// bench.trace_overhead_fraction is measured.
class Tracer {
 public:
  bool enabled = false;
  uint64_t op = 0;  ///< Stamped on every span opened from now on.
  std::vector<Span> spans;

  int32_t Open(const char* name, uint64_t bytes);
  void Close(int32_t index);

 private:
  std::vector<int32_t> stack_;
};

/// RAII span; a null or disabled tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, uint64_t bytes = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_ = -1;
};


/// Chrome trace-event JSON ("X" slices, op id and parent in args), which
/// `isobar_stat timeline` and chrome://tracing read as is.
std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
