#include "trace.h"

#include "common.h"

namespace perfbench {

int32_t Tracer::Open(const char* name, uint64_t bytes) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op;
  span.bytes = bytes;
  const auto index = static_cast<int32_t>(spans.size());
  spans.push_back(span);
  stack_.push_back(index);
  spans.back().start_ns = NowNs();  // last, so bookkeeping stays outside
  return index;
}

void Tracer::Close(int32_t index) {
  const int64_t end = NowNs();
  spans[static_cast<size_t>(index)].end_ns = end;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

Scope::Scope(Tracer* tracer, const char* name, uint64_t bytes)
    : tracer_(tracer != nullptr && tracer->enabled ? tracer : nullptr) {
  if (tracer_ != nullptr) index_ = tracer_->Open(name, bytes);
}

Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->Close(index_);
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  const int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  std::string json =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"thread_name\","
      "\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"replay\"}}";
  for (const Span& span : spans) {
    json += ",{\"name\":" + Quote(span.name) +
            ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
            Num(static_cast<double>(span.start_ns - base) / 1e3) +
            ",\"dur\":" +
            Num(static_cast<double>(span.end_ns - span.start_ns) / 1e3) +
            ",\"args\":{\"op\":" + std::to_string(span.op) +
            ",\"parent\":" + std::to_string(span.parent) +
            ",\"bytes\":" + std::to_string(span.bytes) + "}}";
  }
  json += "]}\n";
  return json;
}

}  // namespace perfbench
