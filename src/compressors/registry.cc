#include "compressors/registry.h"

#include <string>

#include "compressors/bwt_codec.h"
#include "compressors/bzip2_codec.h"
#include "compressors/huffman_codec.h"
#include "compressors/lzans_codec.h"
#include "compressors/lzss_codec.h"
#include "compressors/rle_codec.h"
#include "compressors/zlib_codec.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace isobar {
namespace {

/// Decorates a codec with per-codec telemetry: call, byte, and error
/// counters named `codec.<name>.{compress,decompress}_*`, and a span per
/// call (Timeline slice `codec.<name>`, nested inside chunk.solve or
/// chunk.decode) feeding the latency histogram of its direction. With
/// telemetry disabled the wrapper costs one relaxed atomic load per call
/// on top of the virtual dispatch it already shares with the wrapped
/// codec.
class InstrumentedCodec final : public Codec {
 public:
  explicit InstrumentedCodec(const Codec& inner)
      : inner_(inner),
        prefix_("codec." + std::string(inner.name())),
        compress_calls_(telemetry::GetCounter(prefix_ + ".compress_calls")),
        compress_input_bytes_(
            telemetry::GetCounter(prefix_ + ".compress_input_bytes")),
        compress_output_bytes_(
            telemetry::GetCounter(prefix_ + ".compress_output_bytes")),
        compress_errors_(telemetry::GetCounter(prefix_ + ".compress_errors")),
        compress_site_(prefix_, prefix_ + ".compress_nanos"),
        decompress_calls_(
            telemetry::GetCounter(prefix_ + ".decompress_calls")),
        decompress_input_bytes_(
            telemetry::GetCounter(prefix_ + ".decompress_input_bytes")),
        decompress_output_bytes_(
            telemetry::GetCounter(prefix_ + ".decompress_output_bytes")),
        decompress_errors_(
            telemetry::GetCounter(prefix_ + ".decompress_errors")),
        decompress_site_(prefix_, prefix_ + ".decompress_nanos") {}

  CodecId id() const override { return inner_.id(); }

  Status Compress(ByteSpan input, Bytes* out) const override {
    if (!telemetry::Enabled()) return inner_.Compress(input, out);
    compress_calls_.Increment();
    compress_input_bytes_.Add(input.size());
    telemetry::ScopedSpan span(compress_site_);
    Status status = inner_.Compress(input, out);
    span.End();
    if (status.ok()) {
      compress_output_bytes_.Add(out->size());
    } else {
      compress_errors_.Increment();
    }
    return status;
  }

  Status Decompress(ByteSpan input, size_t original_size,
                    Bytes* out) const override {
    if (!telemetry::Enabled()) {
      return inner_.Decompress(input, original_size, out);
    }
    decompress_calls_.Increment();
    decompress_input_bytes_.Add(input.size());
    telemetry::ScopedSpan span(decompress_site_);
    Status status = inner_.Decompress(input, original_size, out);
    span.End();
    if (status.ok()) {
      decompress_output_bytes_.Add(out->size());
    } else {
      decompress_errors_.Increment();
    }
    return status;
  }

 private:
  const Codec& inner_;
  /// The span name; outlives the process (codecs are never destroyed).
  const std::string prefix_;
  telemetry::Counter& compress_calls_;
  telemetry::Counter& compress_input_bytes_;
  telemetry::Counter& compress_output_bytes_;
  telemetry::Counter& compress_errors_;
  const telemetry::SpanSite compress_site_;
  telemetry::Counter& decompress_calls_;
  telemetry::Counter& decompress_input_bytes_;
  telemetry::Counter& decompress_output_bytes_;
  telemetry::Counter& decompress_errors_;
  const telemetry::SpanSite decompress_site_;
};

template <typename CodecT>
const Codec* Instrumented() {
  // Function-local static references: constructed on first use, never
  // destroyed (trivial-destruction rule for static storage duration).
  static const Codec& codec = []() -> const Codec& {
    const CodecT& raw = *new CodecT();
    if constexpr (telemetry::kCompiledIn) {
      return *new InstrumentedCodec(raw);
    } else {
      return raw;
    }
  }();
  return &codec;
}

}  // namespace

Result<const Codec*> GetCodec(CodecId id) {
  switch (id) {
    case CodecId::kStored:
      return Instrumented<StoredCodec>();
    case CodecId::kZlib:
      return Instrumented<ZlibCodec>();
    case CodecId::kBzip2:
      return Instrumented<Bzip2Codec>();
    case CodecId::kRle:
      return Instrumented<RleCodec>();
    case CodecId::kLzss:
      return Instrumented<LzssCodec>();
    case CodecId::kHuffman:
      return Instrumented<HuffmanCodec>();
    case CodecId::kBwt:
      return Instrumented<BwtCodec>();
    case CodecId::kLzans:
      return Instrumented<LzAnsCodec>();
  }
  return Status::NotFound("unknown codec id " +
                          std::to_string(static_cast<int>(id)));
}

Result<const Codec*> GetCodecByName(std::string_view name) {
  for (CodecId id : AllCodecIds()) {
    if (CodecIdToString(id) == name) return GetCodec(id);
  }
  return Status::NotFound("unknown codec name '" + std::string(name) + "'");
}

std::vector<CodecId> AllCodecIds() {
  return {CodecId::kStored, CodecId::kZlib,    CodecId::kBzip2,
          CodecId::kRle,    CodecId::kLzss,    CodecId::kHuffman,
          CodecId::kBwt,    CodecId::kLzans};
}

std::string CodecNameList(std::string_view sep) {
  std::string out;
  for (CodecId id : AllCodecIds()) {
    if (!out.empty()) out += sep;
    out += CodecIdToString(id);
  }
  return out;
}

}  // namespace isobar
