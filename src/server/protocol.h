#ifndef ISOBAR_SERVER_PROTOCOL_H_
#define ISOBAR_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "compressors/codec.h"
#include "core/eupa_selector.h"
#include "linearize/transpose.h"
#include "util/bytes.h"
#include "util/status.h"

namespace isobar::server {

/// Wire format of the isobard compression service (docs/SERVING.md).
///
/// Every message — request or response — is one length-prefixed frame:
/// a fixed 32-byte header followed by `payload_size` payload bytes. All
/// integers are little-endian, matching the container format.
///
///   offset  size  field
///   0       4     magic ("IBRQ" requests, "IBRS" responses)
///   4       1     protocol version (kProtocolVersion)
///   5       1     op (requests) / status (responses)
///   6       2     reserved, must be zero
///   8       8     request id (echoed verbatim in the response)
///   16      8     aux (op-specific; see below)
///   24      8     payload size in bytes
///   32      ...   payload
///
/// Requests on one connection may be pipelined; responses are matched by
/// request id and may arrive in any order (the server answers jobs as
/// they finish). A malformed frame (bad magic, unknown version, nonzero
/// reserved bits, payload beyond the server's limit) poisons the
/// connection: the server drops it without a reply, since framing can no
/// longer be trusted. A well-framed but unsupported request (unknown op,
/// invalid width) gets a kError response and the connection stays usable.

inline constexpr uint32_t kRequestMagic = 0x51524249;   // "IBRQ"
inline constexpr uint32_t kResponseMagic = 0x53524249;  // "IBRS"
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderSize = 32;

/// Default cap on a single frame's payload. Admission control bounds how
/// many payloads are resident; this bounds how large any one can be.
inline constexpr uint64_t kDefaultMaxPayloadBytes = 256ull << 20;

enum class Op : uint8_t {
  kPing = 0,        ///< Echo: payload and aux returned verbatim.
  kCompress = 1,    ///< Payload = raw bytes; aux = packed CompressAux.
  kDecompress = 2,  ///< Payload = container bytes; aux ignored.
  kStats = 3,       ///< Empty payload; response payload = metrics JSON.
  kShutdown = 4,    ///< Ask the daemon to drain and exit. Empty payload.
};

enum class ResponseStatus : uint8_t {
  kOk = 0,     ///< Payload = op-specific result bytes.
  kBusy = 1,   ///< Admission control shed the request; aux = Admission code.
  kError = 2,  ///< aux = isobar StatusCode; payload = UTF-8 message.
};

std::string_view OpToString(Op op);
std::string_view ResponseStatusToString(ResponseStatus status);

/// One parsed frame. `header.aux` interpretation depends on the op.
struct FrameHeader {
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t op = 0;  ///< Op in requests, ResponseStatus in responses.
  uint64_t request_id = 0;
  uint64_t aux = 0;
  uint64_t payload_size = 0;
};

struct Frame {
  FrameHeader header;
  Bytes payload;
};

/// Compress-request knobs packed into the 64-bit aux field:
///   bits 0..7    element width (1..64)
///   bits 8..15   forced codec id, 0xFF = let EUPA choose
///   bits 16..23  forced linearization, 0xFF = let EUPA choose
///   bits 24..31  preference (0 = ratio, 1 = speed)
/// The server's output is bit-reproducible either way — EUPA decides on
/// sample ratios, never on timings — which is what the loadgen's --verify
/// mode and the conformance tests rely on. Forcing both codec and
/// linearization skips the selector's trial compressions.
struct CompressAux {
  size_t width = 8;
  std::optional<CodecId> codec;
  std::optional<Linearization> linearization;
  Preference preference = Preference::kSpeed;
};

uint64_t PackCompressAux(const CompressAux& aux);
/// Rejects widths outside [1, 64], unknown codec/linearization/preference
/// selectors, and nonzero padding bits.
Result<CompressAux> UnpackCompressAux(uint64_t packed);

/// Appends one frame (header + payload) to `out`.
void AppendRequestFrame(Op op, uint64_t request_id, uint64_t aux,
                        ByteSpan payload, Bytes* out);
void AppendResponseFrame(ResponseStatus status, uint64_t request_id,
                         uint64_t aux, ByteSpan payload, Bytes* out);

Bytes EncodeRequest(Op op, uint64_t request_id, uint64_t aux,
                    ByteSpan payload);
Bytes EncodeResponse(ResponseStatus status, uint64_t request_id, uint64_t aux,
                     ByteSpan payload);

/// Incremental frame decoder: feed it bytes as they arrive off a socket,
/// collect complete frames. A framing violation (wrong magic, unknown
/// version, nonzero reserved field, payload_size beyond the limit)
/// returns Corruption and poisons the parser — every later Feed fails
/// with the same status, because resynchronizing inside a corrupt byte
/// stream is guesswork.
class FrameParser {
 public:
  /// `expected_magic` selects the direction being parsed; `max_payload`
  /// bounds a single frame's payload_size.
  FrameParser(uint32_t expected_magic,
              uint64_t max_payload = kDefaultMaxPayloadBytes)
      : expected_magic_(expected_magic), max_payload_(max_payload) {}

  /// Consumes `data`, appending every completed frame to `out` (which is
  /// not cleared). Partial trailing bytes are buffered for the next call.
  Status Feed(ByteSpan data, std::vector<Frame>* out);

  /// Bytes buffered toward an incomplete frame (0 at a frame boundary).
  size_t buffered_bytes() const { return buffer_.size(); }

  /// True once a Feed failed; the connection should be dropped.
  bool poisoned() const { return !error_.ok(); }

 private:
  uint32_t expected_magic_;
  uint64_t max_payload_;
  Bytes buffer_;
  Status error_;
};

}  // namespace isobar::server

#endif  // ISOBAR_SERVER_PROTOCOL_H_
