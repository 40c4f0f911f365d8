#ifndef ZEUS_NET_WIRE_H_
#define ZEUS_NET_WIRE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace zeus::net {

// Length-prefixed binary framing for the cluster transport. One frame on
// the wire is:
//
//   u32  body_len            (little-endian; bytes that follow this field)
//   u8   version             (kWireVersion)
//   u8   type                (FrameType)
//   u64  request_id          (caller-chosen correlation id, echoed back)
//   ...  payload             (body_len - 18 bytes, format per FrameType —
//                             see cluster/protocol.h)
//   u32  crc32               (over version..payload, the PlanIo/RocksDB
//                             IEEE polynomial from common/crc32.h)
//
// The crc trailer makes partial writes self-invalidating: a sender that
// dies (or is killed) mid-frame leaves bytes the receiver rejects as
// corrupt instead of half-executing, which is what makes "a write error
// means the request was NOT executed" a safe retry rule for the client
// (cluster/remote_shard.h). Every integer is little-endian, packed
// byte-by-byte — no struct punning, no host-order dependence.
inline constexpr uint8_t kWireVersion = 1;
// version + type + request_id.
inline constexpr uint32_t kFrameHeaderBytes = 1 + 1 + 8;
inline constexpr uint32_t kFrameTrailerBytes = 4;  // crc32
// Hard bound on body_len: anything larger is garbage (or an HTTP request
// that strayed onto the binary port) and is rejected before allocation.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

// The little-endian u32 at `p` (length prefixes, crc trailers).
inline uint32_t LoadU32(const void* p) {
  const auto* b = static_cast<const uint8_t*>(p);
  return uint32_t{b[0]} | uint32_t{b[1]} << 8 | uint32_t{b[2]} << 16 |
         uint32_t{b[3]} << 24;
}

// Frame types. Requests < 32, responses >= 32. The request set is exactly
// the cluster surface: query submission/execution/cancellation, health +
// stats, dataset registration (which doubles as the plan-catalog handoff
// trigger on re-home), ticket follow-ups for the async surface, and the
// replication maintenance pair (plan-catalog sync + epoch probe).
enum class FrameType : uint8_t {
  // Requests.
  kPing = 1,
  kExecute = 2,          // ExecRequest -> kResult | kError
  kSubmit = 3,           // ExecRequest -> kSubmitReply | kError
  kCancel = 4,           // u64 ticket id -> kOk | kError
  kStats = 5,            // (empty) -> kStatsReply
  kRegisterDataset = 6,  // DatasetSpec -> kRegisterReply | kError
  kTicketState = 7,      // u64 ticket id -> kTicketStateReply | kError
  kTicketWait = 8,       // u64 ticket id -> kResult | kError
  kRemoveDataset = 9,    // string name -> kOk | kError
  kSyncPlans = 10,       // SyncPlansRequest -> kSyncReply | kError
  kEpochQuery = 11,      // string name -> kEpochReply
  // Live streams (append-mode ingestion + standing queries).
  kAppendFrames = 12,    // AppendFramesRequest -> kAppendReply | kError
  kSubscribe = 13,       // SubscribeRequest -> kSubscribeReply | kError
  kStreamPoll = 14,      // StreamPollRequest -> kStreamResult | kError
  kUnsubscribe = 15,     // u64 sub id -> kOk | kError

  // Responses.
  kPong = 32,
  kOk = 33,
  kError = 34,  // u8 StatusCode + string message
  kResult = 35,
  kStatsReply = 36,
  kSubmitReply = 37,
  kTicketStateReply = 38,
  kRegisterReply = 39,
  kSyncReply = 40,
  kEpochReply = 41,
  kAppendReply = 42,
  kSubscribeReply = 43,
  kStreamResult = 44,
};

const char* FrameTypeName(FrameType type);

// True for request frames that are safe to send twice: re-executing them
// cannot change the outcome (registration is keyed and deterministic,
// cancel/stats/state are reads or at-least-once by design). kExecute,
// kSubmit and kTicketWait are NOT here — once fully written, re-sending
// could run a query twice (or double-register a wait) — so the client only
// retries them while it can prove the server never saw a complete frame.
// The stream set is idempotent by construction: kAppendFrames carries an
// ABSOLUTE target length + epoch (a replay grows nothing), kSubscribe a
// client-chosen subscription id (a replay re-attaches to the existing
// subscription), kStreamPoll an explicit after_seq cursor (a replay
// re-reads, never consumes), and kUnsubscribe of a gone id is kOk.
bool IsIdempotent(FrameType type);

struct Frame {
  FrameType type = FrameType::kPing;
  uint64_t request_id = 0;
  std::string payload;
};

// ---- Payload builders / readers -------------------------------------------

// Append-only little-endian payload builder.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  // IEEE-754 bits through a u64 (bit-exact round trip).
  void F64(double v);
  // u32 length + raw bytes.
  void Str(const std::string& s);
  void Bool(bool v) { U8(v ? 1 : 0); }
  // An enum as its u8 value. `max` only bounds the reader; it is taken here
  // so that one field list drives both directions (cluster/protocol.cc).
  template <typename E>
  void Enum(E v, E /*max*/) {
    U8(static_cast<uint8_t>(v));
  }

  const std::string& str() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

// Bounds-checked reader over a payload. Every getter returns false (and
// poisons the reader) instead of reading past the end, so decoders degrade
// to "reject frame", never to UB — the property tests in tests/net_test.cc
// feed this truncations of every length.
class WireReader {
 public:
  explicit WireReader(const std::string& buf) : buf_(buf) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool I32(int32_t* v);
  bool I64(int64_t* v);
  bool F64(double* v);
  // Rejects lengths that overrun the buffer before allocating.
  bool Str(std::string* s);

  // Reference forms of the getters above, matching WireWriter's calls so
  // that one field list drives both directions (cluster/protocol.cc).
  bool U8(uint8_t& v) { return U8(&v); }
  bool U32(uint32_t& v) { return U32(&v); }
  bool U64(uint64_t& v) { return U64(&v); }
  bool I32(int32_t& v) { return I32(&v); }
  bool I64(int64_t& v) { return I64(&v); }
  bool F64(double& v) { return F64(&v); }
  bool Str(std::string& s) { return Str(&s); }

  // The checks payload decoders share. Each poisons the reader on a value
  // the wire format forbids.
  // A bool is a u8 that is exactly 0 or 1.
  bool Bool(bool& v);
  // An enum is a u8 no larger than `max`.
  template <typename E>
  bool Enum(E& v, E max) {
    uint8_t b = 0;
    if (!U8(&b)) return false;
    if (b > static_cast<uint8_t>(max)) return Fail();
    v = static_cast<E>(b);
    return true;
  }
  // A collection's u32 element count, rejected before the caller allocates
  // when `n` elements of at least `min_elem_bytes` (> 0) each cannot fit in
  // the bytes left, so a lying count never drives an allocation.
  bool Count(uint32_t& n, size_t min_elem_bytes);
  // Poisons the reader (a decoder's own check failed); returns false.
  bool Fail() {
    ok_ = false;
    return false;
  }

  bool ok() const { return ok_; }
  // True when every byte was consumed — decoders use it to reject frames
  // with trailing junk.
  bool AtEnd() const { return ok_ && pos_ == buf_.size(); }
  // Unconsumed bytes.
  size_t remaining() const { return pos_ < buf_.size() ? buf_.size() - pos_ : 0; }

 private:
  bool Need(size_t n);

  const std::string& buf_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---- Frame <-> bytes -------------------------------------------------------

// Serializes the whole frame, length prefix and crc trailer included.
std::string EncodeFrame(const Frame& frame);

// Parses the body of a frame (everything after the length prefix) whose
// declared length was `body`. Validates version, minimum size and crc.
common::Status DecodeFrameBody(const std::string& body, Frame* out);

}  // namespace zeus::net

#endif  // ZEUS_NET_WIRE_H_
