#include "net/wire.h"

#include <cstring>

#include "common/crc32.h"
#include "common/stringutil.h"

namespace zeus::net {

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kPing: return "Ping";
    case FrameType::kExecute: return "Execute";
    case FrameType::kSubmit: return "Submit";
    case FrameType::kCancel: return "Cancel";
    case FrameType::kStats: return "Stats";
    case FrameType::kRegisterDataset: return "RegisterDataset";
    case FrameType::kTicketState: return "TicketState";
    case FrameType::kTicketWait: return "TicketWait";
    case FrameType::kRemoveDataset: return "RemoveDataset";
    case FrameType::kSyncPlans: return "SyncPlans";
    case FrameType::kEpochQuery: return "EpochQuery";
    case FrameType::kAppendFrames: return "AppendFrames";
    case FrameType::kSubscribe: return "Subscribe";
    case FrameType::kStreamPoll: return "StreamPoll";
    case FrameType::kUnsubscribe: return "Unsubscribe";
    case FrameType::kPong: return "Pong";
    case FrameType::kOk: return "Ok";
    case FrameType::kError: return "Error";
    case FrameType::kResult: return "Result";
    case FrameType::kStatsReply: return "StatsReply";
    case FrameType::kSubmitReply: return "SubmitReply";
    case FrameType::kTicketStateReply: return "TicketStateReply";
    case FrameType::kRegisterReply: return "RegisterReply";
    case FrameType::kSyncReply: return "SyncReply";
    case FrameType::kEpochReply: return "EpochReply";
    case FrameType::kAppendReply: return "AppendReply";
    case FrameType::kSubscribeReply: return "SubscribeReply";
    case FrameType::kStreamResult: return "StreamResult";
  }
  return "Unknown";
}

bool IsIdempotent(FrameType type) {
  switch (type) {
    case FrameType::kPing:
    case FrameType::kCancel:
    case FrameType::kStats:
    case FrameType::kRegisterDataset:
    case FrameType::kTicketState:
    case FrameType::kRemoveDataset:
    // Plan-catalog sync converges to the same catalog/epoch no matter how
    // many times it lands; the epoch probe is a pure read.
    case FrameType::kSyncPlans:
    case FrameType::kEpochQuery:
    // The stream set (wire.h): absolute-target appends, keyed subscribes,
    // cursor-addressed polls and unsubscribes all converge on replay.
    case FrameType::kAppendFrames:
    case FrameType::kSubscribe:
    case FrameType::kStreamPoll:
    case FrameType::kUnsubscribe:
      return true;
    default:
      return false;
  }
}

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::F64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

bool WireReader::Need(size_t n) {
  if (!ok_ || buf_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

bool WireReader::U8(uint8_t* v) {
  if (!Need(1)) return false;
  *v = static_cast<uint8_t>(buf_[pos_++]);
  return true;
}

bool WireReader::U32(uint32_t* v) {
  if (!Need(4)) return false;
  *v = LoadU32(buf_.data() + pos_);
  pos_ += 4;
  return true;
}

bool WireReader::U64(uint64_t* v) {
  if (!Need(8)) return false;
  const char* p = buf_.data() + pos_;
  *v = LoadU32(p) | uint64_t{LoadU32(p + 4)} << 32;
  pos_ += 8;
  return true;
}

bool WireReader::I32(int32_t* v) {
  uint32_t u = 0;
  if (!U32(&u)) return false;
  *v = static_cast<int32_t>(u);
  return true;
}

bool WireReader::I64(int64_t* v) {
  uint64_t u = 0;
  if (!U64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool WireReader::F64(double* v) {
  uint64_t bits = 0;
  if (!U64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

bool WireReader::Str(std::string* s) {
  uint32_t len = 0;
  if (!U32(&len)) return false;
  if (!Need(len)) return false;
  s->assign(buf_, pos_, len);
  pos_ += len;
  return true;
}

std::string EncodeFrame(const Frame& frame) {
  const uint32_t body_len = kFrameHeaderBytes +
                            static_cast<uint32_t>(frame.payload.size()) +
                            kFrameTrailerBytes;
  std::string out;
  out.reserve(4 + body_len);
  WireWriter w;
  w.U32(body_len);
  w.U8(kWireVersion);
  w.U8(static_cast<uint8_t>(frame.type));
  w.U64(frame.request_id);
  out = w.Take();
  out.append(frame.payload);
  const uint32_t crc = common::Crc32(0, out.data() + 4, out.size() - 4);
  WireWriter t;
  t.U32(crc);
  out.append(t.str());
  return out;
}

common::Status DecodeFrameBody(const std::string& body, Frame* out) {
  if (body.size() < kFrameHeaderBytes + kFrameTrailerBytes) {
    return common::Status::InvalidArgument("frame body too short");
  }
  const size_t crc_off = body.size() - kFrameTrailerBytes;
  if (common::Crc32(0, body.data(), crc_off) !=
      LoadU32(body.data() + crc_off)) {
    return common::Status::InvalidArgument("frame crc32 mismatch");
  }
  WireReader r(body);
  uint8_t version = 0, type = 0;
  uint64_t request_id = 0;
  if (!r.U8(&version) || !r.U8(&type) || !r.U64(&request_id)) {
    return common::Status::InvalidArgument("frame header unreadable");
  }
  if (version != kWireVersion) {
    return common::Status::InvalidArgument(
        common::Format("unsupported wire version %d", version));
  }
  out->type = static_cast<FrameType>(type);
  out->request_id = request_id;
  out->payload.assign(body, kFrameHeaderBytes,
                      crc_off - kFrameHeaderBytes);
  return common::Status::Ok();
}

}  // namespace zeus::net
