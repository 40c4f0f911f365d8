#include "net/frame_conn.h"

#include <chrono>
#include <thread>

#include "common/stringutil.h"

namespace zeus::net {

bool FrameConn::Inject(FaultDirection direction, FrameType type,
                       FaultRule* fired) {
  FaultInjector* injector = GetFaultInjector();
  if (injector == nullptr) return false;
  return injector->Match(direction, type, tag_, fired);
}

common::Status FrameConn::WriteFrame(const Frame& frame, int deadline_ms) {
  std::string bytes = EncodeFrame(frame);
  FaultRule fired;
  if (Inject(FaultDirection::kSend, frame.type, &fired)) {
    switch (fired.action) {
      case FaultAction::kDrop:
        // The sender believes the frame went out; the peer never sees it.
        return common::Status::Ok();
      case FaultAction::kDelayMs:
        std::this_thread::sleep_for(std::chrono::milliseconds(fired.delay_ms));
        break;
      case FaultAction::kClose:
        Shutdown();
        Close();
        return common::Status::Unavailable("connection closed (injected)");
      case FaultAction::kCorrupt:
        // Flip a byte inside the crc-covered region; the peer must reject
        // the frame as corrupt, never act on it.
        bytes[4 + kFrameHeaderBytes / 2] ^= 0x40;
        break;
    }
  }
  common::Status st = socket_.WriteAll(bytes.data(), bytes.size(), deadline_ms);
  if (!st.ok()) Close();
  return st;
}

common::Status FrameConn::ReadFrame(Frame* out, int deadline_ms) {
  uint8_t len_bytes[4];
  common::Status st = socket_.ReadAll(len_bytes, 4, deadline_ms);
  if (!st.ok()) {
    // kNotFound (clean close between frames) passes through untouched.
    if (st.code() != common::StatusCode::kNotFound) Close();
    return st;
  }
  return ReadFrameBody(LoadU32(len_bytes), out, deadline_ms);
}

common::Status FrameConn::ReadFrameBody(uint32_t body_len, Frame* out,
                                        int deadline_ms) {
  if (body_len < kFrameHeaderBytes + kFrameTrailerBytes ||
      body_len > kMaxFrameBytes) {
    Close();
    return common::Status::Unavailable(
        common::Format("bad frame length %u", body_len));
  }
  std::string body(body_len, '\0');
  common::Status st = socket_.ReadAll(body.data(), body.size(), deadline_ms);
  if (!st.ok()) {
    Close();
    // A close mid-frame is a transport loss whatever ReadAll called it.
    return common::Status::Unavailable("frame truncated: " + st.message());
  }

  // The frame type is byte 1 of the body; peek it so recv-side fault rules
  // can match by type before the frame is acted on.
  const FrameType peeked = static_cast<FrameType>(body[1]);
  FaultRule fired;
  if (Inject(FaultDirection::kRecv, peeked, &fired)) {
    switch (fired.action) {
      case FaultAction::kDrop:
        // Pretend the frame never arrived; keep reading. The deadline is
        // NOT restarted — a dropped reply still times the caller out.
        return ReadFrame(out, deadline_ms);
      case FaultAction::kDelayMs:
        std::this_thread::sleep_for(std::chrono::milliseconds(fired.delay_ms));
        break;
      case FaultAction::kClose:
        Shutdown();
        Close();
        return common::Status::Unavailable("connection closed (injected)");
      case FaultAction::kCorrupt:
        body[kFrameHeaderBytes / 2] ^= 0x40;
        break;
    }
  }

  st = DecodeFrameBody(body, out);
  if (!st.ok()) {
    // Framing integrity is gone (crc mismatch / bad header): nothing after
    // this point on the stream can be trusted, so the connection dies.
    Close();
    return common::Status::Unavailable("corrupt frame: " + st.message());
  }
  return common::Status::Ok();
}

}  // namespace zeus::net
