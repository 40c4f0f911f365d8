#ifndef ZEUS_NET_FRAME_SERVER_H_
#define ZEUS_NET_FRAME_SERVER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame_conn.h"
#include "net/socket.h"

namespace zeus::net {

// The one TCP server behind every cluster process, router and shard: a
// listener, an accept thread and one thread per connection. The first 4
// bytes of a connection pick the protocol. "GET " is an HTTP scrape,
// answered from the metrics callback at /metrics (404 elsewhere), then
// closed; "GET " read as a little-endian u32 is ~542M, far past
// kMaxFrameBytes, so no frame aliases it. Anything else is the first
// frame's length prefix. Frame connections are strict request/response
// with blocking reads; replies are written under `write_deadline_ms`.
// Connections carry the fault-injection tag "server:<name>".
class FrameServer {
 public:
  // Builds the reply to one request frame. Must not throw.
  using DispatchFn = std::function<Frame(const Frame&)>;
  // Renders the Prometheus text served at GET /metrics.
  using MetricsFn = std::function<std::string()>;

  FrameServer(std::string name, int write_deadline_ms, DispatchFn dispatch,
              MetricsFn metrics);
  ~FrameServer();  // Stop()

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  // Binds host:port (0 = ephemeral, see port()) and starts accepting.
  common::Status Start(const std::string& host, int port);
  // Stops accepting. Connections finish their current request, then exit;
  // idle ones stay open until CloseAllConns, so an owner can drain first.
  void CloseListener();
  // Shuts down every live connection, waking its blocked read or write.
  void CloseAllConns();
  // CloseListener + CloseAllConns, then joins every thread. Idempotent.
  void Stop();

  int port() const { return listener_.port(); }

 private:
  void AcceptLoop();
  void ConnLoop(uint64_t id, std::shared_ptr<FrameConn> conn);
  // "GET " already consumed: serves the request and closes.
  void ServeHttp(FrameConn& conn);

  const std::string name_;
  const int write_deadline_ms_;
  const DispatchFn dispatch_;
  const MetricsFn metrics_;

  TcpListener listener_;
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  std::vector<std::thread> conn_threads_;
  // Keyed by a per-connection id, not the fd: a connection that failed
  // has already closed its fd, which a newer connection may reuse.
  std::map<uint64_t, std::weak_ptr<FrameConn>> conns_;
  uint64_t next_conn_id_ = 0;

  std::thread accept_thread_;
};

}  // namespace zeus::net

#endif  // ZEUS_NET_FRAME_SERVER_H_
