#include "net/frame_server.h"

#include <cstring>

#include "common/logging.h"
#include "common/stringutil.h"

namespace zeus::net {

FrameServer::FrameServer(std::string name, int write_deadline_ms,
                         DispatchFn dispatch, MetricsFn metrics)
    : name_(std::move(name)),
      write_deadline_ms_(write_deadline_ms),
      dispatch_(std::move(dispatch)),
      metrics_(std::move(metrics)) {}

FrameServer::~FrameServer() { Stop(); }

common::Status FrameServer::Start(const std::string& host, int port) {
  ZEUS_RETURN_IF_ERROR(listener_.Listen(host, port));
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return common::Status::Ok();
}

void FrameServer::CloseListener() {
  stopping_.store(true);
  listener_.Close();
}

void FrameServer::CloseAllConns() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto& [id, weak] : conns_) {
    if (auto conn = weak.lock()) conn->Shutdown();
  }
}

void FrameServer::Stop() {
  CloseListener();
  CloseAllConns();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) t.join();
}

void FrameServer::AcceptLoop() {
  while (!stopping_.load()) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load()) return;
      ZEUS_LOG(Warning) << name_
                        << " accept failed: " << accepted.status().ToString();
      return;
    }
    auto conn = std::make_shared<FrameConn>(std::move(accepted).value(),
                                            "server:" + name_);
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_.load()) return;
    const uint64_t id = next_conn_id_++;
    conns_[id] = conn;
    conn_threads_.emplace_back([this, id, conn] { ConnLoop(id, conn); });
  }
}

void FrameServer::ConnLoop(uint64_t id, std::shared_ptr<FrameConn> conn) {
  // Reads block until a frame arrives; CloseAllConns shuts the socket
  // down, which surfaces here as an error.
  uint8_t head[4];
  if (!stopping_.load() &&
      conn->socket().ReadAll(head, 4, /*deadline_ms=*/-1).ok()) {
    if (std::memcmp(head, "GET ", 4) == 0) {
      ServeHttp(*conn);
    } else {
      Frame req;
      common::Status st =
          conn->ReadFrameBody(LoadU32(head), &req, /*deadline_ms=*/-1);
      // Ends on a clean close, a corrupt frame, a failed write or Stop.
      while (st.ok()) {
        st = conn->WriteFrame(dispatch_(req), write_deadline_ms_);
        if (!st.ok() || stopping_.load()) break;
        st = conn->ReadFrame(&req, /*deadline_ms=*/-1);
      }
    }
  }
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(id);
}

void FrameServer::ServeHttp(FrameConn& conn) {
  // Read the rest of the request head (capped, with a deadline — scrapers
  // are line-speed, anything else is garbage and gets no answer).
  std::string request;
  while (request.find("\r\n\r\n") == std::string::npos) {
    char c = 0;
    if (request.size() >= 8192 ||
        !conn.socket().ReadAll(&c, 1, /*deadline_ms=*/5'000).ok()) {
      conn.Close();
      return;
    }
    request.push_back(c);
  }
  const std::string path = request.substr(0, request.find(' '));

  std::string status = "404 Not Found";
  std::string body = "not found\n";
  if (path == "/metrics") {
    status = "200 OK";
    body = metrics_();
  }
  const std::string response = common::Format(
      "HTTP/1.1 %s\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      status.c_str(), body.size()) + body;
  conn.socket().WriteAll(response.data(), response.size(), write_deadline_ms_);
  conn.Shutdown();
  conn.Close();
}

}  // namespace zeus::net
