#ifndef ZEUS_NET_SOCKET_H_
#define ZEUS_NET_SOCKET_H_

#include <atomic>
#include <string>

#include "common/status.h"

namespace zeus::net {

// Thin RAII wrappers over POSIX TCP sockets, with deadlines everywhere.
// Everything the cluster layer needs and nothing else: connect with a
// timeout, read/write-exactly-n with a deadline (poll()-driven, so a peer
// that stops mid-frame turns into a clean kUnavailable instead of a hung
// thread), and a listener whose Accept can be woken by closing the fd
// (how servers stop their accept loops).
//
// Deadline convention: milliseconds; <= 0 means wait forever.

class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  ~TcpSocket() { Close(); }

  TcpSocket(TcpSocket&& other) noexcept : fd_(other.fd_.exchange(-1)) {}
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  // Non-blocking connect + poll with `timeout_ms`; on success the socket is
  // blocking-mode with TCP_NODELAY set (the protocol is request/response —
  // Nagle only adds latency).
  common::Status Connect(const std::string& host, int port, int timeout_ms);

  // Writes exactly n bytes or fails. kUnavailable on timeout / peer reset.
  common::Status WriteAll(const void* data, size_t n, int deadline_ms);
  // Reads exactly n bytes or fails. kUnavailable on timeout / clean close
  // mid-read; a clean close before the FIRST byte reports kNotFound so
  // callers can tell "peer hung up between frames" from "peer died
  // mid-frame".
  common::Status ReadAll(void* data, size_t n, int deadline_ms);

  bool valid() const { return fd_.load() >= 0; }
  int fd() const { return fd_.load(); }
  void Close();
  // shutdown(2) both directions: unblocks any thread inside ReadAll /
  // WriteAll on this socket (how servers kick live connections on Stop).
  void Shutdown();

 private:
  // Atomic: a server's stopping thread calls Shutdown() while the
  // connection's own thread may Close() it.
  std::atomic<int> fd_{-1};
};

class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { Close(); }
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Binds and listens on host:port. port 0 picks an ephemeral port; the
  // bound port is readable via port() afterwards.
  common::Status Listen(const std::string& host, int port);

  // Blocks until a connection arrives or the listener is closed from
  // another thread (which surfaces as a non-OK status).
  common::Result<TcpSocket> Accept();

  int port() const { return port_; }
  bool valid() const { return fd_.load() >= 0; }
  void Close();

 private:
  // Atomic: Close() runs on the stopping thread while Accept() blocks on
  // the accept thread.
  std::atomic<int> fd_{-1};
  int port_ = 0;
};

}  // namespace zeus::net

#endif  // ZEUS_NET_SOCKET_H_
