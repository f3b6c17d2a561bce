#ifndef JPAR_DIST_WIRE_H_
#define JPAR_DIST_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/result.h"

namespace jpar {

/// RAII wrapper over a connected (or listening) stream socket —
/// Unix-domain or TCP. Blocking I/O with EINTR retry; sends use
/// MSG_NOSIGNAL so a dead peer surfaces as a Status, never SIGPIPE.
/// Move-only; the destructor closes the descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();
  /// Half-closes both directions without releasing the descriptor —
  /// wakes a thread blocked in recv() on this socket (clean EOF). The
  /// dispatcher uses it to force a silent worker's reader to exit.
  void ShutdownBoth();
  /// Releases ownership of the descriptor without closing it.
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Sends exactly `len` bytes; kUnavailable when the peer is gone.
  Status SendAll(const void* data, size_t len);
  /// Receives exactly `len` bytes. Returns false on a clean EOF before
  /// the first byte (peer closed between messages); a mid-buffer EOF or
  /// any socket error is a non-OK Status.
  Result<bool> RecvAll(void* data, size_t len);
  /// Waits up to `timeout_ms` for the socket to become readable.
  Result<bool> WaitReadable(int timeout_ms);

  /// A connected AF_UNIX socketpair (parent end, child end) — how
  /// locally spawned workers are wired up (the child inherits its end
  /// as a known fd across exec).
  static Result<std::pair<Socket, Socket>> Pair();

  /// Connects to "unix:<path>" or "<host>:<port>".
  static Result<Socket> Connect(const std::string& endpoint);
  /// Binds and listens on "unix:<path>" or "<host>:<port>".
  static Result<Socket> ListenOn(const std::string& endpoint);
  /// Accepts one connection from a listening socket.
  Result<Socket> Accept();

 private:
  int fd_ = -1;
};

// ---------------------------------------------------------------------
// Message framing: every protocol message travels as
//   u32 magic ("JPAR", little-endian) | u8 type | u32 payload length |
//   u32 CRC32 of the payload | payload bytes.
// The magic and a hard payload-size cap reject corrupt or truncated
// streams with a clean kIOError instead of attempting a bogus
// gigabyte-sized read; the checksum catches payload bit-flips that a
// well-formed header would otherwise let through. On a data channel a
// checksum mismatch kills the connection, which the dispatcher treats
// as worker loss — recoverable via fragment retry (DESIGN.md §12).

inline constexpr uint32_t kWireMagic = 0x5241504Au;  // "JPAR" LE
/// Framed-message header size: magic + type + length + payload CRC32.
inline constexpr size_t kWireHeaderBytes = 13;

/// Upper bound on one message's payload. Frames are ~ExecOptions::
/// frame_bytes, catalog syncs ship one file per message; 1 GiB is far
/// above anything legitimate and small enough to refuse garbage.
inline constexpr uint32_t kMaxWirePayload = 1u << 30;

struct WireMessage {
  uint8_t type = 0;
  std::string payload;
};

/// Writes one framed message (header + payload in a single buffered
/// send).
Status WriteMessage(Socket* sock, uint8_t type, std::string_view payload);

/// Reads one framed message. Returns false on a clean EOF between
/// messages (peer shut down); corrupt magic, oversized length, a
/// truncated payload, or a payload checksum mismatch fail with
/// kIOError.
Result<bool> ReadMessage(Socket* sock, WireMessage* out);

}  // namespace jpar

#endif  // JPAR_DIST_WIRE_H_
