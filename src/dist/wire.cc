#include "dist/wire.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/checksum.h"

namespace jpar {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void PutU32(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

uint32_t GetU32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Status Socket::SendAll(const void* data, size_t len) {
  if (fd_ < 0) return Status::Internal("send on closed socket");
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("socket send failed"));
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<bool> Socket::RecvAll(void* data, size_t len) {
  if (fd_ < 0) return Status::Internal("recv on closed socket");
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd_, p + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("socket recv failed"));
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF between messages
      return Status::IOError("peer closed mid-message (" +
                             std::to_string(got) + "/" +
                             std::to_string(len) + " bytes)");
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

Result<bool> Socket::WaitReadable(int timeout_ms) {
  if (fd_ < 0) return Status::Internal("poll on closed socket");
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  while (true) {
    int n = ::poll(&pfd, 1, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("poll failed"));
    }
    // Error/hangup states are "readable": the next recv reports them.
    return n > 0;
  }
}

Result<std::pair<Socket, Socket>> Socket::Pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IOError(Errno("socketpair failed"));
  }
  return std::make_pair(Socket(fds[0]), Socket(fds[1]));
}

Result<Socket> Socket::Connect(const std::string& endpoint) {
  if (endpoint.rfind("unix:", 0) == 0) {
    std::string path = endpoint.substr(5);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::IOError(Errno("socket failed"));
    Socket sock(fd);
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Status::Unavailable(Errno(("connect to " + endpoint).c_str()));
    }
    return sock;
  }
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint.size()) {
    return Status::InvalidArgument(
        "endpoint must be unix:<path> or <host>:<port>, got: " + endpoint);
  }
  std::string host = endpoint.substr(0, colon);
  std::string port = endpoint.substr(colon + 1);
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0) {
    return Status::Unavailable("cannot resolve " + endpoint + ": " +
                               ::gai_strerror(rc));
  }
  Status last = Status::Unavailable("no addresses for " + endpoint);
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::IOError(Errno("socket failed"));
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(res);
      return Socket(fd);
    }
    last = Status::Unavailable(Errno(("connect to " + endpoint).c_str()));
    ::close(fd);
  }
  ::freeaddrinfo(res);
  return last;
}

Result<Socket> Socket::ListenOn(const std::string& endpoint) {
  if (endpoint.rfind("unix:", 0) == 0) {
    std::string path = endpoint.substr(5);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ::unlink(path.c_str());  // stale socket file from a previous run
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::IOError(Errno("socket failed"));
    Socket sock(fd);
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::IOError(Errno(("bind " + endpoint).c_str()));
    }
    if (::listen(fd, 16) != 0) {
      return Status::IOError(Errno("listen failed"));
    }
    return sock;
  }
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        "endpoint must be unix:<path> or <host>:<port>, got: " + endpoint);
  }
  std::string host = endpoint.substr(0, colon);
  std::string port = endpoint.substr(colon + 1);
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(), port.c_str(),
                         &hints, &res);
  if (rc != 0) {
    return Status::InvalidArgument("cannot resolve " + endpoint + ": " +
                                   ::gai_strerror(rc));
  }
  Status last = Status::IOError("no addresses for " + endpoint);
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::IOError(Errno("socket failed"));
      continue;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, 16) == 0) {
      ::freeaddrinfo(res);
      return Socket(fd);
    }
    last = Status::IOError(Errno(("bind " + endpoint).c_str()));
    ::close(fd);
  }
  ::freeaddrinfo(res);
  return last;
}

Result<Socket> Socket::Accept() {
  if (fd_ < 0) return Status::Internal("accept on closed socket");
  while (true) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    return Status::IOError(Errno("accept failed"));
  }
}

// ---------------------------------------------------------------------
// Framing

Status WriteMessage(Socket* sock, uint8_t type, std::string_view payload) {
  if (payload.size() > kMaxWirePayload) {
    return Status::Internal("wire payload too large: " +
                            std::to_string(payload.size()));
  }
  std::string buf;
  buf.reserve(kWireHeaderBytes + payload.size());
  PutU32(kWireMagic, &buf);
  buf.push_back(static_cast<char>(type));
  PutU32(static_cast<uint32_t>(payload.size()), &buf);
  PutU32(Crc32(payload), &buf);
  buf.append(payload.data(), payload.size());
  return sock->SendAll(buf.data(), buf.size());
}

Result<bool> ReadMessage(Socket* sock, WireMessage* out) {
  unsigned char header[kWireHeaderBytes];
  JPAR_ASSIGN_OR_RETURN(bool have, sock->RecvAll(header, sizeof(header)));
  if (!have) return false;
  uint32_t magic = GetU32(header);
  if (magic != kWireMagic) {
    return Status::IOError("bad wire magic: 0x" + [magic] {
      char buf[9];
      std::snprintf(buf, sizeof(buf), "%08x", magic);
      return std::string(buf);
    }());
  }
  out->type = header[4];
  uint32_t len = GetU32(header + 5);
  if (len > kMaxWirePayload) {
    return Status::IOError("wire payload length " + std::to_string(len) +
                           " exceeds cap " + std::to_string(kMaxWirePayload));
  }
  uint32_t want_crc = GetU32(header + 9);
  out->payload.resize(len);
  if (len > 0) {
    JPAR_ASSIGN_OR_RETURN(bool body,
                          sock->RecvAll(out->payload.data(), len));
    if (!body) {
      return Status::IOError("peer closed before message payload");
    }
  }
  uint32_t got_crc = Crc32(out->payload);
  if (got_crc != want_crc) {
    return Status::IOError("wire payload checksum mismatch (message type " +
                           std::to_string(out->type) + ", " +
                           std::to_string(len) + " bytes)");
  }
  return true;
}

}  // namespace jpar
