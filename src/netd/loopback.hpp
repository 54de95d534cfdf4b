// Byte-stream transport abstraction for chronosd, plus the in-process
// loopback implementation the whole daemon stack is tested and benched
// over (CI never opens real sockets; a TCP Stream is a deployment-time
// drop-in behind the same interface).
//
// A Stream is one endpoint of a reliable, ordered, full-duplex byte pipe
// — the exact delivery model TCP gives a daemon. No message boundaries:
// framing is the wire protocol's job (netd/wire.hpp), so the loopback
// deliberately delivers whatever bytes are buffered, possibly splitting
// or coalescing frames, which keeps FrameParser's incremental path
// honestly exercised.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "mathx/status.hpp"

namespace chronos::netd {

/// One endpoint of a reliable ordered byte pipe. Thread model: one
/// sender and one receiver may use an endpoint concurrently; the two
/// endpoints of a pair belong to different threads by design.
class Stream {
 public:
  virtual ~Stream() = default;

  /// Queues `bytes` for the peer. kUnavailable once either side closed.
  [[nodiscard]] virtual chronos::Status send(
      std::span<const std::uint8_t> bytes) = 0;

  /// Non-blocking receive: appends every currently buffered byte to
  /// `out` and returns how many were appended; 0 means nothing is
  /// buffered right now (check closed() to distinguish "not yet" from
  /// "never again").
  [[nodiscard]] virtual chronos::Result<std::size_t> try_recv(
      std::vector<std::uint8_t>& out) = 0;

  /// Blocking receive: waits until at least one byte is available or the
  /// pipe is closed and drained, then behaves like try_recv. Returns 0
  /// only when closed() is true.
  [[nodiscard]] virtual chronos::Result<std::size_t> recv(
      std::vector<std::uint8_t>& out) = 0;

  /// Closes this endpoint: no further send() from either side succeeds;
  /// bytes already buffered remain receivable by the peer.
  virtual void close() = 0;

  /// True when no byte will ever be readable again: the peer (or this
  /// endpoint) has closed AND the incoming buffer is drained.
  virtual bool closed() const = 0;

  /// Registers `wake`, which the transport calls, holding none of its own
  /// locks, whenever this endpoint may have become readable: the peer sent
  /// bytes, or either side closed. A reader can then sleep until woken
  /// instead of polling try_recv(). Replaces any earlier registration.
  /// Returns false when the transport cannot wake a reader, which is this
  /// default: ChronosDaemon::attach() refuses such a stream, since serve()
  /// would otherwise sleep through its traffic.
  [[nodiscard]] virtual bool set_wake(const std::function<void()>& wake) {
    (void)wake;
    return false;
  }
};

/// A connected pair of in-process endpoints: bytes sent on `first` are
/// received on `second` and vice versa.
std::pair<std::shared_ptr<Stream>, std::shared_ptr<Stream>> make_loopback();

}  // namespace chronos::netd
