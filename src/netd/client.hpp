// ChronosClient: the client half of the chronosd wire protocol.
//
// Usage: construct over a connected Stream, connect() (hello/ack version
// handshake), submit() any number of requests, drain() to collect every
// reply in submission order, close() to say goodbye. The client handles
// the daemon's backpressure transparently: a kQueueFull response triggers
// an automatic resubmission (up to 2^20 per request: queue-full is flow
// control, not failure) with a short backoff, so callers see only final
// replies — plus a wire_retries count per reply for observability.
//
// Thread model: a ChronosClient is single-threaded (one per connection);
// run many clients on many threads against one daemon.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/ranging.hpp"
#include "mathx/status.hpp"
#include "netd/loopback.hpp"
#include "netd/wire.hpp"

namespace chronos::netd {

/// One final reply as the client surfaces it: the wire response summary
/// plus how many kQueueFull round-trips preceded admission.
struct RangingReply {
  chronos::Status status;
  double tof_s = 0.0;
  double distance_m = 0.0;
  double toa_s = 0.0;
  double detection_delay_s = 0.0;
  bool peak_found = false;
  int solver_iterations = 0;
  int attempts = 1;
  int wire_retries = 0;
};

/// The reply an in-process core::RangingResult maps to — what a daemon
/// round-trip of the same request must reproduce bit-for-bit (status
/// message truncated to the wire cap; wire_retries excluded, it is
/// transport metadata). The e2e bit-identity test compares against this.
RangingReply reply_of(const core::RangingResult& result);

class ChronosClient {
 public:
  explicit ChronosClient(std::shared_ptr<Stream> stream);

  /// Hello/ack handshake. kVersionMismatch when the daemon speaks another
  /// protocol version; kUnavailable when the connection drops first.
  [[nodiscard]] chronos::Status connect();

  /// Deployment shape from the ack (valid after connect()).
  std::uint16_t server_shards() const { return server_shards_; }
  std::uint32_t server_queue_depth() const { return server_queue_depth_; }

  /// Sends one request. The returned index is the position of its reply
  /// in drain()'s vector (dense, submission order).
  [[nodiscard]] chronos::Result<std::size_t> submit(
      const chronos::RangingRequest& request);

  /// Blocks until every submitted request has a FINAL reply (resubmitting
  /// through kQueueFull rejections along the way); returns the replies in
  /// submission order and resets the client for another round. If the
  /// connection dies first, unanswered slots report kUnavailable; if the
  /// daemon sends bytes that do not parse, they report the parse status.
  std::vector<RangingReply> drain();

  /// Says goodbye and closes the stream.
  [[nodiscard]] chronos::Status close();

  std::size_t submitted() const { return pending_.size(); }
  /// Total kQueueFull round-trips over the life of this client.
  std::uint64_t total_wire_retries() const { return total_wire_retries_; }

 private:
  struct PendingRequest {
    std::uint64_t request_id = 0;
    chronos::RangingRequest request;
    int retries = 0;
    bool done = false;
    RangingReply reply;
  };

  /// Processes one incoming response frame; true on progress.
  void handle_response(const ResponseFrame& resp);
  void fail_all_pending(const chronos::Status& status);

  std::shared_ptr<Stream> stream_;
  FrameParser parser_;
  std::vector<PendingRequest> pending_;  ///< index == submission order
  std::uint64_t next_request_id_ = 1;
  std::uint16_t server_shards_ = 0;
  std::uint32_t server_queue_depth_ = 0;
  std::uint64_t total_wire_retries_ = 0;
  bool connected_ = false;
  std::vector<std::uint8_t> encode_buffer_;
  std::vector<std::uint8_t> recv_buffer_;
};

}  // namespace chronos::netd
