#include "netd/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "mathx/contracts.hpp"

namespace chronos::netd {

namespace {

/// Resubmissions allowed per request after kQueueFull replies before the
/// rejection is surfaced as the final reply.
constexpr int kMaxQueueFullRetries = 1 << 20;

RangingReply reply_from_frame(const ResponseFrame& resp, int wire_retries) {
  RangingReply reply;
  reply.status = chronos::Status(resp.code, resp.message);
  reply.tof_s = resp.tof_s;
  reply.distance_m = resp.distance_m;
  reply.toa_s = resp.toa_s;
  reply.detection_delay_s = resp.detection_delay_s;
  reply.peak_found = resp.peak_found;
  reply.solver_iterations = static_cast<int>(resp.solver_iterations);
  reply.attempts = static_cast<int>(resp.attempts);
  reply.wire_retries = wire_retries;
  return reply;
}

}  // namespace

RangingReply reply_of(const core::RangingResult& result) {
  // Round-trip through the wire summary so truncation/narrowing rules are
  // defined in exactly one place (ResponseFrame::of).
  return reply_from_frame(ResponseFrame::of(0, result), 0);
}

ChronosClient::ChronosClient(std::shared_ptr<Stream> stream)
    : stream_(std::move(stream)) {
  CHRONOS_EXPECTS(stream_ != nullptr, "ChronosClient requires a stream");
}

chronos::Status ChronosClient::connect() {
  encode_buffer_.clear();
  encode_hello(encode_buffer_);
  if (chronos::Status sent = stream_->send(encode_buffer_); !sent.ok()) {
    return sent;
  }
  Frame frame;
  for (;;) {
    const FrameParser::Poll poll = parser_.poll(frame);
    if (poll == FrameParser::Poll::kError) return parser_.error();
    if (poll == FrameParser::Poll::kFrame) {
      if (frame.type != FrameType::kHelloAck) {
        return {chronos::StatusCode::kMalformedFrame,
                "expected hello-ack, got another frame type"};
      }
      if (frame.hello_ack.version != kWireVersion) {
        return {chronos::StatusCode::kVersionMismatch,
                "daemon acked protocol version " +
                    std::to_string(frame.hello_ack.version)};
      }
      server_shards_ = frame.hello_ack.shards;
      server_queue_depth_ = frame.hello_ack.queue_depth;
      connected_ = true;
      return chronos::Status::Ok();
    }
    recv_buffer_.clear();
    chronos::Result<std::size_t> got = stream_->recv(recv_buffer_);
    if (!got.ok()) return got.status();
    if (got.value() == 0) {
      return {chronos::StatusCode::kUnavailable,
              "connection closed during handshake"};
    }
    parser_.feed(recv_buffer_);
  }
}

chronos::Result<std::size_t> ChronosClient::submit(
    const chronos::RangingRequest& request) {
  if (!connected_) {
    return {chronos::StatusCode::kUnavailable, "submit before connect()"};
  }
  PendingRequest pending;
  pending.request_id = next_request_id_++;
  pending.request = request;

  encode_buffer_.clear();
  RequestFrame frame;
  frame.request_id = pending.request_id;
  frame.request = request;
  encode_request(encode_buffer_, frame);
  if (chronos::Status sent = stream_->send(encode_buffer_); !sent.ok()) {
    return sent;
  }
  pending_.push_back(std::move(pending));
  return pending_.size() - 1;
}

void ChronosClient::handle_response(const ResponseFrame& resp) {
  const auto it = std::find_if(
      pending_.begin(), pending_.end(), [&](const PendingRequest& p) {
        return !p.done && p.request_id == resp.request_id;
      });
  if (it == pending_.end()) return;  // stale/unknown id: ignore

  if (resp.code == chronos::StatusCode::kQueueFull &&
      it->retries < kMaxQueueFullRetries) {
    // Flow control, not failure: resubmit under the SAME request id after
    // a short pause (the daemon needs wall-clock time to free a slot; the
    // pause never feeds a result, only the resubmission's arrival time).
    ++it->retries;
    ++total_wire_retries_;
    std::this_thread::sleep_for(std::chrono::microseconds(
        50 * static_cast<int>(std::min(it->retries, 20))));
    encode_buffer_.clear();
    RequestFrame frame;
    frame.request_id = it->request_id;
    frame.request = it->request;
    encode_request(encode_buffer_, frame);
    if (chronos::Status sent = stream_->send(encode_buffer_); !sent.ok()) {
      it->done = true;
      it->reply = RangingReply{};
      it->reply.status = sent;
      it->reply.wire_retries = it->retries;
    }
    return;
  }

  it->done = true;
  it->reply = reply_from_frame(resp, it->retries);
}

void ChronosClient::fail_all_pending(const chronos::Status& status) {
  for (PendingRequest& p : pending_) {
    if (p.done) continue;
    p.done = true;
    p.reply = RangingReply{};
    p.reply.status = status;
    p.reply.wire_retries = p.retries;
  }
}

std::vector<RangingReply> ChronosClient::drain() {
  const auto all_done = [this]() {
    return std::all_of(pending_.begin(), pending_.end(),
                       [](const PendingRequest& p) { return p.done; });
  };

  Frame frame;
  while (!all_done()) {
    const FrameParser::Poll poll = parser_.poll(frame);
    if (poll == FrameParser::Poll::kFrame) {
      if (frame.type == FrameType::kResponse) {
        handle_response(frame.response);
      }
      continue;
    }
    if (poll == FrameParser::Poll::kError) {
      fail_all_pending(parser_.error());
      break;
    }
    recv_buffer_.clear();
    chronos::Result<std::size_t> got = stream_->recv(recv_buffer_);
    if (!got.ok()) {
      fail_all_pending(got.status());
      break;
    }
    if (got.value() == 0) {
      fail_all_pending({chronos::StatusCode::kUnavailable,
                        "connection closed with replies outstanding"});
      break;
    }
    parser_.feed(recv_buffer_);
  }

  std::vector<RangingReply> replies;
  replies.reserve(pending_.size());
  for (PendingRequest& p : pending_) replies.push_back(std::move(p.reply));
  pending_.clear();
  return replies;
}

chronos::Status ChronosClient::close() {
  encode_buffer_.clear();
  encode_goodbye(encode_buffer_);
  const chronos::Status sent = stream_->send(encode_buffer_);
  stream_->close();
  return sent;
}

}  // namespace chronos::netd
