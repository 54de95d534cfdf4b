#include "netd/loopback.hpp"

#include "mathx/annotations.hpp"

namespace chronos::netd {
namespace {

/// A registered wake hook, shared so that a caller can take it out from
/// under the pipe lock and run it after releasing that lock.
using Wake = std::shared_ptr<const std::function<void()>>;

// Shared state of one loopback pair: two directed byte queues under one
// mutex (one lock per pair keeps the lock-order graph trivial — no
// loopback lock is ever held while calling out of this file, wake hooks
// included).
struct Pipe {
  chronos::Mutex mu;
  chronos::CondVar cv;
  std::vector<std::uint8_t> to_second CHRONOS_GUARDED_BY(mu);
  std::vector<std::uint8_t> to_first CHRONOS_GUARDED_BY(mu);
  bool first_closed CHRONOS_GUARDED_BY(mu) = false;
  bool second_closed CHRONOS_GUARDED_BY(mu) = false;
  /// Stream::set_wake of each endpoint: run when it may have become
  /// readable.
  Wake wake_first CHRONOS_GUARDED_BY(mu);
  Wake wake_second CHRONOS_GUARDED_BY(mu);
};

void wake_up(const Wake& wake) {
  if (wake != nullptr) (*wake)();
}

class LoopbackEndpoint final : public Stream {
 public:
  LoopbackEndpoint(std::shared_ptr<Pipe> pipe, bool is_first)
      : pipe_(std::move(pipe)), is_first_(is_first) {}

  chronos::Status send(std::span<const std::uint8_t> bytes) override {
    Wake peer;
    {
      chronos::MutexLock lock(pipe_->mu);
      if (pipe_->first_closed || pipe_->second_closed) {
        return {chronos::StatusCode::kUnavailable, "loopback pipe closed"};
      }
      std::vector<std::uint8_t>& q =
          is_first_ ? pipe_->to_second : pipe_->to_first;
      q.insert(q.end(), bytes.begin(), bytes.end());
      pipe_->cv.notify_all();
      peer = is_first_ ? pipe_->wake_second : pipe_->wake_first;
    }
    wake_up(peer);
    return chronos::Status::Ok();
  }

  chronos::Result<std::size_t> try_recv(
      std::vector<std::uint8_t>& out) override {
    chronos::MutexLock lock(pipe_->mu);
    return take_locked(out);
  }

  chronos::Result<std::size_t> recv(std::vector<std::uint8_t>& out) override {
    chronos::MutexLock lock(pipe_->mu);
    pipe_->cv.wait(pipe_->mu, [this]() CHRONOS_REQUIRES(pipe_->mu) {
      return !incoming_locked().empty() || pipe_->first_closed ||
             pipe_->second_closed;
    });
    return take_locked(out);
  }

  void close() override {
    // Closing either end changes what both ends read, so both wake.
    Wake first, second;
    {
      chronos::MutexLock lock(pipe_->mu);
      (is_first_ ? pipe_->first_closed : pipe_->second_closed) = true;
      pipe_->cv.notify_all();
      first = pipe_->wake_first;
      second = pipe_->wake_second;
    }
    wake_up(first);
    wake_up(second);
  }

  bool set_wake(const std::function<void()>& wake) override {
    auto hook = std::make_shared<const std::function<void()>>(wake);
    chronos::MutexLock lock(pipe_->mu);
    (is_first_ ? pipe_->wake_first : pipe_->wake_second) = std::move(hook);
    return true;
  }

  bool closed() const override {
    chronos::MutexLock lock(pipe_->mu);
    return (pipe_->first_closed || pipe_->second_closed) &&
           incoming_locked().empty();
  }

 private:
  std::vector<std::uint8_t>& incoming_locked() CHRONOS_REQUIRES(pipe_->mu) {
    return is_first_ ? pipe_->to_first : pipe_->to_second;
  }
  const std::vector<std::uint8_t>& incoming_locked() const
      CHRONOS_REQUIRES(pipe_->mu) {
    return is_first_ ? pipe_->to_first : pipe_->to_second;
  }

  std::size_t take_locked(std::vector<std::uint8_t>& out)
      CHRONOS_REQUIRES(pipe_->mu) {
    std::vector<std::uint8_t>& q = incoming_locked();
    const std::size_t n = q.size();
    out.insert(out.end(), q.begin(), q.end());
    q.clear();
    return n;
  }

  std::shared_ptr<Pipe> pipe_;
  const bool is_first_;
};

}  // namespace

std::pair<std::shared_ptr<Stream>, std::shared_ptr<Stream>> make_loopback() {
  auto pipe = std::make_shared<Pipe>();
  return {std::make_shared<LoopbackEndpoint>(pipe, true),
          std::make_shared<LoopbackEndpoint>(pipe, false)};
}

}  // namespace chronos::netd
