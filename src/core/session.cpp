#include "core/session.hpp"

#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/retry.hpp"
#include "core/worker_pool.hpp"
#include "mathx/annotations.hpp"
#include "mathx/contracts.hpp"
#include "mathx/stream_tags.hpp"

namespace chronos {

namespace {

using core::RangingResult;
using core::ResolvedRequest;

/// What the jobs co-own. Deliberately does NOT reference the pool — a
/// worker thread may drop the last reference, and it must never end up
/// destroying (and thus self-joining) its own pool. The pool is held
/// caller-side by RangingSession::Impl.
struct Shared {
  const mathx::Rng base;
  const std::shared_ptr<const core::SweepSource> source;
  const std::shared_ptr<const core::RangingPipeline> pipeline;
  const std::shared_ptr<const core::CalibrationTable> calibration;
  const RetryPolicy retry;
  /// Run by complete() once a result is collectable (may be empty).
  const std::function<void()> on_complete;

  mutable Mutex mutex;
  mutable CondVar cv;
  /// Tickets issued.
  std::uint64_t submitted CHRONOS_GUARDED_BY(mutex) = 0;
  /// Tickets whose result is in `done` or already collected.
  std::uint64_t finished CHRONOS_GUARDED_BY(mutex) = 0;
  /// Tickets returned to the caller.
  std::uint64_t collected CHRONOS_GUARDED_BY(mutex) = 0;
  /// Finished, uncollected results.
  std::map<std::uint64_t, RangingResult> done CHRONOS_GUARDED_BY(mutex);

  Shared(const mathx::Rng& b, std::shared_ptr<const core::SweepSource> src,
         std::shared_ptr<const core::RangingPipeline> pipe,
         std::shared_ptr<const core::CalibrationTable> cal,
         const RetryPolicy& retry_policy, std::function<void()> completed)
      : base(b),
        source(std::move(src)),
        pipeline(std::move(pipe)),
        calibration(std::move(cal)),
        retry(retry_policy),
        on_complete(std::move(completed)) {}
};

/// Ranges one admitted request on stream `stream`. Anything thrown is a
/// library defect and fails this ticket alone (kInternal): the session's
/// other tickets never see it.
RangingResult range_one(const Shared& shared, std::uint64_t stream,
                        const ResolvedRequest& request) {
  RangingResult failed;
  try {
    return core::range_with_retries(*shared.source, *shared.pipeline,
                                    *shared.calibration, request,
                                    shared.base.split(stream), shared.retry);
  } catch (const std::exception& e) {
    failed.status = {StatusCode::kInternal, e.what()};
  } catch (...) {
    failed.status = {StatusCode::kInternal,
                     "non-exception throw while ranging"};
  }
  return failed;
}

void complete(Shared& shared, std::uint64_t ticket, RangingResult result) {
  {
    MutexLock lock(shared.mutex);
    shared.done.emplace(ticket, std::move(result));
    ++shared.finished;
    shared.cv.notify_all();
  }
  // Outside the lock: the callback may take its own.
  if (shared.on_complete) shared.on_complete();
}

[[nodiscard]] Status queue_full(std::size_t depth) {
  return {StatusCode::kQueueFull, "submission queue at depth " +
                                      std::to_string(depth) +
                                      "; collect results and resubmit"};
}

}  // namespace

struct RangingSession::Impl {
  std::shared_ptr<Shared> shared;
  /// Workers the admitted requests range on; null = the submitting thread.
  std::shared_ptr<core::WorkerPool> pool;
  std::size_t depth = 1;

  /// Claims the next ticket when in-flight work leaves room for it — now,
  /// or with `block` once a worker frees a slot. nullopt when the queue is
  /// full and not blocking.
  std::optional<std::uint64_t> claim(bool block) {
    Shared& s = *shared;
    // Admission touches only counters under the lock: allocation-free
    // (see try_submit).
    // lint:region(no-alloc)
    MutexLock lock(s.mutex);
    const auto room = [&]() CHRONOS_REQUIRES(s.mutex) {
      return s.submitted - s.finished < depth;
    };
    if (block) s.cv.wait(s.mutex, room);
    if (!room()) return std::nullopt;
    return s.submitted++;
    // lint:endregion(no-alloc)
  }

  /// Ranges `request` on `ticket` and `stream`: one pool job, or inline
  /// when the session has no pool.
  void dispatch(std::uint64_t ticket, std::uint64_t stream,
                ResolvedRequest request) {
    if (pool == nullptr) {
      complete(*shared, ticket, range_one(*shared, stream, request));
      return;
    }
    (void)pool->submit([payload = shared, ticket, stream,
                        request = std::move(request)]() {
      complete(*payload, ticket, range_one(*payload, stream, request));
    });
  }
};

RangingSession::RangingSession() = default;
RangingSession::RangingSession(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
RangingSession::RangingSession(RangingSession&&) noexcept = default;
RangingSession& RangingSession::operator=(RangingSession&&) noexcept = default;
RangingSession::~RangingSession() = default;

bool RangingSession::valid() const { return impl_ != nullptr; }

Result<std::uint64_t> RangingSession::try_submit(
    const RangingRequest& request) {
  CHRONOS_EXPECTS(impl_ != nullptr, "try_submit() on an invalid session");
  Shared& s = *impl_->shared;
  // Capacity first, resolution second: rejection is the hot path of a
  // saturating producer, and it must not pay a directory lookup (plus two
  // device copies) just to throw the result away. claim() re-checks under
  // the lock, so a concurrent producer sneaking in between the two checks
  // still cannot overfill the queue. The check itself must stay
  // allocation-free (a malloc under a saturating producer's rejection path
  // would serialize producers on the heap lock) — the lint region makes
  // that a compile-tree guarantee.
  // lint:region(no-alloc)
  {
    MutexLock lock(s.mutex);
    if (s.submitted - s.finished >= impl_->depth) {
      return queue_full(impl_->depth);
    }
  }
  // lint:endregion(no-alloc)
  auto resolved = s.source->resolve(request);
  if (!resolved.ok()) return resolved.status();
  const auto ticket = impl_->claim(false);
  if (!ticket) return queue_full(impl_->depth);
  impl_->dispatch(*ticket, *ticket, std::move(resolved).value());
  return *ticket;
}

Result<std::uint64_t> RangingSession::submit(const RangingRequest& request) {
  CHRONOS_EXPECTS(impl_ != nullptr, "submit() on an invalid session");
  auto resolved = impl_->shared->source->resolve(request);
  if (!resolved.ok()) return resolved.status();
  const std::uint64_t ticket = *impl_->claim(true);
  impl_->dispatch(ticket, ticket, std::move(resolved).value());
  return ticket;
}

std::optional<std::uint64_t> RangingSession::try_submit_resolved(
    const ResolvedRequest& request, std::uint64_t stream) {
  CHRONOS_EXPECTS(impl_ != nullptr,
                  "try_submit_resolved() on an invalid session");
  const auto ticket = impl_->claim(false);
  if (ticket) impl_->dispatch(*ticket, stream, request);
  return ticket;
}

std::uint64_t RangingSession::push_failed(Status status) {
  CHRONOS_EXPECTS(impl_ != nullptr, "push_failed() on an invalid session");
  CHRONOS_EXPECTS(!status.ok(), "push_failed() needs a non-ok status");
  Shared& s = *impl_->shared;
  RangingResult result;
  result.status = std::move(status);
  MutexLock lock(s.mutex);
  const auto ticket = s.submitted++;
  s.done.emplace(ticket, std::move(result));
  ++s.finished;
  s.cv.notify_all();
  return ticket;
}

std::size_t RangingSession::queue_depth() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "queue_depth() on an invalid session");
  return impl_->depth;
}

std::size_t RangingSession::submitted() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "submitted() on an invalid session");
  MutexLock lock(impl_->shared->mutex);
  return impl_->shared->submitted;
}

std::size_t RangingSession::in_flight() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "in_flight() on an invalid session");
  MutexLock lock(impl_->shared->mutex);
  return impl_->shared->submitted - impl_->shared->finished;
}

bool RangingSession::next_ready() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "next_ready() on an invalid session");
  MutexLock lock(impl_->shared->mutex);
  return impl_->shared->done.contains(impl_->shared->collected);
}

core::RangingResult RangingSession::next() {
  CHRONOS_EXPECTS(impl_ != nullptr, "next() on an invalid session");
  Shared& s = *impl_->shared;
  MutexLock lock(s.mutex);
  CHRONOS_EXPECTS(s.collected < s.submitted,
                  "next() with every submitted result already collected");
  const auto ticket = s.collected;
  s.cv.wait(s.mutex, [&]() CHRONOS_REQUIRES(s.mutex) {
    return s.done.contains(ticket);
  });
  auto node = s.done.extract(ticket);
  ++s.collected;
  return std::move(node.mapped());
}

std::vector<core::RangingResult> RangingSession::drain() {
  CHRONOS_EXPECTS(impl_ != nullptr, "drain() on an invalid session");
  std::uint64_t remaining = 0;
  {
    MutexLock lock(impl_->shared->mutex);
    remaining = impl_->shared->submitted - impl_->shared->collected;
  }
  std::vector<core::RangingResult> out;
  out.reserve(static_cast<std::size_t>(remaining));
  for (std::uint64_t i = 0; i < remaining; ++i) out.push_back(next());
  return out;
}

RangingSession core::open_session(
    std::shared_ptr<WorkerPool> pool, std::shared_ptr<const SweepSource> source,
    std::shared_ptr<const RangingPipeline> pipeline,
    std::shared_ptr<const CalibrationTable> calibration, mathx::Rng& rng,
    std::size_t queue_depth, const RetryPolicy& retry,
    std::function<void()> on_complete) {
  CHRONOS_EXPECTS(source != nullptr && pipeline != nullptr &&
                      calibration != nullptr,
                  "a session needs a source, pipeline, and calibration");
  CHRONOS_EXPECTS(queue_depth >= 1, "queue depth must be >= 1");
  // range_with_retries checks the same range, but there a bad policy would
  // fail every ticket as a library defect instead of failing the open.
  CHRONOS_EXPECTS(
      retry.max_attempts >= 1 && retry.max_attempts <= kMaxRetryAttempts,
      "max_attempts must be in [1, kMaxRetryAttempts] (mathx/stream_tags.hpp)");
  auto impl = std::make_unique<RangingSession::Impl>();
  impl->shared = std::make_shared<Shared>(
      rng.fork(kBatchStreamTag), std::move(source), std::move(pipeline),
      std::move(calibration), retry, std::move(on_complete));
  impl->pool = std::move(pool);
  impl->depth = queue_depth;
  return RangingSession(std::move(impl));
}

}  // namespace chronos
