// Opening ranging sessions at engine level.
//
// chronos::RangingSession (core/api.hpp) is the one ingestion primitive:
// streaming, batches (Engine::measure_batch opens a session, admits the
// batch and drains it) and the netd daemon's shards all admit work through
// it. Admission is bounded: at most `queue_depth` tickets may be in flight
// (admitted but unfinished) at once — try_submit reports
// chronos::kQueueFull immediately (never blocks, never drops silently),
// submit blocks until a worker frees a slot. This is the backpressure
// story for sustained async submission: a producer that outruns the
// workers is told so, per request, instead of growing an unbounded queue.
//
// Determinism contract: the session forks the caller's rng ONCE at open
// (kBatchStreamTag); a request admitted on stream index s draws from
// fork.split(s). A result is therefore a pure function of (source,
// pipeline, calibration, request, session stream, s) — never of queue
// depth, scheduling, pool size or collection timing.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "core/api.hpp"
#include "core/calibration.hpp"
#include "core/ranging.hpp"
#include "core/sweep_source.hpp"
#include "mathx/rng.hpp"

namespace chronos::core {

class WorkerPool;

/// Opens a session: forks `rng` once (kBatchStreamTag) and shares
/// ownership of everything a job touches, so the session stays collectable
/// after the issuing engine dies. Each admitted request ranges as one job
/// on `pool`; with `pool == nullptr` it ranges on the submitting thread
/// before its admission call returns (the inline batch of one thread).
/// Several sessions opened on copies of ONE rng state share their base
/// stream, which is how the daemon's shards serve one global stream space
/// (RangingSession::try_submit_resolved). `queue_depth >= 1`; `retry`
/// bounds per-ticket re-ranging of retryable failures (core/retry.hpp).
/// `on_complete`, when set, runs after each ranged result becomes
/// collectable, on the thread that ranged it and outside the session's
/// lock, so a consumer can sleep until then instead of polling
/// next_ready() (the daemon rings its doorbell with it).
chronos::RangingSession open_session(
    std::shared_ptr<WorkerPool> pool, std::shared_ptr<const SweepSource> source,
    std::shared_ptr<const RangingPipeline> pipeline,
    std::shared_ptr<const CalibrationTable> calibration, mathx::Rng& rng,
    std::size_t queue_depth, const chronos::RetryPolicy& retry = {},
    std::function<void()> on_complete = {});

}  // namespace chronos::core
