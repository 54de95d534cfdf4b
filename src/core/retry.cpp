#include "core/retry.hpp"

#include <string>
#include <utility>

#include "mathx/contracts.hpp"

namespace chronos::core {

namespace {

/// One ranging attempt: sweep_for on `attempt_rng`, then the pipeline.
/// Failures land in the result's status (never thrown).
RangingResult range_attempt(const SweepSource& source,
                            const RangingPipeline& pipeline,
                            const CalibrationTable& calibration,
                            const ResolvedRequest& request,
                            mathx::Rng& attempt_rng) {
  auto sweep = source.sweep_for(request, attempt_rng);
  if (!sweep.ok()) {
    RangingResult result;
    result.status = sweep.status();
    return result;
  }
  return pipeline.estimate(sweep.value(), calibration);
}

}  // namespace

RangingResult finish_with_retries(const SweepSource& source,
                                  const RangingPipeline& pipeline,
                                  const CalibrationTable& calibration,
                                  const ResolvedRequest& request,
                                  const mathx::Rng& ticket_stream,
                                  RangingResult first_attempt,
                                  const chronos::RetryPolicy& policy) {
  CHRONOS_EXPECTS(policy.max_attempts >= 1,
                  "RetryPolicy::max_attempts must be >= 1");
  // The attempt ladder splits ticket_stream on kRetryStreamTag + a; the
  // registry (mathx/stream_tags.hpp) reserves exactly kMaxRetryAttempts
  // offsets for it, so stepping further could alias another tag's stream.
  CHRONOS_EXPECTS(policy.max_attempts <= chronos::kMaxRetryAttempts,
                  "RetryPolicy::max_attempts exceeds the retry stream-tag "
                  "range (mathx/stream_tags.hpp)");
  RangingResult result = std::move(first_attempt);
  result.attempts = 1;
  if (policy.max_attempts == 1) return result;  // pre-retry behaviour

  for (int attempt = 1; attempt < policy.max_attempts; ++attempt) {
    if (result.status.ok() || !chronos::retryable(result.status.code())) {
      return result;
    }
    mathx::Rng attempt_rng = ticket_stream.split(
        kRetryStreamTag + static_cast<std::uint64_t>(attempt));
    result = range_attempt(source, pipeline, calibration, request,
                           attempt_rng);
    result.attempts = attempt + 1;
  }

  if (!result.status.ok() && chronos::retryable(result.status.code())) {
    result.status = {chronos::StatusCode::kRetryExhausted,
                     "all " + std::to_string(policy.max_attempts) +
                         " attempts failed; last: " +
                         result.status.to_string()};
  }
  return result;
}

}  // namespace chronos::core
