#include "core/retry.hpp"

#include <string>

#include "mathx/contracts.hpp"

namespace chronos::core {

RangingResult range_with_retries(const SweepSource& source,
                                 const RangingPipeline& pipeline,
                                 const CalibrationTable& calibration,
                                 const ResolvedRequest& request,
                                 const mathx::Rng& ticket_stream,
                                 const chronos::RetryPolicy& policy) {
  CHRONOS_EXPECTS(policy.max_attempts >= 1,
                  "RetryPolicy::max_attempts must be >= 1");
  // The attempt ladder splits ticket_stream on kRetryStreamTag + a; the
  // registry (mathx/stream_tags.hpp) reserves exactly kMaxRetryAttempts
  // offsets for it, so stepping further could alias another tag's stream.
  CHRONOS_EXPECTS(policy.max_attempts <= chronos::kMaxRetryAttempts,
                  "RetryPolicy::max_attempts exceeds the retry stream-tag "
                  "range (mathx/stream_tags.hpp)");
  RangingResult result;
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    mathx::Rng attempt_rng =
        attempt == 0 ? ticket_stream
                     : ticket_stream.split(
                           kRetryStreamTag +
                           static_cast<std::uint64_t>(attempt));
    auto sweep = source.sweep_for(request, attempt_rng);
    if (sweep.ok()) {
      result = pipeline.estimate(sweep.value(), calibration);
    } else {
      result = RangingResult{};
      result.status = sweep.status();
    }
    result.attempts = attempt + 1;
    if (result.status.ok() || !chronos::retryable(result.status.code())) {
      return result;
    }
  }

  // Every attempt failed retryably. A single-attempt policy keeps the raw
  // status: that is the pre-retry behaviour.
  if (policy.max_attempts > 1) {
    result.status = {chronos::StatusCode::kRetryExhausted,
                     "all " + std::to_string(policy.max_attempts) +
                         " attempts failed; last: " +
                         result.status.to_string()};
  }
  return result;
}

}  // namespace chronos::core
