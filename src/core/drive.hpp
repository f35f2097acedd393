#pragma once

// The one cell driver: every run of an algorithm on a cell — the
// computability harness's exact (δ0) and asymptotic (δ2) attempts and the
// campaign runner's explicit-agent cells — goes through drive().
//
// drive() arms the Attempt's wall-clock deadline and channel policy on the
// executor, steps up to attempt.rounds rounds, and calls
// `observe(executor.agents())` after each one; it stops as soon as observe
// returns true. Judging is the caller's: an observer accumulates whatever
// its verdict needs (a stabilization round, a sup-error), and the caller
// fills the verdict fields of the returned AttemptResult. Perturbations
// (start schedules, fault plans) are the caller's to install before drive.
//
// DeadlineExceeded and wire::BandwidthExceeded escape from drive() as they
// escape from Executor::step(), with the executor left at the last
// completed round.

#include <utility>

#include "core/computability.hpp"
#include "runtime/executor.hpp"
#include "wire/codecs.hpp"
#include "wire/meter.hpp"

namespace anonet {

template <typename Alg, typename Observe>
AttemptResult drive(Executor<Alg>& executor, const Attempt& attempt,
                    Observe&& observe) {
  executor.set_deadline(attempt.deadline_ms);
  executor.set_channel_policy(
      wire::channel_policy_from_bits(attempt.bandwidth_bits));
  for (int r = 0; r < attempt.rounds; ++r) {
    executor.step();
    if (observe(std::as_const(executor).agents())) break;
  }
  AttemptResult result;
  result.rounds_run = executor.stats().rounds;
  result.messages_delivered = executor.stats().messages_delivered;
  if (attempt.bandwidth_bits != 0) {
    result.bits_total = executor.bandwidth_meter().total_bits_sent();
  }
  return result;
}

}  // namespace anonet
