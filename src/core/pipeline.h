/**
 * @file
 * Inter-batch pipelining driver (Sec. 4.3): batch i+1's input
 * distribution (the lengths+indices AllToAll) is scheduled before batch
 * i trains.
 *
 * Every rank performs PrepareInput(i+1) on the training communicator
 * before TrainStepPrepared(i). On this CPU backend that only reorders
 * the collective schedule; the overlap the paper measures on hardware
 * is reproduced by the model (sim::TrainingSetup::overlap_input_comm).
 * DESIGN.md §4g gives the measurement behind not running prepare
 * concurrently.
 *
 * The numerical results are bitwise identical to the unpipelined
 * schedule (verified by tests): routing is a pure function of the
 * batch, and the training collectives run in the same order on the same
 * communicator either way.
 *
 * When DistributedOptions::transactional_retry is set (the default),
 * pipelined steps run under the same StepTransaction rollback/retry
 * machinery as TrainStepWithRecovery — a mid-step failure rolls the
 * partial sparse/dense mutations back before any retry, and an
 * unrecoverable failure surfaces as comm::RankFailure with clean
 * pre-step state for elastic recovery.
 */
#pragma once

#include <optional>

#include "core/distributed_trainer.h"

namespace neo::core {

/** Two-stage pipeline over a DistributedDlrm. */
class PipelinedTrainer
{
  public:
    explicit PipelinedTrainer(DistributedDlrm& trainer)
        : trainer_(trainer) {}

    /**
     * Feed the next local batch. The batch's input distribution runs
     * immediately; the PREVIOUS batch (if any) is then trained.
     *
     * @return The previous batch's global mean loss, or nullopt on the
     *   first call (pipeline priming).
     */
    std::optional<double> Push(const data::Batch& local_batch);

    /** Drain: train the last prepared batch. */
    std::optional<double> Flush();

    /**
     * Drop the prepared batch without training it. Used when abandoning
     * a poisoned world before elastic recovery (core/elastic.h): the
     * pending input was prepared against the old world's sharding and
     * cannot be replayed on the survivor trainer.
     */
    void Reset() { pending_.reset(); }

    /** Number of completed training steps. */
    uint64_t steps_completed() const { return steps_completed_; }

  private:
    /**
     * Train the pending batch: transactional retry when the trainer's
     * options ask for it, raw TrainStepPrepared otherwise. Throws
     * comm::RankFailure (after rollback) when the step cannot complete.
     */
    double TrainPending();

    DistributedDlrm& trainer_;
    std::optional<DistributedDlrm::PreparedInput> pending_;
    uint64_t steps_completed_ = 0;
};

}  // namespace neo::core
