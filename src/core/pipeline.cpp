#include "core/pipeline.h"

#include "obs/trace.h"

namespace neo::core {

double
PipelinedTrainer::TrainPending()
{
    NEO_TRACE_SPAN("pipeline_step", "step");
    double loss;
    if (trainer_.options().transactional_retry) {
        StepResult result =
            trainer_.TrainStepPreparedWithRecovery(*pending_);
        if (!result.ok) {
            // Surface the unrecoverable failure the way the raw path
            // does — but only after the transaction rolled the partial
            // step back, so elastic recovery sees clean pre-step state.
            const StepFailure& last = result.failures.back();
            throw comm::RankFailure(last.failed_rank, last.cause,
                                    last.transient);
        }
        loss = result.loss;
    } else {
        loss = trainer_.TrainStepPrepared(*pending_);
    }
    steps_completed_++;
    return loss;
}

std::optional<double>
PipelinedTrainer::Push(const data::Batch& local_batch)
{
    NEO_TRACE_SPAN("pipeline_push", "step");
    try {
        // Stage 1: distribute the incoming batch's sparse inputs (the
        // AllToAll that would overlap compute on hardware).
        DistributedDlrm::PreparedInput next =
            trainer_.PrepareInput(local_batch);

        // Stage 2: train the previously prepared batch. Named
        // differently from "train_step" because a pipelined step
        // excludes its own input distribution (that happened one Push
        // earlier); pass step_name="pipeline_step" to StepBreakdown
        // for pipelined runs.
        std::optional<double> loss;
        if (pending_.has_value()) {
            loss = TrainPending();
        }
        pending_ = std::move(next);
        return loss;
    } catch (const comm::RankFailure&) {
        // The prepared batch's place in the collective schedule is
        // lost once the world aborts; drop it so a recovered pipeline
        // restarts from a clean prime instead of replaying half a
        // schedule.
        pending_.reset();
        throw;
    }
}

std::optional<double>
PipelinedTrainer::Flush()
{
    if (!pending_.has_value()) {
        return std::nullopt;
    }
    try {
        const double loss = TrainPending();
        pending_.reset();
        return loss;
    } catch (const comm::RankFailure&) {
        pending_.reset();
        throw;
    }
}

}  // namespace neo::core
