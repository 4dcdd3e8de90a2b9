#ifndef XOMATIQ_SQL_EXECUTOR_H_
#define XOMATIQ_SQL_EXECUTOR_H_

#include <functional>
#include <vector>

#include "common/query_options.h"
#include "common/result.h"
#include "relational/database.h"
#include "relational/row_batch.h"
#include "sql/plan.h"

namespace xomatiq::exec {
class WorkerPool;
}

namespace xomatiq::sql {

struct ExecutorOptions {
  // Rows per RowBatch flowing between operators.
  size_t batch_capacity = rel::RowBatch::kDefaultCapacity;
  // Absolute cancellation point. Checked cooperatively — at operator entry
  // and on a sampled stride inside scan/join loops — so an expired query
  // stops within ~one batch of work and returns kTimeout.
  common::Deadline deadline;
  // Worker pool parallel operators fan out on; null = the process-wide
  // exec::WorkerPool::Global(). All queries sharing one pool is the
  // oversubscription guard: total execution threads stay fixed no matter
  // how many sessions run M-way plans. Tests and benches pass their own
  // pool (a 0-worker pool forces every operator serial).
  exec::WorkerPool* pool = nullptr;
  // Rows per work-stealing morsel inside parallel operators.
  size_t morsel_rows = 4096;
  // Runtime admission: a parallel-annotated operator whose actual input
  // has fewer rows than this runs serially — the planner decides from
  // estimates, the executor re-checks against real cardinalities so tiny
  // inputs never pay the fan-out overhead.
  size_t parallel_row_threshold = 8192;
  // Accumulate per-operator actuals (rows/batches/time, parallel-scan
  // partition counts) into each PlanNode's `stats` while executing —
  // the data EXPLAIN ANALYZE renders. Counting is per batch, not per row,
  // so the overhead on the batched path is negligible; it is still off by
  // default so plain queries never touch the stats fields. Callers that
  // reuse a plan should ClearStats() first; the executor only accumulates
  // (join inner sides re-enter the same nodes within one query).
  bool collect_stats = false;
  // Epoch every heap read evaluates visibility against. The default
  // (rel::kEpochMax, "latest") is writer context: reads see all stamped
  // rows including the in-flight batch. Snapshot readers pass the epoch
  // of a live rel::Snapshot — the caller owns the snapshot and must keep
  // it alive for the whole execution; the executor only consumes the
  // number. Index probes additionally re-verify the probed predicate
  // against the visible tuple (indexes are single-version).
  uint64_t snapshot_epoch = rel::kEpochMax;
};

// Plan executor. The primary pipeline is batched: operators produce and
// consume RowBatch buffers, predicates/projections run as slot-bound
// expression programs (CompiledExpr), and a row budget flows down through
// row-preserving operators so LIMIT over an index path still touches
// ~limit rows. Blocking operators (sort, hash-join build, aggregate,
// distinct) materialize internally.
class Executor {
 public:
  explicit Executor(rel::Database* db, ExecutorOptions options = {})
      : db_(db), options_(options) {}

  // Receives each output batch; may narrow its selection in place but must
  // not keep references past the call. Returns false to stop early.
  using BatchSink = std::function<bool(rel::RowBatch&)>;

  // Streams the plan's output batches into `sink`.
  common::Status ExecuteBatched(const PlanNode& plan, const BatchSink& sink);

  // Convenience: materializes all output rows (batched underneath).
  common::Result<std::vector<rel::Tuple>> ExecuteToVector(
      const PlanNode& plan);

 private:
  // --- batched pipeline; `budget` = max rows the consumer accepts
  // (-1 unlimited), honored by leaf scans for early termination ---
  // ExecB wraps DispatchB with the per-operator stats collection
  // (collect_stats): output rows/batches are counted before the parent
  // sink sees them, so LIMIT-driven early termination still leaves every
  // operator's counters finalized.
  common::Status ExecB(const PlanNode& plan, const BatchSink& sink,
                       int64_t budget);
  common::Status DispatchB(const PlanNode& plan, const BatchSink& sink,
                           int64_t budget);
  common::Status ExecScanB(const PlanNode& plan, const BatchSink& sink,
                           int64_t budget);
  // `pred`, when set, is a filter fused into the scan at execution time:
  // workers evaluate it and rejected rows never enter a batch.
  common::Status ExecParallelScanB(const PlanNode& plan,
                                   const BatchSink& sink, int64_t budget,
                                   const CompiledExpr* pred = nullptr);
  common::Status ExecIndexScanB(const PlanNode& plan, const BatchSink& sink,
                                int64_t budget);
  common::Status ExecKeywordScanB(const PlanNode& plan, const BatchSink& sink,
                                  int64_t budget);
  common::Status ExecFilterB(const PlanNode& plan, const BatchSink& sink);
  common::Status ExecProjectB(const PlanNode& plan, const BatchSink& sink,
                              int64_t budget);
  // `residual`, when set, is a parent Filter fused into the join: it is
  // evaluated on each candidate (left, right) pair via EvalPairRef, and
  // failing pairs are never concatenated.
  common::Status ExecNestedLoopJoinB(const PlanNode& plan,
                                     const BatchSink& sink,
                                     const CompiledExpr* residual = nullptr);
  common::Status ExecHashJoinB(const PlanNode& plan, const BatchSink& sink,
                               const CompiledExpr* residual = nullptr);
  common::Status ExecIndexNLJoinB(const PlanNode& plan,
                                  const BatchSink& sink,
                                  const CompiledExpr* residual = nullptr);
  common::Status ExecSortB(const PlanNode& plan, const BatchSink& sink);
  common::Status ExecLimitB(const PlanNode& plan, const BatchSink& sink);
  common::Status ExecAggregateB(const PlanNode& plan, const BatchSink& sink);
  common::Status ExecDistinctB(const PlanNode& plan, const BatchSink& sink);

  // The pool this executor fans out on (options_.pool or the global one).
  exec::WorkerPool* Pool() const;
  // Worker-slot count a parallel-annotated operator actually gets: 1 when
  // the plan carries no degree, the input is below the runtime row
  // threshold, or the pool has no spare width; otherwise the pool's
  // admitted share (capped at the plan's degree).
  size_t EffectiveDegree(const PlanNode& plan, size_t input_rows) const;

  // Strided cooperative deadline probe for hot loops: one counter increment
  // per call, one clock read every 1024 calls. Sticky once expired.
  bool DeadlineHit();
  common::Status DeadlineStatus() const;

  rel::Database* db_;
  ExecutorOptions options_;
  uint64_t deadline_probe_ = 0;
  bool deadline_hit_ = false;
};

}  // namespace xomatiq::sql

#endif  // XOMATIQ_SQL_EXECUTOR_H_
