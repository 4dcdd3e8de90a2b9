#include "sql/executor.h"

#include <algorithm>
#include <chrono>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "exec/worker_pool.h"
#include "sql/expr_eval.h"
#include "sql/planner.h"

namespace xomatiq::sql {

using common::Result;
using common::Status;
using rel::CompositeKey;
using rel::RowBatch;
using rel::RowId;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

// ---------------------------------------------------------------------
// Aggregate machinery.
// ---------------------------------------------------------------------

namespace {

struct AggState {
  int64_t count = 0;
  bool has = false;
  bool all_int = true;
  int64_t isum = 0;
  double dsum = 0;
  Value min;
  Value max;
};

// Folds one already-evaluated argument value into `state`. `v` is null
// for COUNT(*).
Status UpdateAggValue(AggFunc func, const Value* v, AggState* state) {
  if (v == nullptr) {  // COUNT(*)
    ++state->count;
    return Status::OK();
  }
  if (v->is_null()) return Status::OK();
  ++state->count;
  switch (func) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      XQ_ASSIGN_OR_RETURN(double d, v->ToNumeric());
      state->dsum += d;
      if (v->type() == ValueType::kInt) {
        state->isum += v->AsInt();
      } else {
        state->all_int = false;
      }
      state->has = true;
      break;
    }
    case AggFunc::kMin:
      if (!state->has || Value::Compare(*v, state->min) < 0) state->min = *v;
      state->has = true;
      break;
    case AggFunc::kMax:
      if (!state->has || Value::Compare(*v, state->max) > 0) state->max = *v;
      state->has = true;
      break;
  }
  return Status::OK();
}

Value FinalizeAgg(const AggSpec& spec, const AggState& state) {
  switch (spec.func) {
    case AggFunc::kCount:
      return Value::Int(state.count);
    case AggFunc::kSum:
      if (!state.has) return Value::Null();
      return state.all_int ? Value::Int(state.isum)
                           : Value::Double(state.dsum);
    case AggFunc::kAvg:
      if (!state.has) return Value::Null();
      return Value::Double(state.dsum / static_cast<double>(state.count));
    case AggFunc::kMin:
      return state.has ? state.min : Value::Null();
    case AggFunc::kMax:
      return state.has ? state.max : Value::Null();
  }
  return Value::Null();
}

// True when some node in `plan` has bound expressions without compiled
// programs (hand-built plans; planner output arrives pre-compiled).
bool NeedsCompile(const PlanNode& plan) {
  if (plan.predicate && !plan.predicate_prog.has_value()) return true;
  if (plan.project_progs.size() != plan.project_exprs.size()) return true;
  if (plan.left_key_progs.size() != plan.left_keys.size()) return true;
  if (plan.right_key_progs.size() != plan.right_keys.size()) return true;
  if (plan.outer_key_progs.size() != plan.outer_key_exprs.size()) return true;
  if (plan.sort_key_progs.size() != plan.sort_keys.size()) return true;
  if (plan.group_progs.size() != plan.group_exprs.size()) return true;
  if (plan.agg_arg_progs.size() != plan.aggs.size()) return true;
  for (const auto& child : plan.children) {
    if (NeedsCompile(*child)) return true;
  }
  return false;
}

// Accumulates rows into capacity-sized batches and forwards them to the
// sink, honoring a row budget (-1 = unlimited) and consumer stop.
class BatchEmitter {
 public:
  BatchEmitter(size_t capacity, const Executor::BatchSink& sink,
               int64_t budget)
      : batch_(capacity), sink_(sink), budget_(budget) {}

  // Appends a row that outlives the batch. Returns false to stop
  // producing (budget met or consumer done).
  bool PushRef(const Tuple* row, RowId id) {
    batch_.AppendRef(row, id);
    return MaybeFlush();
  }

  // Appends a synthesized row.
  bool PushOwned(Tuple row) {
    batch_.AppendOwned(std::move(row));
    return MaybeFlush();
  }

  // Flushes any buffered remainder. Returns false if stopped.
  bool Flush() {
    if (batch_.empty()) return !stopped_;
    emitted_ += static_cast<int64_t>(batch_.size());
    if (!sink_(batch_)) stopped_ = true;
    batch_.Clear();
    if (budget_ >= 0 && emitted_ >= budget_) stopped_ = true;
    return !stopped_;
  }

  bool stopped() const { return stopped_; }

 private:
  bool MaybeFlush() {
    if (batch_.full() ||
        (budget_ >= 0 &&
         emitted_ + static_cast<int64_t>(batch_.size()) >= budget_)) {
      return Flush();
    }
    return true;
  }

  RowBatch batch_;
  const Executor::BatchSink& sink_;
  int64_t budget_;
  int64_t emitted_ = 0;
  bool stopped_ = false;
};

// Per-program bare-column-ref slots (-1 where the interpreter is needed).
std::vector<int> SingleSlots(const std::vector<CompiledExpr>& progs) {
  std::vector<int> slots;
  slots.reserve(progs.size());
  for (const CompiledExpr& p : progs) slots.push_back(p.single_slot());
  return slots;
}

// Evaluates a key program, reading bare column refs directly.
inline Result<const Value*> EvalKey(const CompiledExpr& prog, int slot,
                                    const Tuple& row, EvalScratch* scratch) {
  if (slot >= 0 && static_cast<size_t>(slot) < row.size()) {
    return &row[static_cast<size_t>(slot)];
  }
  return prog.EvalRowRef(row, scratch);
}

// Evaluates a join-pair predicate without materializing the combined row.
Result<bool> PairPasses(const CompiledExpr& prog, const Tuple& left,
                        const Tuple& right, EvalScratch* scratch) {
  XQ_ASSIGN_OR_RETURN(const Value* v, prog.EvalPairRef(left, right, scratch));
  std::optional<bool> t = Truthiness(*v);
  return t.has_value() && *t;
}

// Joined row: left columns then right columns, built with one allocation.
Tuple Concat(const Tuple& left, const Tuple& right) {
  Tuple combined;
  combined.reserve(left.size() + right.size());
  combined.insert(combined.end(), left.begin(), left.end());
  combined.insert(combined.end(), right.begin(), right.end());
  return combined;
}

// Re-check callback for index-sourced rows. Indexes are single-version
// (latest keys only), so under a snapshot read a probe may return RowIds
// whose version visible at the epoch no longer satisfies the probed
// predicate — the row was updated after the snapshot. Null = no re-check
// (writer context, where index and heap mutate under one latch).
using RowVerify = std::function<bool(const Tuple&)>;

// Equality/prefix probe re-check: the visible tuple's indexed columns must
// still equal the probed key prefix.
RowVerify MakeEqVerify(const rel::IndexEntry& entry, const CompositeKey& key,
                       uint64_t epoch) {
  if (epoch == rel::kEpochMax) return nullptr;
  return [&entry, &key](const Tuple& tuple) {
    for (size_t k = 0; k < key.size(); ++k) {
      const Value& v = tuple[entry.column_indexes[k]];
      if (v.is_null() || Value::Compare(v, key[k]) != 0) return false;
    }
    return true;
  };
}

// Range probe re-check against the plan's lo/hi bounds.
RowVerify MakeRangeVerify(const rel::IndexEntry& entry, const PlanNode& plan,
                          uint64_t epoch) {
  if (epoch == rel::kEpochMax) return nullptr;
  return [&entry, &plan](const Tuple& tuple) {
    const Value& v = tuple[entry.column_indexes[0]];
    if (v.is_null()) return false;
    if (plan.lo.has_value()) {
      int c = Value::Compare(v, *plan.lo);
      if (c < 0 || (c == 0 && !plan.lo_inclusive)) return false;
    }
    if (plan.hi.has_value()) {
      int c = Value::Compare(v, *plan.hi);
      if (c > 0 || (c == 0 && !plan.hi_inclusive)) return false;
    }
    return true;
  };
}

// Keyword probe re-check: the visible text must still contain every token
// of the phrase (same AND-over-tokens semantics as InvertedIndex).
RowVerify MakeKeywordVerify(const rel::IndexEntry& entry,
                            const std::string& phrase, uint64_t epoch) {
  if (epoch == rel::kEpochMax) return nullptr;
  return [&entry, want = common::TokenizeKeywords(phrase)](
             const Tuple& tuple) {
    const Value& v = tuple[entry.column_indexes[0]];
    if (v.is_null()) return false;
    std::vector<std::string> have = common::TokenizeKeywords(v.AsText());
    for (const std::string& w : want) {
      if (std::find(have.begin(), have.end(), w) == have.end()) return false;
    }
    return true;
  };
}

// RowIds matched by `plan`'s index probe, collected under the entry's
// shared latch so concurrent maintenance cannot rebalance the structure
// mid-walk. Collected, not streamed: the latch is held for the index walk
// only, never across heap fetches or sink calls.
std::vector<RowId> CollectIndexMatches(const PlanNode& plan,
                                       const rel::IndexEntry& entry) {
  std::vector<RowId> matches;
  std::shared_lock<std::shared_mutex> lock(entry.latch);
  if (!plan.eq_key.empty()) {
    if (entry.def.kind == rel::IndexKind::kHash) {
      const std::vector<RowId>* rows = entry.hash->Lookup(plan.eq_key);
      if (rows != nullptr) matches = *rows;
    } else if (plan.eq_key.size() == entry.def.columns.size()) {
      matches = entry.btree->Lookup(plan.eq_key);
    } else {
      entry.btree->ScanPrefix(
          plan.eq_key,
          [&](const CompositeKey&, const std::vector<RowId>& rows) {
            matches.insert(matches.end(), rows.begin(), rows.end());
            return true;
          });
    }
    return matches;
  }
  std::optional<rel::BTreeIndex::Bound> lo, hi;
  if (plan.lo.has_value()) {
    lo = rel::BTreeIndex::Bound{{*plan.lo}, plan.lo_inclusive};
  }
  if (plan.hi.has_value()) {
    hi = rel::BTreeIndex::Bound{{*plan.hi}, plan.hi_inclusive};
  }
  entry.btree->Scan(lo, hi,
                    [&](const CompositeKey&, const std::vector<RowId>& rows) {
                      matches.insert(matches.end(), rows.begin(), rows.end());
                      return true;
                    });
  return matches;
}

// Streams the tuples visible at `epoch` behind `rows` into the emitter;
// false on stop. Rows with no visible version are skipped, not errors:
// the (single-version) index runs ahead of the snapshot.
Result<bool> EmitRowIds(const rel::Table& table, const std::vector<RowId>& rows,
                        uint64_t epoch, const RowVerify& verify,
                        const common::Deadline& deadline, BatchEmitter* em) {
  uint64_t probe = 0;
  for (RowId row : rows) {
    if (deadline.set() && (++probe & 1023) == 0 && deadline.expired()) {
      return Status::Timeout("query deadline exceeded");
    }
    auto tuple = table.Get(row, epoch);
    if (!tuple.ok()) {
      if (tuple.status().code() == common::StatusCode::kNotFound) continue;
      return tuple.status();
    }
    if (verify && !verify(**tuple)) continue;
    if (!em->PushRef(*tuple, row)) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------
// Batched pipeline.
// ---------------------------------------------------------------------

Status Executor::ExecuteBatched(const PlanNode& plan, const BatchSink& sink) {
  if (NeedsCompile(plan)) {
    // Compilation only fills the *_progs caches from already-bound
    // expressions; the plan is logically const.
    XQ_RETURN_IF_ERROR(CompilePlanPrograms(const_cast<PlanNode*>(&plan)));
  }
  return ExecB(plan, sink, /*budget=*/-1);
}

Result<std::vector<Tuple>> Executor::ExecuteToVector(const PlanNode& plan) {
  std::vector<Tuple> rows;
  XQ_RETURN_IF_ERROR(ExecuteBatched(plan, [&](RowBatch& batch) {
    for (size_t i = 0; i < batch.size(); ++i) {
      // The batch is dead after this call, so owned rows move out free.
      rows.push_back(batch.StealRow(i));
    }
    return true;
  }));
  return rows;
}

exec::WorkerPool* Executor::Pool() const {
  return options_.pool != nullptr ? options_.pool
                                  : exec::WorkerPool::Global();
}

size_t Executor::EffectiveDegree(const PlanNode& plan,
                                 size_t input_rows) const {
  if (plan.parallel_degree < 2) return 1;
  if (input_rows < options_.parallel_row_threshold) return 1;
  return Pool()->AdmitDegree(static_cast<size_t>(plan.parallel_degree));
}

bool Executor::DeadlineHit() {
  if (deadline_hit_) return true;
  if (!options_.deadline.set()) return false;
  if ((++deadline_probe_ & 1023) != 0) return false;
  deadline_hit_ = options_.deadline.expired();
  return deadline_hit_;
}

Status Executor::DeadlineStatus() const {
  return deadline_hit_ ? Status::Timeout("query deadline exceeded")
                       : Status::OK();
}

Status Executor::ExecB(const PlanNode& plan, const BatchSink& sink,
                       int64_t budget) {
  // Operator entry is rare (per node per query, plus join inner-side
  // re-entries), so an unconditional clock check here is cheap and catches
  // deadlines that elapsed inside a blocking child (sort, hash build).
  if (options_.deadline.expired()) {
    deadline_hit_ = true;
    return DeadlineStatus();
  }
  if (!options_.collect_stats) return DispatchB(plan, sink, budget);
  OpStats& st = plan.stats;
  ++st.invocations;
  // Count emission before the parent consumes, so a consumer that stops
  // mid-pipeline (LIMIT row budget, aborted sink) still leaves finalized
  // counters behind.
  BatchSink counting = [&st, &sink](RowBatch& batch) {
    st.rows_out += batch.size();
    ++st.batches;
    return sink(batch);
  };
  auto t0 = std::chrono::steady_clock::now();
  Status status = DispatchB(plan, counting, budget);
  st.ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return status;
}

Status Executor::DispatchB(const PlanNode& plan, const BatchSink& sink,
                           int64_t budget) {
  switch (plan.kind) {
    case PlanKind::kSeqScan:
      return ExecScanB(plan, sink, budget);
    case PlanKind::kParallelSeqScan:
      // A finite budget means a LIMIT bounds this scan; the serial path
      // preserves the touch-~limit-rows guarantee.
      return budget >= 0 ? ExecScanB(plan, sink, budget)
                         : ExecParallelScanB(plan, sink, budget);
    case PlanKind::kIndexScan:
      return ExecIndexScanB(plan, sink, budget);
    case PlanKind::kKeywordScan:
      return ExecKeywordScanB(plan, sink, budget);
    case PlanKind::kFilter:
      return ExecFilterB(plan, sink);
    case PlanKind::kProject:
      return ExecProjectB(plan, sink, budget);
    case PlanKind::kNestedLoopJoin:
      return ExecNestedLoopJoinB(plan, sink);
    case PlanKind::kHashJoin:
      return ExecHashJoinB(plan, sink);
    case PlanKind::kIndexNLJoin:
      return ExecIndexNLJoinB(plan, sink);
    case PlanKind::kSort:
      return ExecSortB(plan, sink);
    case PlanKind::kLimit:
      return ExecLimitB(plan, sink);
    case PlanKind::kAggregate:
      return ExecAggregateB(plan, sink);
    case PlanKind::kDistinct:
      return ExecDistinctB(plan, sink);
  }
  return Status::Internal("bad plan kind");
}

Status Executor::ExecScanB(const PlanNode& plan, const BatchSink& sink,
                           int64_t budget) {
  XQ_ASSIGN_OR_RETURN(const rel::Table* table, db_->GetTable(plan.table));
  BatchEmitter em(options_.batch_capacity, sink, budget);
  table->Scan(options_.snapshot_epoch, [&](RowId row, const Tuple& tuple) {
    if (DeadlineHit()) return false;
    return em.PushRef(&tuple, row);
  });
  XQ_RETURN_IF_ERROR(DeadlineStatus());
  em.Flush();
  return Status::OK();
}

namespace {

// Morsel geometry: enough morsels that work stealing can balance skew
// (several per worker slot), each at least `min_rows` so the per-morsel
// bookkeeping stays amortized over real work.
size_t MorselSpan(size_t total, size_t degree, size_t min_rows) {
  size_t max_morsels = degree * 8;
  size_t span = (total + max_morsels - 1) / max_morsels;
  return std::max(span, std::max<size_t>(min_rows, 1));
}

}  // namespace

Status Executor::ExecParallelScanB(const PlanNode& plan, const BatchSink& sink,
                                   int64_t budget,
                                   const CompiledExpr* pred) {
  (void)budget;
  XQ_ASSIGN_OR_RETURN(const rel::Table* table, db_->GetTable(plan.table));
  const uint64_t epoch = options_.snapshot_epoch;
  const size_t slots = table->num_slots();
  const size_t degree = EffectiveDegree(plan, slots);
  if (degree < 2) {
    // Single-core host, saturated pool, or small table: run the same fused
    // scan on the calling thread. This is the admission decision that keeps
    // parallel plans from ever losing to serial — fan-out only happens when
    // there is both width and work.
    BatchEmitter em(options_.batch_capacity, sink, -1);
    EvalScratch scratch;
    Status status;
    uint64_t emitted = 0;
    table->Scan(epoch, [&](RowId row, const Tuple& tuple) {
      if (DeadlineHit()) return false;
      if (pred != nullptr) {
        auto v = pred->EvalRowRef(tuple, &scratch);
        if (!v.ok()) {
          status = v.status();
          return false;
        }
        std::optional<bool> t = Truthiness(**v);
        if (!t.has_value() || !*t) return true;
      }
      ++emitted;
      return em.PushRef(&tuple, row);
    });
    XQ_RETURN_IF_ERROR(status);
    XQ_RETURN_IF_ERROR(DeadlineStatus());
    if (options_.collect_stats) {
      plan.stats.partition_rows.assign(1, emitted);
    }
    em.Flush();
    return Status::OK();
  }

  // Morsel-parallel: workers steal contiguous slot ranges from a shared
  // cursor and buffer their output batches per morsel; the driver then
  // emits morsels in index order, which for contiguous ranges is exactly
  // RowId order — byte-identical to the serial scan.
  exec::MorselQueue morsels(slots,
                            MorselSpan(slots, degree, options_.morsel_rows));
  std::vector<std::vector<RowBatch>> results(morsels.num_morsels());
  std::vector<Status> worker_status(degree);
  std::vector<uint64_t> worker_rows(degree, 0);
  std::vector<uint64_t> worker_morsels(degree, 0);
  const size_t capacity = options_.batch_capacity;
  const common::Deadline deadline = options_.deadline;
  Pool()->ParallelFor(degree, [&](size_t w) {
    EvalScratch scratch;
    uint64_t probe = 0;
    size_t mi, first, last;
    while (worker_status[w].ok() && morsels.Next(&mi, &first, &last)) {
      std::vector<RowBatch> out;
      RowBatch batch(capacity);
      table->ScanPartition(
          epoch, static_cast<RowId>(first), static_cast<RowId>(last),
          [&](RowId row, const Tuple& tuple) {
            if (deadline.set() && (++probe & 1023) == 0 &&
                deadline.expired()) {
              worker_status[w] = Status::Timeout("query deadline exceeded");
              return false;
            }
            if (pred != nullptr) {
              auto v = pred->EvalRowRef(tuple, &scratch);
              if (!v.ok()) {
                worker_status[w] = v.status();
                return false;
              }
              std::optional<bool> t = Truthiness(**v);
              if (!t.has_value() || !*t) return true;
            }
            batch.AppendRef(&tuple, row);
            ++worker_rows[w];
            if (batch.full()) {
              out.push_back(std::move(batch));
              batch = RowBatch(capacity);
            }
            return true;
          });
      if (!batch.empty()) out.push_back(std::move(batch));
      results[mi] = std::move(out);
      ++worker_morsels[w];
    }
  });
  for (const Status& s : worker_status) {
    if (!s.ok()) {
      if (s.code() == common::StatusCode::kTimeout) deadline_hit_ = true;
      return s;
    }
  }
  if (options_.collect_stats) {
    plan.stats.partition_rows = worker_rows;
    for (uint64_t m : worker_morsels) plan.stats.morsels += m;
  }
  for (auto& morsel_batches : results) {
    for (RowBatch& batch : morsel_batches) {
      if (!sink(batch)) return Status::OK();
    }
  }
  return Status::OK();
}

Status Executor::ExecIndexScanB(const PlanNode& plan, const BatchSink& sink,
                                int64_t budget) {
  XQ_ASSIGN_OR_RETURN(const rel::Table* table, db_->GetTable(plan.table));
  const rel::IndexEntry& entry = *plan.index;
  const uint64_t epoch = options_.snapshot_epoch;
  std::vector<RowId> matches = CollectIndexMatches(plan, entry);
  RowVerify verify = plan.eq_key.empty()
                         ? MakeRangeVerify(entry, plan, epoch)
                         : MakeEqVerify(entry, plan.eq_key, epoch);
  BatchEmitter em(options_.batch_capacity, sink, budget);
  XQ_ASSIGN_OR_RETURN(bool more, EmitRowIds(*table, matches, epoch, verify,
                                            options_.deadline, &em));
  (void)more;
  em.Flush();
  return Status::OK();
}

Status Executor::ExecKeywordScanB(const PlanNode& plan, const BatchSink& sink,
                                  int64_t budget) {
  XQ_ASSIGN_OR_RETURN(const rel::Table* table, db_->GetTable(plan.table));
  const rel::IndexEntry& entry = *plan.index;
  const uint64_t epoch = options_.snapshot_epoch;
  std::vector<RowId> rows;
  {
    std::shared_lock<std::shared_mutex> lock(entry.latch);
    rows = entry.inverted->LookupAll(plan.keyword);
  }
  RowVerify verify = MakeKeywordVerify(entry, plan.keyword, epoch);
  BatchEmitter em(options_.batch_capacity, sink, budget);
  XQ_ASSIGN_OR_RETURN(bool more, EmitRowIds(*table, rows, epoch, verify,
                                            options_.deadline, &em));
  (void)more;
  em.Flush();
  return Status::OK();
}

Status Executor::ExecFilterB(const PlanNode& plan, const BatchSink& sink) {
  const CompiledExpr& prog = *plan.predicate_prog;
  const PlanNode& child = *plan.children[0];
  // Execution-time fusion: over a bare scan, evaluate the predicate inside
  // the scan loop so rejected rows never enter a batch. The plan tree (and
  // its EXPLAIN rendering) is untouched; the child is marked `fused` so
  // EXPLAIN ANALYZE can explain its zeroed counters.
  if (child.kind == PlanKind::kSeqScan) {
    if (options_.collect_stats) child.stats.fused = true;
    XQ_ASSIGN_OR_RETURN(const rel::Table* table, db_->GetTable(child.table));
    BatchEmitter em(options_.batch_capacity, sink, /*budget=*/-1);
    EvalScratch fused_scratch;
    Status status;
    table->Scan(options_.snapshot_epoch, [&](RowId row, const Tuple& tuple) {
      auto v = prog.EvalRowRef(tuple, &fused_scratch);
      if (!v.ok()) {
        status = v.status();
        return false;
      }
      std::optional<bool> t = Truthiness(**v);
      if (!t.has_value() || !*t) return true;
      return em.PushRef(&tuple, row);
    });
    XQ_RETURN_IF_ERROR(status);
    em.Flush();
    return Status::OK();
  }
  if (child.kind == PlanKind::kParallelSeqScan) {
    // The fused parallel scan still records its per-partition post-filter
    // counts into the child node (ExecParallelScanB writes them there).
    if (options_.collect_stats) child.stats.fused = true;
    return ExecParallelScanB(child, sink, /*budget=*/-1, &prog);
  }
  // Over a join, run the predicate on each candidate pair so rejected
  // pairs are never concatenated (fig-query containment filters reject
  // most of a join's output).
  if (child.kind == PlanKind::kNestedLoopJoin) {
    if (options_.collect_stats) child.stats.fused = true;
    return ExecNestedLoopJoinB(child, sink, &prog);
  }
  if (child.kind == PlanKind::kHashJoin) {
    if (options_.collect_stats) child.stats.fused = true;
    return ExecHashJoinB(child, sink, &prog);
  }
  if (child.kind == PlanKind::kIndexNLJoin) {
    if (options_.collect_stats) child.stats.fused = true;
    return ExecIndexNLJoinB(child, sink, &prog);
  }
  EvalScratch scratch;
  Status inner_status;
  XQ_RETURN_IF_ERROR(ExecB(
      *plan.children[0],
      [&](RowBatch& batch) {
        Status s = prog.FilterBatch(&batch, &scratch);
        if (!s.ok()) {
          inner_status = s;
          return false;
        }
        if (batch.empty()) return true;
        return sink(batch);
      },
      /*budget=*/-1));
  return inner_status;
}

Status Executor::ExecProjectB(const PlanNode& plan, const BatchSink& sink,
                              int64_t budget) {
  BatchEmitter em(options_.batch_capacity, sink, budget);
  EvalScratch scratch;
  Status inner_status;
  // Bare column references (the common SELECT-list shape) read their slot
  // directly instead of running the interpreter per row.
  std::vector<int> slots;
  slots.reserve(plan.project_progs.size());
  for (const CompiledExpr& prog : plan.project_progs) {
    slots.push_back(prog.single_slot());
  }
  XQ_RETURN_IF_ERROR(ExecB(
      *plan.children[0],
      [&](RowBatch& batch) {
        for (size_t i = 0; i < batch.size(); ++i) {
          const Tuple& row = batch.row(i);
          Tuple out;
          out.reserve(plan.project_progs.size());
          for (size_t j = 0; j < plan.project_progs.size(); ++j) {
            int s = slots[j];
            if (s >= 0 && static_cast<size_t>(s) < row.size()) {
              out.push_back(row[static_cast<size_t>(s)]);
              continue;
            }
            auto v = plan.project_progs[j].EvalRowRef(row, &scratch);
            if (!v.ok()) {
              inner_status = v.status();
              return false;
            }
            out.push_back(**v);
          }
          if (!em.PushOwned(std::move(out))) return false;
        }
        return true;
      },
      budget));
  XQ_RETURN_IF_ERROR(inner_status);
  em.Flush();
  return Status::OK();
}

Status Executor::ExecNestedLoopJoinB(const PlanNode& plan,
                                     const BatchSink& sink,
                                     const CompiledExpr* residual) {
  XQ_ASSIGN_OR_RETURN(std::vector<Tuple> inner,
                      ExecuteToVector(*plan.children[1]));
  const CompiledExpr* pred =
      plan.predicate_prog.has_value() ? &*plan.predicate_prog : nullptr;
  BatchEmitter em(options_.batch_capacity, sink, /*budget=*/-1);
  EvalScratch scratch;
  Status inner_status;
  // Both the join predicate and any fused residual filter are evaluated
  // on the (left, right) pair; only passing pairs are materialized.
  auto pair_ok = [&](const CompiledExpr* prog, const Tuple& left,
                     const Tuple& right, bool* ok) {
    if (prog == nullptr) {
      *ok = true;
      return true;
    }
    auto pass = PairPasses(*prog, left, right, &scratch);
    if (!pass.ok()) {
      inner_status = pass.status();
      return false;
    }
    *ok = *pass;
    return true;
  };
  XQ_RETURN_IF_ERROR(ExecB(
      *plan.children[0],
      [&](RowBatch& batch) {
        for (size_t i = 0; i < batch.size(); ++i) {
          const Tuple& left = batch.row(i);
          for (const Tuple& right : inner) {
            if (DeadlineHit()) {
              inner_status = DeadlineStatus();
              return false;
            }
            bool ok = false;
            if (!pair_ok(pred, left, right, &ok)) return false;
            if (!ok) continue;
            if (!pair_ok(residual, left, right, &ok)) return false;
            if (!ok) continue;
            if (!em.PushOwned(Concat(left, right))) return false;
          }
        }
        return true;
      },
      /*budget=*/-1));
  XQ_RETURN_IF_ERROR(inner_status);
  em.Flush();
  return Status::OK();
}

Status Executor::ExecHashJoinB(const PlanNode& plan, const BatchSink& sink,
                               const CompiledExpr* residual) {
  // Build on the right child.
  XQ_ASSIGN_OR_RETURN(std::vector<Tuple> build,
                      ExecuteToVector(*plan.children[1]));
  std::vector<int> right_slots = SingleSlots(plan.right_key_progs);
  std::vector<int> left_slots = SingleSlots(plan.left_key_progs);
  using JoinTable =
      std::unordered_map<CompositeKey, std::vector<size_t>,
                         rel::CompositeKeyHasher, rel::CompositeKeyEq>;
  const common::Deadline deadline = options_.deadline;
  const size_t build_degree = EffectiveDegree(plan, build.size());
  const size_t parts = build_degree >= 2 ? build_degree : 1;
  std::vector<JoinTable> ht(parts);
  rel::CompositeKeyHasher part_hasher;
  if (parts == 1) {
    EvalScratch scratch;
    ht[0].reserve(build.size());
    for (size_t i = 0; i < build.size(); ++i) {
      if (DeadlineHit()) return DeadlineStatus();
      CompositeKey key;
      bool has_null = false;
      for (size_t j = 0; j < plan.right_key_progs.size(); ++j) {
        XQ_ASSIGN_OR_RETURN(
            const Value* v,
            EvalKey(plan.right_key_progs[j], right_slots[j], build[i],
                    &scratch));
        if (v->is_null()) {
          has_null = true;
          break;
        }
        key.push_back(*v);
      }
      if (!has_null) ht[0][std::move(key)].push_back(i);
    }
  } else {
    // Parallel build, two phases. Phase 1: evaluate keys and hashes over
    // morsels of build rows. Phase 2: each worker owns exactly one hash
    // partition and inserts its rows in build-row order — no shared-bucket
    // locking, and per-key row lists come out in the same order the serial
    // build produces.
    std::vector<CompositeKey> keys(build.size());
    std::vector<size_t> hashes(build.size());
    std::vector<uint8_t> null_key(build.size(), 0);
    exec::MorselQueue mq(build.size(),
                         MorselSpan(build.size(), parts, options_.morsel_rows));
    std::vector<Status> build_status(parts);
    Pool()->ParallelFor(parts, [&](size_t w) {
      EvalScratch scratch;
      uint64_t probe_ticks = 0;
      size_t mi, first, last;
      while (build_status[w].ok() && mq.Next(&mi, &first, &last)) {
        for (size_t i = first; i < last; ++i) {
          if (deadline.set() && (++probe_ticks & 255) == 0 &&
              deadline.expired()) {
            build_status[w] = Status::Timeout("query deadline exceeded");
            break;
          }
          CompositeKey key;
          bool has_null = false;
          for (size_t j = 0; j < plan.right_key_progs.size(); ++j) {
            auto v = EvalKey(plan.right_key_progs[j], right_slots[j],
                             build[i], &scratch);
            if (!v.ok()) {
              build_status[w] = v.status();
              break;
            }
            if ((*v)->is_null()) {
              has_null = true;  // NULL never joins
              break;
            }
            key.push_back(**v);
          }
          if (!build_status[w].ok()) break;
          if (has_null) {
            null_key[i] = 1;
            continue;
          }
          hashes[i] = part_hasher(key);
          keys[i] = std::move(key);
        }
      }
    });
    for (const Status& s : build_status) {
      if (!s.ok()) {
        if (s.code() == common::StatusCode::kTimeout) deadline_hit_ = true;
        return s;
      }
    }
    Pool()->ParallelFor(parts, [&](size_t p) {
      JoinTable& part = ht[p];
      part.reserve(build.size() / parts + 1);
      for (size_t i = 0; i < build.size(); ++i) {
        if (null_key[i] != 0) continue;
        if (hashes[i] % parts == p) part[std::move(keys[i])].push_back(i);
      }
    });
  }

  BatchEmitter em(options_.batch_capacity, sink, /*budget=*/-1);
  // Per-row probe shared by the streamed, serial-vector, and parallel
  // paths: evaluates the left key, finds the partition's matches, applies
  // the residual, and hands each joined row to `out`. Returns false when
  // `status` was set (error) or `out` declined more rows.
  auto probe_row = [&](const Tuple& left, EvalScratch* scratch,
                       CompositeKey* probe, Status* status,
                       const std::function<bool(Tuple&&)>& out) {
    probe->clear();
    for (size_t j = 0; j < plan.left_key_progs.size(); ++j) {
      auto v = EvalKey(plan.left_key_progs[j], left_slots[j], left, scratch);
      if (!v.ok()) {
        *status = v.status();
        return false;
      }
      if ((*v)->is_null()) return true;  // NULL never joins
      probe->push_back(**v);
    }
    const JoinTable& part =
        parts == 1 ? ht[0] : ht[part_hasher(*probe) % parts];
    auto it = part.find(*probe);
    if (it == part.end()) return true;
    for (size_t b : it->second) {
      if (residual != nullptr) {
        auto pass = PairPasses(*residual, left, build[b], scratch);
        if (!pass.ok()) {
          *status = pass.status();
          return false;
        }
        if (!*pass) continue;
      }
      if (!out(Concat(left, build[b]))) return false;
    }
    return true;
  };

  // Probe goes parallel only when the plan is annotated AND the pool has
  // spare width right now; otherwise stream the left child so nothing is
  // materialized that serial execution would not have materialized.
  const bool pool_wide =
      plan.parallel_degree >= 2 &&
      Pool()->AdmitDegree(static_cast<size_t>(plan.parallel_degree)) >= 2;
  if (!pool_wide) {
    Status inner_status;
    EvalScratch scratch;
    CompositeKey probe;  // reused across rows
    XQ_RETURN_IF_ERROR(ExecB(
        *plan.children[0],
        [&](RowBatch& batch) {
          for (size_t i = 0; i < batch.size(); ++i) {
            if (DeadlineHit()) {
              inner_status = DeadlineStatus();
              return false;
            }
            if (!probe_row(batch.row(i), &scratch, &probe, &inner_status,
                           [&](Tuple&& t) {
                             return em.PushOwned(std::move(t));
                           })) {
              return false;
            }
          }
          return true;
        },
        /*budget=*/-1));
    XQ_RETURN_IF_ERROR(inner_status);
    em.Flush();
    return Status::OK();
  }

  XQ_ASSIGN_OR_RETURN(std::vector<Tuple> outer,
                      ExecuteToVector(*plan.children[0]));
  const size_t probe_degree = EffectiveDegree(plan, outer.size());
  if (probe_degree < 2) {
    Status inner_status;
    EvalScratch scratch;
    CompositeKey probe;
    for (const Tuple& left : outer) {
      if (DeadlineHit()) return DeadlineStatus();
      if (!probe_row(left, &scratch, &probe, &inner_status, [&](Tuple&& t) {
            return em.PushOwned(std::move(t));
          })) {
        XQ_RETURN_IF_ERROR(inner_status);
        break;  // emitter declined (downstream stop)
      }
    }
    em.Flush();
    return Status::OK();
  }

  // Parallel probe: workers steal morsels of outer rows, buffer their
  // joined rows per morsel, and the driver emits morsels in index order —
  // the exact sequence the streamed serial probe produces.
  exec::MorselQueue mq(outer.size(),
                       MorselSpan(outer.size(), probe_degree,
                                  options_.morsel_rows));
  std::vector<std::vector<Tuple>> results(mq.num_morsels());
  std::vector<Status> probe_status(probe_degree);
  std::vector<uint64_t> worker_rows(probe_degree, 0);
  std::vector<uint64_t> worker_morsels(probe_degree, 0);
  Pool()->ParallelFor(probe_degree, [&](size_t w) {
    EvalScratch scratch;
    CompositeKey probe;
    uint64_t probe_ticks = 0;
    size_t mi, first, last;
    while (probe_status[w].ok() && mq.Next(&mi, &first, &last)) {
      std::vector<Tuple> out;
      for (size_t i = first; i < last; ++i) {
        if (deadline.set() && (++probe_ticks & 255) == 0 &&
            deadline.expired()) {
          probe_status[w] = Status::Timeout("query deadline exceeded");
          break;
        }
        if (!probe_row(outer[i], &scratch, &probe, &probe_status[w],
                       [&](Tuple&& t) {
                         out.push_back(std::move(t));
                         return true;
                       })) {
          break;
        }
      }
      if (!probe_status[w].ok()) break;
      worker_rows[w] += out.size();
      results[mi] = std::move(out);
      ++worker_morsels[w];
    }
  });
  for (const Status& s : probe_status) {
    if (!s.ok()) {
      if (s.code() == common::StatusCode::kTimeout) deadline_hit_ = true;
      return s;
    }
  }
  if (options_.collect_stats) {
    plan.stats.partition_rows = worker_rows;
    for (uint64_t m : worker_morsels) plan.stats.morsels += m;
  }
  for (auto& morsel_rows : results) {
    for (Tuple& t : morsel_rows) {
      if (!em.PushOwned(std::move(t))) {
        em.Flush();
        return Status::OK();
      }
    }
  }
  em.Flush();
  return Status::OK();
}

Status Executor::ExecIndexNLJoinB(const PlanNode& plan,
                                  const BatchSink& sink,
                                  const CompiledExpr* residual) {
  XQ_ASSIGN_OR_RETURN(const rel::Table* table, db_->GetTable(plan.table));
  const rel::IndexEntry& entry = *plan.index;
  const uint64_t epoch = options_.snapshot_epoch;
  BatchEmitter em(options_.batch_capacity, sink, /*budget=*/-1);
  EvalScratch scratch;
  Status inner_status;
  CompositeKey key;            // reused across rows
  std::vector<RowId> fetched;  // reused index-probe buffer
  std::vector<int> key_slots = SingleSlots(plan.outer_key_progs);
  XQ_RETURN_IF_ERROR(ExecB(
      *plan.children[0],
      [&](RowBatch& batch) {
        for (size_t i = 0; i < batch.size(); ++i) {
          if (DeadlineHit()) {
            inner_status = DeadlineStatus();
            return false;
          }
          const Tuple& outer = batch.row(i);
          key.clear();
          bool has_null = false;
          for (size_t j = 0; j < plan.outer_key_progs.size(); ++j) {
            auto v = EvalKey(plan.outer_key_progs[j], key_slots[j], outer,
                             &scratch);
            if (!v.ok()) {
              inner_status = v.status();
              return false;
            }
            if ((*v)->is_null()) {
              has_null = true;
              break;
            }
            key.push_back(**v);
          }
          if (has_null) continue;
          // Coerce the probe key to the indexed column types so INT
          // probes hit TEXT-typed keys the way a filter comparison would.
          for (size_t k = 0; k < key.size(); ++k) {
            ValueType want =
                table->schema().column(entry.column_indexes[k]).type;
            if (key[k].type() != want) {
              auto cast = key[k].CastTo(want);
              if (cast.ok()) key[k] = std::move(*cast);
            }
          }
          fetched.clear();
          {
            std::shared_lock<std::shared_mutex> idx_lock(entry.latch);
            if (entry.def.kind == rel::IndexKind::kHash) {
              const std::vector<RowId>* rows = entry.hash->Lookup(key);
              if (rows != nullptr) fetched = *rows;
            } else if (key.size() == entry.def.columns.size()) {
              fetched = entry.btree->Lookup(key);
            } else {
              entry.btree->ScanPrefix(
                  key, [&](const CompositeKey&, const std::vector<RowId>& r) {
                    fetched.insert(fetched.end(), r.begin(), r.end());
                    return true;
                  });
            }
          }
          RowVerify verify = MakeEqVerify(entry, key, epoch);
          for (RowId row : fetched) {
            auto tuple = table->Get(row, epoch);
            if (!tuple.ok()) {
              if (tuple.status().code() == common::StatusCode::kNotFound) {
                continue;  // invisible at the snapshot epoch
              }
              inner_status = tuple.status();
              return false;
            }
            if (verify && !verify(**tuple)) continue;
            if (residual != nullptr) {
              auto pass = PairPasses(*residual, outer, **tuple, &scratch);
              if (!pass.ok()) {
                inner_status = pass.status();
                return false;
              }
              if (!*pass) continue;
            }
            if (!em.PushOwned(Concat(outer, **tuple))) return false;
          }
        }
        return true;
      },
      /*budget=*/-1));
  XQ_RETURN_IF_ERROR(inner_status);
  em.Flush();
  return Status::OK();
}

Status Executor::ExecSortB(const PlanNode& plan, const BatchSink& sink) {
  XQ_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                      ExecuteToVector(*plan.children[0]));
  std::vector<int> key_slots = SingleSlots(plan.sort_key_progs);
  const size_t degree = EffectiveDegree(plan, rows.size());
  if (degree < 2) {
    EvalScratch scratch;
    std::vector<std::pair<CompositeKey, size_t>> keyed;
    keyed.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      CompositeKey key;
      for (size_t j = 0; j < plan.sort_key_progs.size(); ++j) {
        XQ_ASSIGN_OR_RETURN(
            const Value* v,
            EvalKey(plan.sort_key_progs[j], key_slots[j], rows[i], &scratch));
        key.push_back(*v);
      }
      keyed.emplace_back(std::move(key), i);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const auto& a, const auto& b) {
                       for (size_t k = 0; k < plan.sort_keys.size(); ++k) {
                         int c = Value::Compare(a.first[k], b.first[k]);
                         if (c != 0) {
                           return plan.sort_keys[k].desc ? c > 0 : c < 0;
                         }
                       }
                       return false;
                     });
    BatchEmitter em(options_.batch_capacity, sink, /*budget=*/-1);
    for (const auto& [key, i] : keyed) {
      if (!em.PushRef(&rows[i], 0)) return Status::OK();
    }
    em.Flush();
    return Status::OK();
  }

  // Parallel sort: each worker evaluates keys and sorts the morsels it
  // steals; the driver then k-way-merges the per-morsel runs. Both stages
  // use one TOTAL order — sort keys, then original input index ascending —
  // which is exactly the sequence stable_sort yields (equal-key rows in
  // input order), so the merged output is byte-identical to serial.
  const size_t n = rows.size();
  std::vector<CompositeKey> keys(n);
  exec::MorselQueue mq(n, MorselSpan(n, degree, options_.morsel_rows));
  std::vector<std::vector<size_t>> runs(mq.num_morsels());
  std::vector<Status> worker_status(degree);
  std::vector<uint64_t> worker_rows(degree, 0);
  std::vector<uint64_t> worker_morsels(degree, 0);
  const common::Deadline deadline = options_.deadline;
  auto row_less = [&](size_t a, size_t b) {
    for (size_t k = 0; k < plan.sort_keys.size(); ++k) {
      int c = Value::Compare(keys[a][k], keys[b][k]);
      if (c != 0) return plan.sort_keys[k].desc ? c > 0 : c < 0;
    }
    return a < b;
  };
  Pool()->ParallelFor(degree, [&](size_t w) {
    EvalScratch scratch;
    size_t mi, first, last;
    while (worker_status[w].ok() && mq.Next(&mi, &first, &last)) {
      if (deadline.set() && deadline.expired()) {
        worker_status[w] = Status::Timeout("query deadline exceeded");
        break;
      }
      std::vector<size_t> run;
      run.reserve(last - first);
      for (size_t i = first; i < last; ++i) {
        CompositeKey key;
        for (size_t j = 0; j < plan.sort_key_progs.size(); ++j) {
          auto v =
              EvalKey(plan.sort_key_progs[j], key_slots[j], rows[i], &scratch);
          if (!v.ok()) {
            worker_status[w] = v.status();
            break;
          }
          key.push_back(**v);
        }
        if (!worker_status[w].ok()) break;
        keys[i] = std::move(key);
        run.push_back(i);
      }
      if (!worker_status[w].ok()) break;
      std::sort(run.begin(), run.end(), row_less);
      runs[mi] = std::move(run);
      worker_rows[w] += last - first;
      ++worker_morsels[w];
    }
  });
  for (const Status& s : worker_status) {
    if (!s.ok()) {
      if (s.code() == common::StatusCode::kTimeout) deadline_hit_ = true;
      return s;
    }
  }
  if (options_.collect_stats) {
    plan.stats.partition_rows = worker_rows;
    for (uint64_t m : worker_morsels) plan.stats.morsels += m;
  }
  // K-way merge of the sorted runs under the same total order.
  struct Cursor {
    size_t run;
    size_t pos;
  };
  auto cursor_greater = [&](const Cursor& x, const Cursor& y) {
    return row_less(runs[y.run][y.pos], runs[x.run][x.pos]);
  };
  std::vector<Cursor> heap;
  heap.reserve(runs.size());
  for (size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].empty()) heap.push_back({r, 0});
  }
  std::make_heap(heap.begin(), heap.end(), cursor_greater);
  BatchEmitter em(options_.batch_capacity, sink, /*budget=*/-1);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), cursor_greater);
    Cursor cur = heap.back();
    heap.pop_back();
    if (!em.PushRef(&rows[runs[cur.run][cur.pos]], 0)) return Status::OK();
    if (++cur.pos < runs[cur.run].size()) {
      heap.push_back(cur);
      std::push_heap(heap.begin(), heap.end(), cursor_greater);
    }
  }
  em.Flush();
  return Status::OK();
}

Status Executor::ExecLimitB(const PlanNode& plan, const BatchSink& sink) {
  int64_t child_budget =
      plan.limit >= 0 ? plan.offset + plan.limit : int64_t{-1};
  int64_t to_skip = plan.offset;
  int64_t remaining = plan.limit;  // < 0 = unlimited
  return ExecB(
      *plan.children[0],
      [&](RowBatch& batch) {
        if (to_skip > 0) {
          size_t drop = static_cast<size_t>(
              std::min<int64_t>(to_skip, static_cast<int64_t>(batch.size())));
          batch.DropFront(drop);
          to_skip -= static_cast<int64_t>(drop);
          if (batch.empty()) return true;
        }
        bool done = false;
        if (remaining >= 0) {
          if (static_cast<int64_t>(batch.size()) >= remaining) {
            batch.Truncate(static_cast<size_t>(remaining));
            remaining = 0;
            done = true;
          } else {
            remaining -= static_cast<int64_t>(batch.size());
          }
        }
        if (!batch.empty() && !sink(batch)) return false;
        return !done;
      },
      child_budget);
}

Status Executor::ExecAggregateB(const PlanNode& plan, const BatchSink& sink) {
  // Hash-group accumulator: index for lookup plus keys/states in
  // first-seen order (group output order matches input order).
  std::unordered_map<CompositeKey, size_t, rel::CompositeKeyHasher,
                     rel::CompositeKeyEq>
      index;
  std::vector<CompositeKey> keys;
  std::vector<std::vector<AggState>> states;
  std::vector<int> group_slots = SingleSlots(plan.group_progs);
  std::vector<int> arg_slots;
  arg_slots.reserve(plan.agg_arg_progs.size());
  for (const auto& prog : plan.agg_arg_progs) {
    arg_slots.push_back(prog.has_value() ? prog->single_slot() : -1);
  }
  EvalScratch scratch;
  auto accumulate = [&](const Tuple& tuple) -> Status {
    CompositeKey key;
    for (size_t j = 0; j < plan.group_progs.size(); ++j) {
      XQ_ASSIGN_OR_RETURN(
          const Value* v,
          EvalKey(plan.group_progs[j], group_slots[j], tuple, &scratch));
      key.push_back(*v);
    }
    size_t slot;
    auto it = index.find(key);
    if (it == index.end()) {
      slot = keys.size();
      index.emplace(key, slot);
      keys.push_back(std::move(key));
      states.emplace_back(plan.aggs.size());
    } else {
      slot = it->second;
    }
    for (size_t a = 0; a < plan.aggs.size(); ++a) {
      if (!plan.agg_arg_progs[a].has_value()) {
        XQ_RETURN_IF_ERROR(
            UpdateAggValue(plan.aggs[a].func, nullptr, &states[slot][a]));
      } else {
        XQ_ASSIGN_OR_RETURN(
            const Value* v,
            EvalKey(*plan.agg_arg_progs[a], arg_slots[a], tuple, &scratch));
        XQ_RETURN_IF_ERROR(
            UpdateAggValue(plan.aggs[a].func, v, &states[slot][a]));
      }
    }
    return Status::OK();
  };

  Status inner_status;
  XQ_RETURN_IF_ERROR(ExecB(
      *plan.children[0],
      [&](RowBatch& batch) {
        for (size_t r = 0; r < batch.size(); ++r) {
          Status s = accumulate(batch.row(r));
          if (!s.ok()) {
            inner_status = s;
            return false;
          }
        }
        return true;
      },
      /*budget=*/-1));
  XQ_RETURN_IF_ERROR(inner_status);
  // Grand aggregate over an empty input still yields one row.
  if (keys.empty() && plan.group_exprs.empty()) {
    keys.emplace_back();
    states.emplace_back(plan.aggs.size());
  }
  BatchEmitter em(options_.batch_capacity, sink, /*budget=*/-1);
  for (size_t g = 0; g < keys.size(); ++g) {
    Tuple out = keys[g];
    for (size_t a = 0; a < plan.aggs.size(); ++a) {
      out.push_back(FinalizeAgg(plan.aggs[a], states[g][a]));
    }
    if (!em.PushOwned(std::move(out))) return Status::OK();
  }
  em.Flush();
  return Status::OK();
}

Status Executor::ExecDistinctB(const PlanNode& plan, const BatchSink& sink) {
  using SeenSet = std::unordered_set<CompositeKey, rel::CompositeKeyHasher,
                                     rel::CompositeKeyEq>;
  const bool pool_wide =
      plan.parallel_degree >= 2 &&
      Pool()->AdmitDegree(static_cast<size_t>(plan.parallel_degree)) >= 2;
  if (!pool_wide) {
    SeenSet seen;
    return ExecB(
        *plan.children[0],
        [&](RowBatch& batch) {
          std::vector<uint32_t> next;
          next.reserve(batch.size());
          const std::vector<uint32_t>& sel = batch.sel();
          for (size_t i = 0; i < sel.size(); ++i) {
            if (seen.insert(batch.row(i)).second) next.push_back(sel[i]);
          }
          batch.SetSel(std::move(next));
          if (batch.empty()) return true;
          return sink(batch);
        },
        /*budget=*/-1);
  }
  XQ_ASSIGN_OR_RETURN(std::vector<Tuple> input,
                      ExecuteToVector(*plan.children[0]));
  const size_t degree = EffectiveDegree(plan, input.size());
  BatchEmitter em(options_.batch_capacity, sink, /*budget=*/-1);
  if (degree < 2) {
    SeenSet seen;
    for (const Tuple& tuple : input) {
      if (DeadlineHit()) return DeadlineStatus();
      if (seen.insert(tuple).second) {
        if (!em.PushRef(&tuple, 0)) return Status::OK();
      }
    }
    em.Flush();
    return Status::OK();
  }
  // Parallel distinct: each worker dedups its stolen morsels locally
  // (first-seen row indexes, in row order); the driver re-dedups the
  // local survivors in morsel order against a global set. A value's first
  // surviving index is its earliest input row, so output order equals the
  // streaming-serial path.
  const size_t n = input.size();
  exec::MorselQueue mq(n, MorselSpan(n, degree, options_.morsel_rows));
  std::vector<std::vector<size_t>> locals(mq.num_morsels());
  std::vector<Status> worker_status(degree);
  std::vector<uint64_t> worker_rows(degree, 0);
  std::vector<uint64_t> worker_morsels(degree, 0);
  const common::Deadline deadline = options_.deadline;
  Pool()->ParallelFor(degree, [&](size_t w) {
    uint64_t probe_ticks = 0;
    size_t mi, first, last;
    while (worker_status[w].ok() && mq.Next(&mi, &first, &last)) {
      SeenSet seen;
      std::vector<size_t> uniq;
      for (size_t i = first; i < last; ++i) {
        if (deadline.set() && (++probe_ticks & 255) == 0 &&
            deadline.expired()) {
          worker_status[w] = Status::Timeout("query deadline exceeded");
          break;
        }
        if (seen.insert(input[i]).second) uniq.push_back(i);
      }
      if (!worker_status[w].ok()) break;
      locals[mi] = std::move(uniq);
      worker_rows[w] += last - first;
      ++worker_morsels[w];
    }
  });
  for (const Status& s : worker_status) {
    if (!s.ok()) {
      if (s.code() == common::StatusCode::kTimeout) deadline_hit_ = true;
      return s;
    }
  }
  if (options_.collect_stats) {
    plan.stats.partition_rows = worker_rows;
    for (uint64_t m : worker_morsels) plan.stats.morsels += m;
  }
  SeenSet global;
  for (const std::vector<size_t>& uniq : locals) {
    for (size_t i : uniq) {
      if (global.insert(input[i]).second) {
        if (!em.PushRef(&input[i], 0)) return Status::OK();
      }
    }
  }
  em.Flush();
  return Status::OK();
}

}  // namespace xomatiq::sql
