#include "sql/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/metrics.h"
#include "common/string_util.h"
#include "exec/worker_pool.h"

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

// Evaluates a join key over `row` into `key` (cleared first). False at
// the first NULL component: NULL never joins.
Result<bool> EvalJoinKey(const std::vector<CompiledExpr>& progs,
                         const std::vector<int>& slots, const Tuple& row,
                         EvalScratch* scratch, CompositeKey* key) {
  key->clear();
  for (size_t j = 0; j < progs.size(); ++j) {
    XQ_ASSIGN_OR_RETURN(const Value* v,
                        EvalKey(progs[j], slots[j], row, scratch));
    if (v->is_null()) return false;
    key->push_back(*v);
  }
  return true;
}

// Joined row: left columns then right columns, built with one allocation.
Tuple Concat(const Tuple& left, const Tuple& right) {
  Tuple combined;
  combined.reserve(left.size() + right.size());
  combined.insert(combined.end(), left.begin(), left.end());
  combined.insert(combined.end(), right.begin(), right.end());
  return combined;
}

// A parent Filter fuses into every scan and every join.
bool FusesFilter(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSeqScan:
    case PlanKind::kParallelSeqScan:
    case PlanKind::kIndexScan:
    case PlanKind::kKeywordScan:
    case PlanKind::kNestedLoopJoin:
    case PlanKind::kHashJoin:
    case PlanKind::kIndexNLJoin:
      return true;
    default:
      return false;
  }
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

// Index probes run under the entry's shared latch so concurrent
// maintenance cannot rebalance the structure mid-walk. They collect RowIds
// rather than stream them: the latch is held for the index walk only,
// never across heap fetches or sink calls.

// The one equality probe: a hash lookup, a full-key B+tree lookup, or a
// B+tree walk when `key` covers a leading prefix of the index columns.
void ProbeIndexEq(const rel::IndexEntry& entry, const CompositeKey& key,
                  std::vector<RowId>* out) {
  out->clear();
  std::shared_lock<std::shared_mutex> lock(entry.latch);
  if (entry.def.kind == rel::IndexKind::kHash) {
    const std::vector<RowId>* rows = entry.hash->Lookup(key);
    if (rows != nullptr) *out = *rows;
  } else if (key.size() == entry.def.columns.size()) {
    *out = entry.btree->Lookup(key);
  } else {
    entry.btree->ScanPrefix(
        key, [&](const CompositeKey&, const std::vector<RowId>& rows) {
          out->insert(out->end(), rows.begin(), rows.end());
          return true;
        });
  }
}

// RowIds matched by an IndexScan's or KeywordScan's probe.
std::vector<RowId> CollectIndexMatches(const PlanNode& plan,
                                       const rel::IndexEntry& entry) {
  std::vector<RowId> matches;
  if (plan.kind == PlanKind::kKeywordScan) {
    std::shared_lock<std::shared_mutex> lock(entry.latch);
    return entry.inverted->LookupAll(plan.keyword);
  }
  if (!plan.eq_key.empty()) {
    ProbeIndexEq(entry, plan.eq_key, &matches);
    return matches;
  }
  std::optional<rel::BTreeIndex::Bound> lo, hi;
  if (plan.lo.has_value()) {
    lo = rel::BTreeIndex::Bound{{*plan.lo}, plan.lo_inclusive};
  }
  if (plan.hi.has_value()) {
    hi = rel::BTreeIndex::Bound{{*plan.hi}, plan.hi_inclusive};
  }
  std::shared_lock<std::shared_mutex> lock(entry.latch);
  entry.btree->Scan(lo, hi,
                    [&](const CompositeKey&, const std::vector<RowId>& rows) {
                      matches.insert(matches.end(), rows.begin(), rows.end());
                      return true;
                    });
  return matches;
}

// The one visible-row fetch behind every index access: hands `visit` each
// tuple behind `rows` that is visible at `epoch` and passes `verify`.
// Rows with no visible version are skipped, not errors: the
// (single-version) index runs ahead of the snapshot. `visit` returns
// false to stop, and so does this.
template <typename Visit>
Result<bool> FetchVisible(const rel::Table& table,
                          const std::vector<RowId>& rows, uint64_t epoch,
                          const RowVerify& verify, Visit&& visit) {
  for (RowId row : rows) {
    auto tuple = table.Get(row, epoch);
    if (!tuple.ok()) {
      if (tuple.status().code() == common::StatusCode::kNotFound) continue;
      return tuple.status();
    }
    if (verify && !verify(**tuple)) continue;
    XQ_ASSIGN_OR_RETURN(bool more, visit(row, **tuple));
    if (!more) return false;
  }
  return true;
}

// Adds one materializing operator's holding, rows x width, to the
// sql.exec.values_materialized counter: once per operator execution.
void CountMaterialized(size_t rows, const rel::Schema& schema) {
  static common::Counter* values =
      common::MetricsRegistry::Global().GetCounter(
          "sql.exec.values_materialized");
  values->Inc(rows * schema.size());
}

// Morsel geometry: enough morsels that work stealing can balance skew
// (several per worker slot), each at least `min_rows` so the per-morsel
// bookkeeping stays amortized over real work.
size_t MorselSpan(size_t total, size_t degree, size_t min_rows) {
  size_t max_morsels = degree * 8;
  size_t span = (total + max_morsels - 1) / max_morsels;
  return std::max(span, std::max<size_t>(min_rows, 1));
}

}  // namespace

// ---------------------------------------------------------------------
// Batched pipeline.
// ---------------------------------------------------------------------

Status Executor::ExecuteBatched(const PlanNode& plan, const BatchSink& sink) {
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
  CountMaterialized(rows.size(), plan.schema);
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

struct Executor::MorselSlot {
  EvalScratch scratch;
  uint64_t rows = 0;  // rows produced; EXPLAIN ANALYZE's partitions=[...]
  uint64_t morsels = 0;
  uint64_t probes = 0;
  common::Deadline deadline;
  Status status;
  // Strided deadline probe for the body's row loop: one clock read every
  // 1024 calls.
  bool DeadlineHit() {
    return deadline.set() && (++probes & 1023) == 0 && deadline.expired();
  }
};

size_t Executor::NumMorsels(size_t total, size_t degree) const {
  size_t span = MorselSpan(total, degree, options_.morsel_rows);
  return (total + span - 1) / span;
}

Status Executor::RunMorsels(const PlanNode& plan, size_t total,
                            size_t degree, const MorselBody& body) {
  exec::MorselQueue morsels(total,
                            MorselSpan(total, degree, options_.morsel_rows));
  std::vector<MorselSlot> slots(degree);
  const common::Deadline deadline = options_.deadline;
  Pool()->ParallelFor(degree, [&](size_t w) {
    MorselSlot& slot = slots[w];
    slot.deadline = deadline;
    size_t mi, first, last;
    while (slot.status.ok() && morsels.Next(&mi, &first, &last)) {
      if (deadline.expired()) {
        slot.status = Status::Timeout("query deadline exceeded");
        break;
      }
      slot.status = body(slot, mi, first, last);
      ++slot.morsels;
    }
  });
  for (const MorselSlot& slot : slots) {
    if (!slot.status.ok()) {
      if (slot.status.code() == common::StatusCode::kTimeout) {
        deadline_hit_ = true;
      }
      return slot.status;
    }
  }
  if (options_.collect_stats) {
    plan.stats.partition_rows.clear();
    for (const MorselSlot& slot : slots) {
      plan.stats.partition_rows.push_back(slot.rows);
      plan.stats.morsels += slot.morsels;
    }
  }
  return Status::OK();
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
                           int64_t budget, const CompiledExpr* pred) {
  switch (plan.kind) {
    case PlanKind::kSeqScan:
    case PlanKind::kParallelSeqScan:
      return ExecScanB(plan, sink, budget, pred);
    case PlanKind::kIndexScan:
    case PlanKind::kKeywordScan:
      return ExecIndexScanB(plan, sink, budget, pred);
    case PlanKind::kFilter:
      return ExecFilterB(plan, sink);
    case PlanKind::kProject:
      return ExecProjectB(plan, sink, budget);
    case PlanKind::kNestedLoopJoin:
      return ExecNestedLoopJoinB(plan, sink, pred);
    case PlanKind::kHashJoin:
      return ExecHashJoinB(plan, sink, pred);
    case PlanKind::kIndexNLJoin:
      return ExecIndexNLJoinB(plan, sink, pred);
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
                           int64_t budget, const CompiledExpr* pred) {
  XQ_ASSIGN_OR_RETURN(const rel::Table* table, db_->GetTable(plan.table));
  const uint64_t epoch = options_.snapshot_epoch;
  const size_t slots = table->num_slots();
  // A ParallelSeqScan fans out only without a budget (a LIMIT bounds the
  // scan, and the serial loop keeps its touch-~limit-rows guarantee) and
  // when the pool admits two or more slots for the table's size.
  const bool parallel =
      plan.kind == PlanKind::kParallelSeqScan && budget < 0;
  const size_t degree = parallel ? EffectiveDegree(plan, slots) : 1;
  if (degree < 2) {
    BatchEmitter em(options_.batch_capacity, sink, budget);
    EvalScratch scratch;
    Status status;
    uint64_t emitted = 0;
    uint64_t rejected = 0;  // by the fused predicate
    table->Scan(epoch, [&](RowId row, const Tuple& tuple) {
      if (DeadlineHit()) return false;
      if (pred != nullptr) {
        auto pass = pred->Passes(tuple, &scratch);
        if (!pass.ok()) {
          status = pass.status();
          return false;
        }
        if (!*pass) {
          ++rejected;
          return true;
        }
      }
      ++emitted;
      return em.PushRef(&tuple, row);
    });
    XQ_RETURN_IF_ERROR(status);
    XQ_RETURN_IF_ERROR(DeadlineStatus());
    if (options_.collect_stats) {
      if (parallel) plan.stats.partition_rows.assign(1, emitted);
      if (pred != nullptr) plan.stats.rows_out += emitted + rejected;
    }
    em.Flush();
    return Status::OK();
  }

  // Morsel-parallel: slots buffer their output batches per morsel of
  // contiguous heap slots, and the morsels are emitted in index order,
  // which is exactly RowId order — byte-identical to the serial scan.
  std::vector<std::vector<RowBatch>> results(NumMorsels(slots, degree));
  std::atomic<uint64_t> visible{0};
  const size_t capacity = options_.batch_capacity;
  XQ_RETURN_IF_ERROR(RunMorsels(
      plan, slots, degree,
      [&](MorselSlot& slot, size_t mi, size_t first, size_t last) {
        Status status;
        uint64_t seen = 0;
        std::vector<RowBatch>& out = results[mi];
        RowBatch batch(capacity);
        table->ScanPartition(
            epoch, static_cast<RowId>(first), static_cast<RowId>(last),
            [&](RowId row, const Tuple& tuple) {
              if (slot.DeadlineHit()) {
                status = Status::Timeout("query deadline exceeded");
                return false;
              }
              ++seen;
              if (pred != nullptr) {
                auto pass = pred->Passes(tuple, &slot.scratch);
                if (!pass.ok()) {
                  status = pass.status();
                  return false;
                }
                if (!*pass) return true;
              }
              batch.AppendRef(&tuple, row);
              ++slot.rows;
              if (batch.full()) {
                out.push_back(std::move(batch));
                batch = RowBatch(capacity);
              }
              return true;
            });
        if (!batch.empty()) out.push_back(std::move(batch));
        visible.fetch_add(seen, std::memory_order_relaxed);
        return status;
      }));
  if (options_.collect_stats && pred != nullptr) {
    plan.stats.rows_out += visible.load(std::memory_order_relaxed);
  }
  for (auto& morsel_batches : results) {
    for (RowBatch& batch : morsel_batches) {
      if (!sink(batch)) return Status::OK();
    }
  }
  return Status::OK();
}

Status Executor::ExecIndexScanB(const PlanNode& plan, const BatchSink& sink,
                                int64_t budget, const CompiledExpr* pred) {
  XQ_ASSIGN_OR_RETURN(const rel::Table* table, db_->GetTable(plan.table));
  const rel::IndexEntry& entry = *plan.index;
  const uint64_t epoch = options_.snapshot_epoch;
  std::vector<RowId> matches = CollectIndexMatches(plan, entry);
  RowVerify verify = plan.kind == PlanKind::kKeywordScan
                         ? MakeKeywordVerify(entry, plan.keyword, epoch)
                     : plan.eq_key.empty()
                         ? MakeRangeVerify(entry, plan, epoch)
                         : MakeEqVerify(entry, plan.eq_key, epoch);
  BatchEmitter em(options_.batch_capacity, sink, budget);
  EvalScratch scratch;
  uint64_t produced = 0;  // rows fetched before the fused predicate
  XQ_ASSIGN_OR_RETURN(
      bool more,
      FetchVisible(*table, matches, epoch, verify,
                   [&](RowId row, const Tuple& tuple) -> Result<bool> {
                     if (DeadlineHit()) return DeadlineStatus();
                     ++produced;
                     if (pred != nullptr) {
                       XQ_ASSIGN_OR_RETURN(bool pass,
                                           pred->Passes(tuple, &scratch));
                       if (!pass) return true;
                     }
                     return em.PushRef(&tuple, row);
                   }));
  (void)more;
  if (options_.collect_stats && pred != nullptr) {
    plan.stats.rows_out += produced;
  }
  em.Flush();
  return Status::OK();
}

Status Executor::ExecFilterB(const PlanNode& plan, const BatchSink& sink) {
  const CompiledExpr& prog = *plan.predicate_prog;
  const PlanNode& child = *plan.children[0];
  // Execution-time fusion: the child runs with the predicate, so rejected
  // rows never enter a batch and rejected join pairs are never
  // concatenated. The plan tree (and its EXPLAIN rendering) is untouched;
  // the child is marked `fused` so EXPLAIN ANALYZE can say so.
  if (FusesFilter(child.kind)) {
    if (options_.collect_stats) child.stats.fused = true;
    return DispatchB(child, sink, /*budget=*/-1, &prog);
  }
  EvalScratch scratch;
  Status inner_status;
  XQ_RETURN_IF_ERROR(ExecB(
      child,
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
  std::vector<int> slots = SingleSlots(plan.project_progs);
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
                                     const CompiledExpr* pred) {
  XQ_ASSIGN_OR_RETURN(std::vector<Tuple> inner,
                      ExecuteToVector(*plan.children[1]));
  const CompiledExpr* on =
      plan.predicate_prog.has_value() ? &*plan.predicate_prog : nullptr;
  BatchEmitter em(options_.batch_capacity, sink, /*budget=*/-1);
  EvalScratch scratch;
  Status inner_status;
  // The join predicate, then any fused filter, on the (left, right) pair;
  // only passing pairs are materialized.
  auto pair_passes = [&](const Tuple& left,
                         const Tuple& right) -> Result<bool> {
    if (on != nullptr) {
      XQ_ASSIGN_OR_RETURN(bool pass, on->Passes(left, right, &scratch));
      if (!pass) return false;
    }
    if (pred == nullptr) return true;
    return pred->Passes(left, right, &scratch);
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
            auto pass = pair_passes(left, right);
            if (!pass.ok()) {
              inner_status = pass.status();
              return false;
            }
            if (!*pass) continue;
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
                               const CompiledExpr* pred) {
  // Build on the right child.
  XQ_ASSIGN_OR_RETURN(std::vector<Tuple> build,
                      ExecuteToVector(*plan.children[1]));
  std::vector<int> right_slots = SingleSlots(plan.right_key_progs);
  std::vector<int> left_slots = SingleSlots(plan.left_key_progs);
  using JoinTable =
      std::unordered_map<CompositeKey, std::vector<size_t>,
                         rel::CompositeKeyHasher, rel::CompositeKeyEq>;
  const size_t parts = EffectiveDegree(plan, build.size());
  std::vector<JoinTable> ht(parts);
  rel::CompositeKeyHasher part_hasher;
  if (parts == 1) {
    EvalScratch scratch;
    ht[0].reserve(build.size());
    for (size_t i = 0; i < build.size(); ++i) {
      if (DeadlineHit()) return DeadlineStatus();
      CompositeKey key;
      XQ_ASSIGN_OR_RETURN(bool joins,
                          EvalJoinKey(plan.right_key_progs, right_slots,
                                      build[i], &scratch, &key));
      if (joins) ht[0][std::move(key)].push_back(i);
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
    XQ_RETURN_IF_ERROR(RunMorsels(
        plan, build.size(), parts,
        [&](MorselSlot& slot, size_t, size_t first, size_t last) -> Status {
          for (size_t i = first; i < last; ++i) {
            if (slot.DeadlineHit()) {
              return Status::Timeout("query deadline exceeded");
            }
            XQ_ASSIGN_OR_RETURN(bool joins,
                                EvalJoinKey(plan.right_key_progs, right_slots,
                                            build[i], &slot.scratch,
                                            &keys[i]));
            if (joins) {
              hashes[i] = part_hasher(keys[i]);
            } else {
              null_key[i] = 1;
            }
          }
          slot.rows += last - first;
          return Status::OK();
        }));
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
  // Per-row probe shared by the streamed and the morsel paths: evaluates
  // the left key, finds the partition's matches, applies the fused filter,
  // and hands each joined row to `out`. False when `out` declined more.
  auto probe_row = [&](const Tuple& left, EvalScratch* scratch,
                       CompositeKey* probe, auto&& out) -> Result<bool> {
    XQ_ASSIGN_OR_RETURN(bool joins, EvalJoinKey(plan.left_key_progs,
                                                left_slots, left, scratch,
                                                probe));
    if (!joins) return true;
    const JoinTable& part =
        parts == 1 ? ht[0] : ht[part_hasher(*probe) % parts];
    auto it = part.find(*probe);
    if (it == part.end()) return true;
    for (size_t b : it->second) {
      if (pred != nullptr) {
        XQ_ASSIGN_OR_RETURN(bool pass, pred->Passes(left, build[b], scratch));
        if (!pass) continue;
      }
      if (!out(Concat(left, build[b]))) return false;
    }
    return true;
  };

  // The probe fans out only when the plan is annotated AND the pool has
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
            auto more = probe_row(batch.row(i), &scratch, &probe,
                                  [&](Tuple&& t) {
                                    return em.PushOwned(std::move(t));
                                  });
            if (!more.ok()) {
              inner_status = more.status();
              return false;
            }
            if (!*more) return false;
          }
          return true;
        },
        /*budget=*/-1));
    XQ_RETURN_IF_ERROR(inner_status);
    em.Flush();
    return Status::OK();
  }

  // Morsel probe over the materialized outer side: slots buffer their
  // joined rows per morsel, emitted in morsel order — the exact sequence
  // the streamed probe produces. Below the runtime row threshold it runs
  // on one slot, inline.
  XQ_ASSIGN_OR_RETURN(std::vector<Tuple> outer,
                      ExecuteToVector(*plan.children[0]));
  const size_t degree = EffectiveDegree(plan, outer.size());
  std::vector<std::vector<Tuple>> results(NumMorsels(outer.size(), degree));
  XQ_RETURN_IF_ERROR(RunMorsels(
      plan, outer.size(), degree,
      [&](MorselSlot& slot, size_t mi, size_t first, size_t last) -> Status {
        CompositeKey probe;
        std::vector<Tuple>& out = results[mi];
        for (size_t i = first; i < last; ++i) {
          if (slot.DeadlineHit()) {
            return Status::Timeout("query deadline exceeded");
          }
          XQ_RETURN_IF_ERROR(probe_row(outer[i], &slot.scratch, &probe,
                                       [&](Tuple&& t) {
                                         out.push_back(std::move(t));
                                         return true;
                                       })
                                 .status());
        }
        slot.rows += out.size();
        return Status::OK();
      }));
  for (auto& morsel_rows : results) {
    for (Tuple& t : morsel_rows) {
      if (!em.PushOwned(std::move(t))) return Status::OK();
    }
  }
  em.Flush();
  return Status::OK();
}

Status Executor::ExecIndexNLJoinB(const PlanNode& plan,
                                  const BatchSink& sink,
                                  const CompiledExpr* pred) {
  XQ_ASSIGN_OR_RETURN(const rel::Table* table, db_->GetTable(plan.table));
  const rel::IndexEntry& entry = *plan.index;
  const uint64_t epoch = options_.snapshot_epoch;
  BatchEmitter em(options_.batch_capacity, sink, /*budget=*/-1);
  EvalScratch scratch;
  Status inner_status;
  CompositeKey key;            // reused across rows
  std::vector<RowId> fetched;  // reused index-probe buffer
  std::vector<int> key_slots = SingleSlots(plan.outer_key_progs);
  auto join_row = [&](const Tuple& outer) -> Result<bool> {
    XQ_ASSIGN_OR_RETURN(bool joins, EvalJoinKey(plan.outer_key_progs,
                                                key_slots, outer, &scratch,
                                                &key));
    if (!joins) return true;
    // Coerce the probe key to the indexed column types so INT probes hit
    // TEXT-typed keys the way a filter comparison would.
    for (size_t k = 0; k < key.size(); ++k) {
      ValueType want = table->schema().column(entry.column_indexes[k]).type;
      if (key[k].type() != want) {
        auto cast = key[k].CastTo(want);
        if (cast.ok()) key[k] = std::move(*cast);
      }
    }
    ProbeIndexEq(entry, key, &fetched);
    return FetchVisible(
        *table, fetched, epoch, MakeEqVerify(entry, key, epoch),
        [&](RowId, const Tuple& inner) -> Result<bool> {
          if (pred != nullptr) {
            XQ_ASSIGN_OR_RETURN(bool pass,
                                pred->Passes(outer, inner, &scratch));
            if (!pass) return true;
          }
          return em.PushOwned(Concat(outer, inner));
        });
  };
  XQ_RETURN_IF_ERROR(ExecB(
      *plan.children[0],
      [&](RowBatch& batch) {
        for (size_t i = 0; i < batch.size(); ++i) {
          if (DeadlineHit()) {
            inner_status = DeadlineStatus();
            return false;
          }
          auto more = join_row(batch.row(i));
          if (!more.ok()) {
            inner_status = more.status();
            return false;
          }
          if (!*more) return false;
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
  BatchEmitter em(options_.batch_capacity, sink, /*budget=*/-1);
  const size_t n = rows.size();
  const size_t degree = EffectiveDegree(plan, n);
  if (degree < 2) {
    EvalScratch scratch;
    std::vector<std::pair<CompositeKey, size_t>> keyed;
    keyed.reserve(n);
    for (size_t i = 0; i < n; ++i) {
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
    for (const auto& [key, i] : keyed) {
      if (!em.PushRef(&rows[i], 0)) return Status::OK();
    }
    em.Flush();
    return Status::OK();
  }

  // Parallel sort: each slot evaluates keys and sorts the morsels it
  // steals; the driver then k-way-merges the per-morsel runs. Both stages
  // use one TOTAL order — sort keys, then original input index ascending —
  // which is exactly the sequence stable_sort yields (equal-key rows in
  // input order), so the merged output is byte-identical to serial.
  std::vector<CompositeKey> keys(n);
  auto row_less = [&](size_t a, size_t b) {
    for (size_t k = 0; k < plan.sort_keys.size(); ++k) {
      int c = Value::Compare(keys[a][k], keys[b][k]);
      if (c != 0) return plan.sort_keys[k].desc ? c > 0 : c < 0;
    }
    return a < b;
  };
  std::vector<std::vector<size_t>> runs(NumMorsels(n, degree));
  XQ_RETURN_IF_ERROR(RunMorsels(
      plan, n, degree,
      [&](MorselSlot& slot, size_t mi, size_t first, size_t last) -> Status {
        std::vector<size_t> run;
        run.reserve(last - first);
        for (size_t i = first; i < last; ++i) {
          for (size_t j = 0; j < plan.sort_key_progs.size(); ++j) {
            XQ_ASSIGN_OR_RETURN(const Value* v,
                                EvalKey(plan.sort_key_progs[j], key_slots[j],
                                        rows[i], &slot.scratch));
            keys[i].push_back(*v);
          }
          run.push_back(i);
        }
        std::sort(run.begin(), run.end(), row_less);
        runs[mi] = std::move(run);
        slot.rows += last - first;
        return Status::OK();
      }));
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
  CountMaterialized(keys.size(), plan.schema);
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
  // Streams: a row passes the first time its value is seen, so the output
  // keeps first-seen order.
  std::unordered_set<CompositeKey, rel::CompositeKeyHasher,
                     rel::CompositeKeyEq>
      seen;
  Status status = ExecB(
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
  CountMaterialized(seen.size(), plan.schema);
  return status;
}

}  // namespace xomatiq::sql
