#ifndef XOMATIQ_RELATIONAL_DATABASE_H_
#define XOMATIQ_RELATIONAL_DATABASE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "relational/btree_index.h"
#include "relational/hash_index.h"
#include "relational/inverted_index.h"
#include "relational/snapshot.h"
#include "relational/stats.h"
#include "relational/table.h"
#include "relational/wal.h"

namespace xomatiq::rel {

class BinaryReader;
class BinaryWriter;

enum class IndexKind : uint8_t {
  kBTree = 0,    // ordered; equality, range and prefix scans
  kHash = 1,     // equality only
  kInverted = 2, // keyword postings over one TEXT column
};

std::string_view IndexKindName(IndexKind kind);

// Declarative index description (persisted in snapshots / WAL).
struct IndexDef {
  std::string name;
  std::string table;
  std::vector<std::string> columns;  // exactly one for kInverted
  IndexKind kind = IndexKind::kBTree;
  bool unique = false;  // enforced for kBTree / kHash
};

// A built index attached to a table. Unlike the heap (versioned, latch
// free), index structures are single-version: `latch` serializes probes
// against maintenance — writers take it exclusive per index operation,
// snapshot readers take it shared per probe and re-check both visibility
// and the probed predicate against the heap tuple (an index only knows
// the latest keys; see DESIGN.md "Concurrency & snapshots").
struct IndexEntry {
  IndexDef def;
  std::vector<size_t> column_indexes;
  std::unique_ptr<BTreeIndex> btree;
  std::unique_ptr<HashIndex> hash;
  std::unique_ptr<InvertedIndex> inverted;
  mutable std::shared_mutex latch;
};

// Embedded relational database: catalog of heap tables plus secondary
// indexes, with write-ahead logging and snapshot checkpointing when opened
// against a directory.
//
// Concurrency model (MVCC-lite; see DESIGN.md "Concurrency & snapshots"):
//
//   - Writers serialize among THEMSELVES on latch(), the write latch.
//     Take it through rel::WriteGuard, which publishes the batch's epoch
//     on release: every row stamped inside one guard becomes visible to
//     new snapshots atomically. The database's own mutators deliberately
//     do NOT acquire the latch — composite operations (a warehouse sync
//     issuing thousands of Inserts, the engine running one DML
//     statement) must share ONE guard so they commit as one batch.
//     Convenience: a mutator called with no guard active commits itself
//     as a single-op batch, so single-threaded embedded use needs no
//     locking at all.
//   - Readers never touch latch(). BeginSnapshot() pins a committed
//     epoch; all reads made at that epoch (Table::Get/Scan, executor,
//     index probes) are latch-free and see a consistent cut, fully
//     concurrent with any writer.
//   - Catalog-shape DDL additionally waits on the snapshot barrier (all
//     live snapshots released) before mutating the table/index catalog,
//     so a snapshot's Table*/IndexEntry* pointers stay valid for its
//     lifetime.
//   - Superseded versions are reclaimed on guard release once no live
//     snapshot can see them (low-water mark over the snapshot registry);
//     the actual frees are deferred one step further so readers already
//     inside a chain are never pulled down.
class Database {
 public:
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  struct DbOptions {
    WalOptions wal;
  };

  // Volatile database (no WAL, no snapshots).
  static std::unique_ptr<Database> OpenInMemory();

  // Durable database rooted at directory `dir` (created if missing).
  // Recovers state from `dir`/snapshot.db plus `dir`/wal.log; a torn or
  // corrupt WAL tail is discarded (counted in rel.wal.torn_tail_discarded
  // and reflected by recovered_torn_tail()). Fault-injection points:
  // db.recovery.record (per replayed record), db.snapshot.write,
  // db.snapshot.rename. The WAL carries no epochs: recovery stamps every
  // restored row with epoch 1 and opens at committed epoch 1, so a
  // snapshot taken right after Open sees exactly the recovered state.
  static common::Result<std::unique_ptr<Database>> Open(
      const std::string& dir, DbOptions options = {});

  // --- DDL (each op takes the snapshot barrier internally and, like DML,
  // publishes an epoch with its batch) ---
  common::Status CreateTable(const std::string& name, Schema schema);
  common::Status DropTable(const std::string& name);
  common::Status CreateIndex(const IndexDef& def);
  common::Status DropIndex(const std::string& index_name);

  // --- DML (index-maintaining, logged) ---
  common::Result<RowId> Insert(const std::string& table, Tuple tuple);
  common::Status Delete(const std::string& table, RowId row);
  common::Status Update(const std::string& table, RowId row, Tuple tuple);

  // --- lookup ---
  common::Result<Table*> GetTable(const std::string& name);
  common::Result<const Table*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const {
    return tables_.count(name) > 0;
  }
  std::vector<std::string> TableNames() const;

  // Indexes attached to `table` (empty when table unknown).
  const std::vector<std::unique_ptr<IndexEntry>>* IndexesOn(
      const std::string& table) const;

  // Finds an index on `table` whose column list starts with `columns`
  // (exact order) and matches `kind`; nullptr when absent.
  const IndexEntry* FindIndex(const std::string& table,
                              const std::vector<std::string>& columns,
                              IndexKind kind) const;
  const IndexEntry* FindIndexByName(const std::string& index_name) const;

  // --- statistics (cost-based planning) ---
  // Collects per-table row counts and per-column NDV / min-max /
  // null-fraction sketches with one full scan, stores them in the catalog
  // and logs them to the WAL (they survive restarts like any other catalog
  // state). Resets the table's staleness counter.
  common::Status Analyze(const std::string& table);

  // Catalog statistics for `table`; nullptr when never analyzed (or the
  // table is unknown). Returns a shared handle: the sketch stays valid
  // for as long as the caller holds it, even across a concurrent
  // re-ANALYZE (the planner reads stats latch-free).
  std::shared_ptr<const TableStats> StatsFor(const std::string& table) const;

  // Rows inserted/deleted/updated since the last ANALYZE of `table`
  // (0 when never analyzed — staleness is moot without stats).
  uint64_t MutationsSinceAnalyze(const std::string& table) const;

  // --- durability ---
  // Writes a full snapshot and truncates the WAL. No-op for in-memory DBs.
  common::Status Checkpoint();

  bool durable() const { return wal_ != nullptr; }
  uint64_t wal_bytes() const { return wal_ ? wal_->bytes_written() : 0; }
  size_t records_recovered() const { return records_recovered_; }
  // True when Open discarded a torn/corrupt WAL tail during recovery.
  bool recovered_torn_tail() const { return recovered_torn_tail_; }

  // --- log sequence numbers (replication) ---
  // Every logged record carries a monotonic LSN; recovery restores the
  // counter to (snapshot base + records replayed), so numbering is stable
  // across restarts and checkpoints. Under the apply-then-log discipline
  // the two views coincide by construction: a record is applied and made
  // durable inside one exclusive latch acquisition.
  //
  // LSN of the last record applied to the in-memory state. On a replica
  // this is the replication position to resume from.
  uint64_t applied_lsn() const {
    return last_lsn_.load(std::memory_order_acquire);
  }
  // LSN of the last record made durable in the local WAL (for volatile
  // databases the in-memory apply is the commit point, so the same
  // counter serves).
  uint64_t durable_lsn() const {
    return last_lsn_.load(std::memory_order_acquire);
  }
  // LSN of the last record whose write batch has PUBLISHED its epoch:
  // a snapshot taken after observing committed_lsn() >= L sees every
  // record up to L. Read-your-writes gates (QueryOptions::min_lsn) must
  // wait on this, not applied_lsn(), because applied_lsn advances
  // mid-batch before the rows are snapshot-visible.
  uint64_t committed_lsn() const {
    return committed_lsn_.load(std::memory_order_acquire);
  }

  // --- epochs & snapshots (MVCC-lite) ---
  // Epoch of the last published write batch. Rows are visible at epoch E
  // when insert_epoch <= E < delete_epoch; a write batch stamps its rows
  // with committed_epoch()+1 and publishes on WriteGuard release.
  uint64_t committed_epoch() const {
    return committed_epoch_.load(std::memory_order_acquire);
  }
  // Pins the current committed epoch for reading; see rel::Snapshot.
  Snapshot BeginSnapshot() const;
  // Epoch that in-flight writes stamp (committed_epoch()+1). Writer
  // context only (guard held); exposed for Table-level callers.
  uint64_t write_epoch() const { return committed_epoch() + 1; }
  // Superseded-but-unreclaimed version count across all tables plus
  // retired-but-unfreed chains (the rel.mvcc.garbage_versions gauge).
  uint64_t garbage_versions() const;

  // Observer for freshly logged records, invoked as (lsn, payload) after
  // each successful Log while the writer still holds the statement latch
  // exclusively. The sink must be cheap and non-blocking (the replication
  // server's sink copies the record into its ring and signals a condvar);
  // it must not call back into the database. Pass nullptr to detach.
  using WalSink = std::function<void(uint64_t, std::string_view)>;
  void SetWalSink(WalSink sink) { wal_sink_ = std::move(sink); }

  // --- replication (caller holds a WriteGuard) ---
  // Serialized full state (same body a snapshot stores, including the
  // current LSN) for bootstrapping a cold replica. Caller holds latch()
  // at least shared, which blocks writers, so the body is a consistent
  // cut at exactly applied_lsn().
  std::string EncodeState() const;

  // Replaces this database's entire state with a primary's EncodeState()
  // body; returns the embedded base LSN. Waits on the snapshot barrier
  // (catalog surgery). Durable replicas checkpoint immediately so a
  // restart resumes from the installed state instead of a stale local
  // snapshot. On failure the catalog may be left empty — the applier
  // discards the connection and re-bootstraps.
  common::Result<uint64_t> InstallReplicaState(std::string_view state_body);

  // Applies one shipped WAL record, which must carry exactly
  // applied_lsn() + 1 (gaps mean a broken stream and return Corruption).
  // The record is re-logged to the local WAL, so a replica's directory
  // recovers like a primary's.
  common::Status ApplyReplicated(uint64_t lsn, std::string_view payload);

  // --- concurrency ---
  // The WRITE latch: serializes mutators (and EncodeState, which takes it
  // shared to fence writers). Readers never acquire it — take
  // BeginSnapshot() instead. Prefer rel::WriteGuard over locking this
  // directly; a bare unique_lock will not publish the batch epoch.
  std::shared_mutex& latch() const { return latch_; }

  // --- observability ---
  // Point-in-time copy of the process metrics registry (engine counters,
  // WAL/index/recovery counters, stage latency histograms). The registry
  // is process-global; this accessor is the stable API surface callers
  // and benches go through.
  static common::MetricsSnapshot MetricsSnapshot();

 private:
  friend class Snapshot;
  friend class WriteGuard;

  struct TableInfo {
    std::unique_ptr<Table> table;
    std::vector<std::unique_ptr<IndexEntry>> indexes;
    // ANALYZE output (guarded by stats_mu_); null until first analyzed.
    std::shared_ptr<const TableStats> stats;
    // Mutations applied since `stats` was collected; the planner treats
    // stats as stale past a threshold and falls back to rule-based plans.
    // Atomic: the planner reads it without the write latch.
    std::atomic<uint64_t> mutations_since_analyze{0};
  };

  // Versions unlinked by one reclamation pass, freed once every snapshot
  // registered at unlink time is gone (min live epoch > retire_epoch).
  struct RetiredVersions {
    uint64_t retire_epoch = 0;
    uint64_t count = 0;
    std::vector<RowVersion*> chains;
  };

  Database() = default;

  common::Status CreateTableInternal(const std::string& name, Schema schema);
  common::Status DropTableInternal(const std::string& name);
  common::Status CreateIndexInternal(const IndexDef& def);
  common::Status DropIndexInternal(const std::string& index_name);
  common::Result<RowId> InsertInternal(const std::string& table, Tuple tuple);
  common::Status DeleteInternal(const std::string& table, RowId row);
  common::Status UpdateInternal(const std::string& table, RowId row,
                                Tuple tuple);
  common::Status SetStatsInternal(const std::string& table, TableStats stats);

  common::Status Log(std::string_view payload);
  common::Status ReplayRecord(std::string_view payload);
  common::Status LoadSnapshot(const std::string& path);
  common::Status WriteSnapshot(const std::string& path) const;
  // Shared body serde: snapshots and replication bootstrap use one
  // format, a leading u64 base LSN (into *base_lsn) and then the tables.
  void EncodeStateBody(BinaryWriter* body) const;
  common::Status DecodeStateBody(BinaryReader* r, uint64_t* base_lsn);
  void PublishLsn(uint64_t lsn);

  // Snapshot registry (Snapshot ctor/dtor).
  void ReleaseSnapshot(uint64_t epoch) const;
  // Marks the in-flight batch dirty (rows were stamped at write_epoch(),
  // or the catalog changed): its release publishes a new epoch.
  void MarkDirty() { batch_dirty_ = true; }
  // Publishes the in-flight epoch (if dirty) and runs reclamation when
  // the garbage threshold is crossed. Called by WriteGuard on release and
  // by guard-less public mutators (single-op batches).
  void FinishWriteBatch();
  // Unlinks reclaimable versions (under snap_mu_, so later snapshot
  // registrations order after the unlink stores) and frees retired
  // batches whose pinning snapshots are all gone.
  void ReclaimVersions();

  static common::Status BuildIndex(const Table& table, IndexEntry* entry);
  common::Status IndexInsert(TableInfo* info, RowId row, const Tuple& tuple);

  // Index keys of a superseded/deleted row version. Indexes are not
  // versioned, so an entry must outlive the version it points at: erasing
  // it eagerly would make index-driven plans miss rows that are still
  // visible to a pinned snapshot (the heap re-check in the executor
  // filters the other direction — entries whose row is gone at the read
  // epoch). Erasure is deferred to ReclaimVersions, once no snapshot at
  // or below retire_epoch is live.
  struct RetiredIndexKeys {
    std::string table;
    RowId row = 0;
    Tuple tuple;  // the retired version's values (keys re-extracted)
    uint64_t retire_epoch = 0;
  };
  // Erases `e`'s keys from its table's indexes, per-index skipping keys
  // the row's current live version still owns (an A->B->A value cycle
  // must not drop the live entry; for inverted indexes the guard is
  // token-granular).
  void EraseRetiredIndexKeys(const RetiredIndexKeys& e);

  mutable std::shared_mutex latch_;
  // Snapshot barrier: snapshots hold it shared for their lifetime,
  // catalog-shape DDL takes it exclusive while already holding latch_.
  // The order latch_ -> ddl_latch_ cannot cycle as long as no thread
  // holding a snapshot then takes latch_: a thread that opens a
  // rel::WriteGuard under its own live Snapshot would deadlock DDL on
  // itself, so SqlEngine refuses every write statement whose request
  // carries a read_epoch (the token of a held snapshot). std::shared_mutex
  // may hold new readers back while a writer waits, so long snapshots
  // delay DDL but not each other.
  mutable std::shared_mutex ddl_latch_;
  // Registry of live snapshot epochs; min() is reclamation's low-water
  // mark. Guarded by snap_mu_, which doubles as the happens-before edge
  // between an unlink pass and any snapshot registered after it.
  mutable std::mutex snap_mu_;
  mutable std::multiset<uint64_t> live_snapshots_;
  // Guards TableInfo::stats handles (planner reads without the latch).
  mutable std::mutex stats_mu_;

  std::map<std::string, TableInfo> tables_;
  std::string dir_;
  std::unique_ptr<WriteAheadLog> wal_;
  size_t records_recovered_ = 0;
  bool recovered_torn_tail_ = false;
  bool replaying_ = false;
  // Atomic so the service layer can stamp responses with the commit LSN
  // without taking the latch; mutations happen under the exclusive latch.
  std::atomic<uint64_t> last_lsn_{0};
  std::atomic<uint64_t> committed_lsn_{0};
  std::atomic<uint64_t> committed_epoch_{0};
  // Writer-context batch state (guarded by latch_).
  bool batch_dirty_ = false;
  int guard_depth_ = 0;
  std::vector<RetiredVersions> retired_;
  std::atomic<uint64_t> retired_count_{0};
  // Index entries of retired versions awaiting erase (writer context,
  // guarded by latch_ like the batch state above).
  std::vector<RetiredIndexKeys> retired_index_;
  WalSink wal_sink_;
};

// RAII write batch: exclusive write latch for its lifetime; on release
// publishes the batch's epoch (making every row stamped inside visible to
// new snapshots atomically), triggers version reclamation when due, and
// only THEN runs callbacks queued with Defer() — after the latch is
// dropped, so deferred work (change-event fan-out) may issue queries or
// re-enter the database without deadlocking.
class WriteGuard {
 public:
  explicit WriteGuard(Database* db) : db_(db), lock_(db->latch_) {
    ++db_->guard_depth_;
  }
  ~WriteGuard() {
    --db_->guard_depth_;
    if (db_->guard_depth_ == 0) db_->FinishWriteBatch();
    lock_.unlock();
    for (auto& fn : deferred_) fn();
  }

  WriteGuard(const WriteGuard&) = delete;
  WriteGuard& operator=(const WriteGuard&) = delete;

  Database* db() { return db_; }
  // Queues `fn` to run after the epoch is published and the latch
  // released, in queue order.
  void Defer(std::function<void()> fn) { deferred_.push_back(std::move(fn)); }

 private:
  Database* db_;
  std::unique_lock<std::shared_mutex> lock_;
  std::vector<std::function<void()>> deferred_;
};

}  // namespace xomatiq::rel

#endif  // XOMATIQ_RELATIONAL_DATABASE_H_
