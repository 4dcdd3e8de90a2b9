#include "relational/database.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "relational/serde.h"

namespace xomatiq::rel {

using common::Result;
using common::Status;

namespace {

// WAL / snapshot record tags.
enum class Op : uint8_t {
  kCreateTable = 1,
  kDropTable = 2,
  kCreateIndex = 3,
  kDropIndex = 4,
  kInsert = 5,
  kDelete = 6,
  kUpdate = 7,
  kSetStats = 8,
};

bool IsDdlOp(uint8_t tag) {
  return tag >= static_cast<uint8_t>(Op::kCreateTable) &&
         tag <= static_cast<uint8_t>(Op::kDropIndex);
}

// The snapshot body opens with its base LSN.
constexpr char kSnapshotMagic[] = "XQSNAP2";
constexpr char kSnapshotFile[] = "snapshot.db";
constexpr char kWalFile[] = "wal.log";

void EncodeIndexDef(const IndexDef& def, BinaryWriter* w) {
  w->PutString(def.name);
  w->PutString(def.table);
  w->PutU32(static_cast<uint32_t>(def.columns.size()));
  for (const std::string& c : def.columns) w->PutString(c);
  w->PutU8(static_cast<uint8_t>(def.kind));
  w->PutU8(def.unique ? 1 : 0);
}

Result<IndexDef> DecodeIndexDef(BinaryReader* r) {
  IndexDef def;
  XQ_ASSIGN_OR_RETURN(def.name, r->GetString());
  XQ_ASSIGN_OR_RETURN(def.table, r->GetString());
  XQ_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  for (uint32_t i = 0; i < n; ++i) {
    XQ_ASSIGN_OR_RETURN(std::string c, r->GetString());
    def.columns.push_back(std::move(c));
  }
  XQ_ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
  if (kind > static_cast<uint8_t>(IndexKind::kInverted)) {
    return Status::Corruption("bad index kind");
  }
  def.kind = static_cast<IndexKind>(kind);
  XQ_ASSIGN_OR_RETURN(uint8_t unique, r->GetU8());
  def.unique = unique != 0;
  return def;
}

// Extracts the index key for `entry` from `tuple`. Returns false when any
// key part is NULL (NULL keys are not indexed, as in Oracle).
bool ExtractKey(const IndexEntry& entry, const Tuple& tuple,
                CompositeKey* key) {
  key->clear();
  for (size_t idx : entry.column_indexes) {
    if (tuple[idx].is_null()) return false;
    key->push_back(tuple[idx]);
  }
  return true;
}

common::Gauge* GarbageGauge() {
  static common::Gauge* g =
      common::MetricsRegistry::Global().GetGauge("rel.mvcc.garbage_versions");
  return g;
}

}  // namespace

std::string_view IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kBTree:
      return "BTREE";
    case IndexKind::kHash:
      return "HASH";
    case IndexKind::kInverted:
      return "INVERTED";
  }
  return "?";
}

Database::~Database() {
  for (RetiredVersions& batch : retired_) {
    for (RowVersion* chain : batch.chains) Table::FreeChain(chain);
  }
}

std::unique_ptr<Database> Database::OpenInMemory() {
  return std::unique_ptr<Database>(new Database());
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& dir,
                                                DbOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create database directory " + dir + ": " +
                           ec.message());
  }
  std::unique_ptr<Database> db(new Database());
  db->dir_ = dir;
  std::string snapshot_path = dir + "/" + kSnapshotFile;
  if (std::filesystem::exists(snapshot_path)) {
    XQ_RETURN_IF_ERROR(db->LoadSnapshot(snapshot_path));
  }
  db->replaying_ = true;
  common::ScopedLatency replay_timer(
      common::MetricsRegistry::Global().GetHistogram("rel.recovery.replay"));
  bool truncated_tail = false;
  auto replayed = WriteAheadLog::Replay(
      dir + "/" + kWalFile,
      [&](std::string_view payload) {
        XQ_FAULT_POINT("db.recovery.record");
        return db->ReplayRecord(payload);
      },
      &truncated_tail);
  replay_timer.Stop();
  db->replaying_ = false;
  if (!replayed.ok()) return replayed.status();
  db->records_recovered_ = *replayed;
  db->recovered_torn_tail_ = truncated_tail;
  common::MetricsRegistry::Global()
      .GetCounter("rel.recovery.records")
      ->Inc(*replayed);
  // LSNs are positional: record N of the WAL carries snapshot base + N,
  // so recovery lands the counter exactly where the crashed process left
  // it (minus any discarded torn tail, which was never acknowledged).
  db->PublishLsn(db->last_lsn_.load(std::memory_order_relaxed) + *replayed);
  XQ_ASSIGN_OR_RETURN(db->wal_,
                      WriteAheadLog::Open(dir + "/" + kWalFile, options.wal));
  db->wal_->set_next_lsn(db->last_lsn_.load(std::memory_order_relaxed) + 1);
  // Recovery stamped every restored/replayed row with epoch 1 (the WAL
  // carries no epochs); publish it so the first snapshot sees the full
  // recovered state. A row inserted and later deleted during replay ends
  // up (insert=1, delete=1): visible nowhere, exactly as before the crash.
  db->committed_epoch_.store(1, std::memory_order_release);
  // Replayed deletes/updates queued deferred index erases; no snapshot
  // can exist yet, so flush them now — the indexes reopen exactly as
  // tight as an eager-erase build.
  for (const RetiredIndexKeys& e : db->retired_index_) {
    db->EraseRetiredIndexKeys(e);
  }
  db->retired_index_.clear();
  db->batch_dirty_ = false;
  db->committed_lsn_.store(db->last_lsn_.load(std::memory_order_relaxed),
                           std::memory_order_release);
  return db;
}

void Database::PublishLsn(uint64_t lsn) {
  last_lsn_.store(lsn, std::memory_order_release);
  static common::Gauge* durable_gauge =
      common::MetricsRegistry::Global().GetGauge("rel.wal.durable_lsn");
  static common::Gauge* applied_gauge =
      common::MetricsRegistry::Global().GetGauge("rel.wal.applied_lsn");
  durable_gauge->Set(static_cast<int64_t>(lsn));
  applied_gauge->Set(static_cast<int64_t>(lsn));
}

Status Database::Log(std::string_view payload) {
  if (replaying_) return Status::OK();
  if (wal_ != nullptr) {
    XQ_RETURN_IF_ERROR(wal_->Append(payload));
    PublishLsn(wal_->last_lsn());
  } else {
    // Volatile database: the in-memory apply is the commit point, so the
    // LSN advances here (replication from an in-memory primary works).
    PublishLsn(last_lsn_.load(std::memory_order_relaxed) + 1);
  }
  if (wal_sink_) {
    wal_sink_(last_lsn_.load(std::memory_order_relaxed), payload);
  }
  return Status::OK();
}

common::MetricsSnapshot Database::MetricsSnapshot() {
  return common::MetricsRegistry::Global().Snapshot();
}

// --- epochs & snapshots ------------------------------------------------

Snapshot Database::BeginSnapshot() const {
  // Barrier first, registry second: once the shared DDL hold is in place
  // no catalog surgery can run, and the epoch read under snap_mu_ is the
  // one reclamation will respect as its low-water mark.
  ddl_latch_.lock_shared();
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> reg(snap_mu_);
    epoch = committed_epoch_.load(std::memory_order_acquire);
    live_snapshots_.insert(epoch);
  }
  static common::Counter* begun =
      common::MetricsRegistry::Global().GetCounter("rel.mvcc.snapshots");
  begun->Inc();
  return Snapshot(this, epoch);
}

void Database::ReleaseSnapshot(uint64_t epoch) const {
  {
    std::lock_guard<std::mutex> reg(snap_mu_);
    auto it = live_snapshots_.find(epoch);
    if (it != live_snapshots_.end()) live_snapshots_.erase(it);
  }
  ddl_latch_.unlock_shared();
}

void Snapshot::Release() {
  if (db_ != nullptr) {
    db_->ReleaseSnapshot(epoch_);
    db_ = nullptr;
  }
}

uint64_t Database::garbage_versions() const {
  uint64_t total = retired_count_.load(std::memory_order_acquire);
  for (const auto& [name, info] : tables_) {
    total += info.table->garbage_versions();
  }
  return total;
}

void Database::FinishWriteBatch() {
  if (batch_dirty_) {
    batch_dirty_ = false;
    committed_epoch_.fetch_add(1, std::memory_order_release);
    static common::Counter* epochs =
        common::MetricsRegistry::Global().GetCounter("rel.mvcc.epochs");
    epochs->Inc();
    bool reclaim_due = retired_count_.load(std::memory_order_relaxed) > 0 ||
                       !retired_index_.empty();
    if (!reclaim_due) {
      for (const auto& [name, info] : tables_) {
        uint64_t threshold =
            std::max<uint64_t>(256, info.table->num_slots() / 8);
        if (info.table->garbage_versions() >= threshold) {
          reclaim_due = true;
          break;
        }
      }
    }
    if (reclaim_due) ReclaimVersions();
    GarbageGauge()->Set(static_cast<int64_t>(garbage_versions()));
  }
  // Published AFTER the epoch: a waiter that observes committed_lsn() >= L
  // and then begins a snapshot is guaranteed to see record L's rows.
  committed_lsn_.store(last_lsn_.load(std::memory_order_relaxed),
                       std::memory_order_release);
}

void Database::ReclaimVersions() {
  // snap_mu_ held across the unlink stores: a snapshot registered after
  // this pass synchronizes-with it and can only observe the cut chains;
  // snapshots registered before are in the registry, so either their
  // epoch holds the low-water mark down or (epoch >= low_water) the
  // traversal invariant keeps them above the cut. Freeing is deferred
  // until every snapshot from before the pass is gone.
  std::lock_guard<std::mutex> reg(snap_mu_);
  uint64_t committed = committed_epoch_.load(std::memory_order_relaxed);
  uint64_t low_water =
      live_snapshots_.empty() ? committed : *live_snapshots_.begin();
  RetiredVersions batch;
  batch.retire_epoch = committed;
  for (auto& [name, info] : tables_) {
    if (info.table->garbage_versions() == 0) continue;
    batch.count += info.table->ReclaimSlots(low_water, &batch.chains);
  }
  static common::Counter* passes =
      common::MetricsRegistry::Global().GetCounter("rel.mvcc.reclaim_passes");
  passes->Inc();
  if (batch.count > 0) {
    retired_count_.fetch_add(batch.count, std::memory_order_release);
    retired_.push_back(std::move(batch));
  }
  // Free retired batches no live snapshot can still be inside: every
  // snapshot registered before the batch's unlink pass had epoch <=
  // retire_epoch, so min live epoch > retire_epoch proves they are gone.
  uint64_t min_live =
      live_snapshots_.empty() ? kEpochMax : *live_snapshots_.begin();
  uint64_t freed = 0;
  auto keep = retired_.begin();
  for (auto it = retired_.begin(); it != retired_.end(); ++it) {
    if (it->retire_epoch < min_live) {
      for (RowVersion* chain : it->chains) Table::FreeChain(chain);
      freed += it->count;
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  retired_.erase(keep, retired_.end());
  // Erase index entries of retired versions no snapshot can still read:
  // a version retired at epoch e is invisible at every epoch >= e, so
  // low_water >= e (and new snapshots pinning >= committed >= e) proves
  // no index-driven plan needs its entry anymore.
  auto kept_idx = retired_index_.begin();
  for (auto it = retired_index_.begin(); it != retired_index_.end(); ++it) {
    if (it->retire_epoch <= low_water) {
      EraseRetiredIndexKeys(*it);
    } else {
      if (kept_idx != it) *kept_idx = std::move(*it);
      ++kept_idx;
    }
  }
  retired_index_.erase(kept_idx, retired_index_.end());
  if (freed > 0) {
    retired_count_.fetch_sub(freed, std::memory_order_release);
    static common::Counter* reclaimed =
        common::MetricsRegistry::Global().GetCounter(
            "rel.mvcc.reclaimed_versions");
    reclaimed->Inc(freed);
  }
}

// --- DDL -------------------------------------------------------------

Status Database::CreateTable(const std::string& name, Schema schema) {
  {
    std::unique_lock<std::shared_mutex> barrier(ddl_latch_);
    XQ_RETURN_IF_ERROR(CreateTableInternal(name, schema));
  }
  MarkDirty();
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(Op::kCreateTable));
  w.PutString(name);
  EncodeSchema(schema, &w);
  XQ_RETURN_IF_ERROR(Log(w.buffer()));
  if (guard_depth_ == 0) FinishWriteBatch();
  return Status::OK();
}

Status Database::CreateTableInternal(const std::string& name, Schema schema) {
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  if (schema.size() == 0) {
    return Status::InvalidArgument("table needs at least one column: " + name);
  }
  // TableInfo is pinned in the map (atomic member: not movable), so it is
  // built in place.
  TableInfo& info = tables_[name];
  info.table = std::make_unique<Table>(name, std::move(schema));
  return Status::OK();
}

Status Database::DropTable(const std::string& name) {
  {
    std::unique_lock<std::shared_mutex> barrier(ddl_latch_);
    XQ_RETURN_IF_ERROR(DropTableInternal(name));
  }
  MarkDirty();
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(Op::kDropTable));
  w.PutString(name);
  XQ_RETURN_IF_ERROR(Log(w.buffer()));
  if (guard_depth_ == 0) FinishWriteBatch();
  return Status::OK();
}

Status Database::DropTableInternal(const std::string& name) {
  if (tables_.erase(name) == 0) {
    return Status::NotFound("no such table: " + name);
  }
  // Pending deferred index erases for this table are void — and must not
  // fire against a later table of the same name.
  retired_index_.erase(
      std::remove_if(retired_index_.begin(), retired_index_.end(),
                     [&](const RetiredIndexKeys& e) { return e.table == name; }),
      retired_index_.end());
  return Status::OK();
}

Status Database::CreateIndex(const IndexDef& def) {
  {
    std::unique_lock<std::shared_mutex> barrier(ddl_latch_);
    XQ_RETURN_IF_ERROR(CreateIndexInternal(def));
  }
  MarkDirty();
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(Op::kCreateIndex));
  EncodeIndexDef(def, &w);
  XQ_RETURN_IF_ERROR(Log(w.buffer()));
  if (guard_depth_ == 0) FinishWriteBatch();
  return Status::OK();
}

Status Database::CreateIndexInternal(const IndexDef& def) {
  auto it = tables_.find(def.table);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + def.table);
  }
  if (FindIndexByName(def.name) != nullptr) {
    return Status::AlreadyExists("index exists: " + def.name);
  }
  if (def.columns.empty()) {
    return Status::InvalidArgument("index needs columns: " + def.name);
  }
  if (def.kind == IndexKind::kInverted && def.columns.size() != 1) {
    return Status::InvalidArgument(
        "inverted index takes exactly one column: " + def.name);
  }
  auto entry = std::make_unique<IndexEntry>();
  entry->def = def;
  const Schema& schema = it->second.table->schema();
  for (const std::string& col : def.columns) {
    XQ_ASSIGN_OR_RETURN(size_t idx, schema.ResolveColumn(col));
    if (def.kind == IndexKind::kInverted &&
        schema.column(idx).type != ValueType::kText) {
      return Status::InvalidArgument("inverted index column must be TEXT: " +
                                     col);
    }
    entry->column_indexes.push_back(idx);
  }
  switch (def.kind) {
    case IndexKind::kBTree:
      entry->btree = std::make_unique<BTreeIndex>();
      break;
    case IndexKind::kHash:
      entry->hash = std::make_unique<HashIndex>();
      break;
    case IndexKind::kInverted:
      entry->inverted = std::make_unique<InvertedIndex>();
      break;
  }
  XQ_RETURN_IF_ERROR(BuildIndex(*it->second.table, entry.get()));
  it->second.indexes.push_back(std::move(entry));
  return Status::OK();
}

Status Database::BuildIndex(const Table& table, IndexEntry* entry) {
  // The entry is not yet published in the catalog, so no latching; the
  // build reads the heap at latest (writer context).
  Status status;
  CompositeKey key;
  table.Scan([&](RowId row, const Tuple& tuple) {
    switch (entry->def.kind) {
      case IndexKind::kBTree:
      case IndexKind::kHash: {
        if (!ExtractKey(*entry, tuple, &key)) return true;
        if (entry->def.unique) {
          bool dup = entry->btree ? !entry->btree->Lookup(key).empty()
                                  : entry->hash->Lookup(key) != nullptr;
          if (dup) {
            status = Status::ConstraintViolation(
                "duplicate key building unique index " + entry->def.name);
            return false;
          }
        }
        if (entry->btree) {
          entry->btree->Insert(key, row);
        } else {
          entry->hash->Insert(key, row);
        }
        return true;
      }
      case IndexKind::kInverted: {
        const Value& v = tuple[entry->column_indexes[0]];
        if (!v.is_null()) entry->inverted->Add(row, v.AsText());
        return true;
      }
    }
    return true;
  });
  return status;
}

Status Database::DropIndex(const std::string& index_name) {
  {
    std::unique_lock<std::shared_mutex> barrier(ddl_latch_);
    XQ_RETURN_IF_ERROR(DropIndexInternal(index_name));
  }
  MarkDirty();
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(Op::kDropIndex));
  w.PutString(index_name);
  XQ_RETURN_IF_ERROR(Log(w.buffer()));
  if (guard_depth_ == 0) FinishWriteBatch();
  return Status::OK();
}

Status Database::DropIndexInternal(const std::string& index_name) {
  for (auto& [name, info] : tables_) {
    for (size_t i = 0; i < info.indexes.size(); ++i) {
      if (info.indexes[i]->def.name == index_name) {
        info.indexes.erase(info.indexes.begin() + i);
        return Status::OK();
      }
    }
  }
  return Status::NotFound("no such index: " + index_name);
}

// --- DML -------------------------------------------------------------
// Apply-then-log: a record reaches the WAL only after the in-memory apply
// succeeded, so replay never hits validation errors; the flush in
// WriteAheadLog::Append is the commit point. Rows are stamped with
// write_epoch(); they become snapshot-visible when the enclosing
// WriteGuard (or this method itself, when called guard-less) publishes.

Result<RowId> Database::Insert(const std::string& table, Tuple tuple) {
  XQ_ASSIGN_OR_RETURN(RowId row, InsertInternal(table, std::move(tuple)));
  auto info = tables_.find(table);
  XQ_ASSIGN_OR_RETURN(const Tuple* stored, info->second.table->Get(row));
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(Op::kInsert));
  w.PutString(table);
  EncodeTuple(*stored, &w);
  XQ_RETURN_IF_ERROR(Log(w.buffer()));
  if (guard_depth_ == 0) FinishWriteBatch();
  return row;
}

Result<RowId> Database::InsertInternal(const std::string& table, Tuple tuple) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no such table: " + table);
  TableInfo& info = it->second;
  XQ_ASSIGN_OR_RETURN(RowId row,
                      info.table->Insert(std::move(tuple), write_epoch()));
  XQ_ASSIGN_OR_RETURN(const Tuple* stored, info.table->Get(row));
  Status s = IndexInsert(&info, row, *stored);
  if (!s.ok()) {
    // Unique violation: undo the heap insert; IndexInsert checks
    // constraints before touching any index so nothing else to undo.
    (void)info.table->Delete(row, write_epoch());
    return s;
  }
  MarkDirty();
  info.mutations_since_analyze.fetch_add(1, std::memory_order_relaxed);
  return row;
}

Status Database::IndexInsert(TableInfo* info, RowId row, const Tuple& tuple) {
  CompositeKey key;
  CompositeKey cur_key;
  // Pass 1: unique pre-checks, no mutation (shared: probes may overlap).
  // Entries may be stale (erasure is deferred until reclamation), so a
  // candidate only counts as a duplicate when its row's CURRENT version
  // is live and still owns the key. The row being written is excluded:
  // an update that keeps its unique key must not collide with itself.
  for (const auto& entry : info->indexes) {
    if (!entry->def.unique) continue;
    if (!ExtractKey(*entry, tuple, &key)) continue;
    std::vector<RowId> candidates;
    {
      std::shared_lock<std::shared_mutex> idx_lock(entry->latch);
      if (entry->btree) {
        candidates = entry->btree->Lookup(key);
      } else if (entry->hash) {
        if (const std::vector<RowId>* rows = entry->hash->Lookup(key)) {
          candidates = *rows;
        }
      }
    }
    for (RowId r : candidates) {
      if (r == row) continue;
      auto cur = info->table->Get(r);
      if (!cur.ok()) continue;  // stale entry: row no longer live
      if (!ExtractKey(*entry, **cur, &cur_key)) continue;
      if (cur_key == key) {
        return Status::ConstraintViolation(
            "unique index " + entry->def.name + " violated by key (" +
            TupleToString(key) + ")");
      }
    }
  }
  // Pass 2: insert everywhere, idempotently per (key, row) — an update
  // whose key did not change re-presents an entry that is already there.
  for (const auto& entry : info->indexes) {
    std::unique_lock<std::shared_mutex> idx_lock(entry->latch);
    switch (entry->def.kind) {
      case IndexKind::kBTree:
        if (ExtractKey(*entry, tuple, &key)) {
          std::vector<RowId> present = entry->btree->Lookup(key);
          if (std::find(present.begin(), present.end(), row) ==
              present.end()) {
            entry->btree->Insert(key, row);
          }
        }
        break;
      case IndexKind::kHash:
        if (ExtractKey(*entry, tuple, &key)) {
          const std::vector<RowId>* present = entry->hash->Lookup(key);
          if (present == nullptr ||
              std::find(present->begin(), present->end(), row) ==
                  present->end()) {
            entry->hash->Insert(key, row);
          }
        }
        break;
      case IndexKind::kInverted: {
        // InvertedIndex::Add is already idempotent per (token, row).
        const Value& v = tuple[entry->column_indexes[0]];
        if (!v.is_null()) entry->inverted->Add(row, v.AsText());
        break;
      }
    }
  }
  return Status::OK();
}

void Database::EraseRetiredIndexKeys(const RetiredIndexKeys& e) {
  auto it = tables_.find(e.table);
  if (it == tables_.end()) return;  // table dropped meanwhile
  TableInfo& info = it->second;
  // The row's current version, if live at latest: any key it still owns
  // must survive this erase (an A->B->A value cycle retires an A-keyed
  // version while the live head is A-keyed again).
  const Tuple* cur = nullptr;
  if (auto cur_r = info.table->Get(e.row); cur_r.ok()) cur = *cur_r;
  CompositeKey key;
  CompositeKey cur_key;
  for (const auto& entry : info.indexes) {
    switch (entry->def.kind) {
      case IndexKind::kBTree:
      case IndexKind::kHash: {
        if (!ExtractKey(*entry, e.tuple, &key)) break;
        if (cur != nullptr && ExtractKey(*entry, *cur, &cur_key) &&
            cur_key == key) {
          break;  // live head still owns this key
        }
        std::unique_lock<std::shared_mutex> idx_lock(entry->latch);
        if (entry->btree) entry->btree->Erase(key, e.row);
        if (entry->hash) entry->hash->Erase(key, e.row);
        break;
      }
      case IndexKind::kInverted: {
        const Value& v = e.tuple[entry->column_indexes[0]];
        if (v.is_null()) break;
        // Token-granular guard: drop only tokens of the retired text the
        // live head's text does not also contain.
        std::set<std::string> keep;
        if (cur != nullptr) {
          const Value& cv = (*cur)[entry->column_indexes[0]];
          if (!cv.is_null()) {
            for (std::string& t : common::TokenizeKeywords(cv.AsText())) {
              keep.insert(std::move(t));
            }
          }
        }
        std::unique_lock<std::shared_mutex> idx_lock(entry->latch);
        for (const std::string& t : common::TokenizeKeywords(v.AsText())) {
          // A single already-normalized token re-tokenizes to itself.
          if (keep.count(t) == 0) entry->inverted->Remove(e.row, t);
        }
        break;
      }
    }
  }
}

Status Database::Delete(const std::string& table, RowId row) {
  XQ_RETURN_IF_ERROR(DeleteInternal(table, row));
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(Op::kDelete));
  w.PutString(table);
  w.PutU64(row);
  XQ_RETURN_IF_ERROR(Log(w.buffer()));
  if (guard_depth_ == 0) FinishWriteBatch();
  return Status::OK();
}

Status Database::DeleteInternal(const std::string& table, RowId row) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no such table: " + table);
  TableInfo& info = it->second;
  XQ_ASSIGN_OR_RETURN(const Tuple* tuple, info.table->Get(row));
  Tuple saved = *tuple;
  XQ_RETURN_IF_ERROR(info.table->Delete(row, write_epoch()));
  // Index entries stay until reclamation: a pinned snapshot below this
  // epoch must still find the row through index-driven plans.
  retired_index_.push_back({table, row, std::move(saved), write_epoch()});
  MarkDirty();
  info.mutations_since_analyze.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Database::Update(const std::string& table, RowId row, Tuple tuple) {
  XQ_RETURN_IF_ERROR(UpdateInternal(table, row, tuple));
  auto info = tables_.find(table);
  XQ_ASSIGN_OR_RETURN(const Tuple* stored, info->second.table->Get(row));
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(Op::kUpdate));
  w.PutString(table);
  w.PutU64(row);
  EncodeTuple(*stored, &w);
  XQ_RETURN_IF_ERROR(Log(w.buffer()));
  if (guard_depth_ == 0) FinishWriteBatch();
  return Status::OK();
}

Status Database::UpdateInternal(const std::string& table, RowId row,
                                Tuple tuple) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no such table: " + table);
  TableInfo& info = it->second;
  XQ_ASSIGN_OR_RETURN(const Tuple* old_tuple, info.table->Get(row));
  Tuple saved = *old_tuple;
  Status s = info.table->Update(row, std::move(tuple), write_epoch());
  if (!s.ok()) return s;  // nothing applied, indexes untouched
  XQ_ASSIGN_OR_RETURN(const Tuple* stored, info.table->Get(row));
  s = IndexInsert(&info, row, *stored);
  if (!s.ok()) {
    // Unique violation against the new value: restore the old row (one
    // more version — snapshot readers in between see the epoch-stamped
    // intermediate as deleted, never half-applied). The old index
    // entries were never erased, so the indexes already match the
    // restored head.
    XQ_RETURN_IF_ERROR(info.table->Update(row, saved, write_epoch()));
    MarkDirty();
    return s;
  }
  // The superseded version's keys are erased lazily at reclamation; the
  // per-index guard there keeps any key the new head still shares.
  retired_index_.push_back({table, row, std::move(saved), write_epoch()});
  MarkDirty();
  info.mutations_since_analyze.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

// --- statistics --------------------------------------------------------

Status Database::Analyze(const std::string& table) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no such table: " + table);
  common::ScopedLatency timer(
      common::MetricsRegistry::Global().GetHistogram("rel.stats.analyze"));
  TableStats stats = ComputeTableStats(*it->second.table);
  XQ_RETURN_IF_ERROR(SetStatsInternal(table, stats));
  common::MetricsRegistry::Global().GetCounter("rel.stats.analyze_runs")->Inc();
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(Op::kSetStats));
  w.PutString(table);
  EncodeTableStats(stats, &w);
  XQ_RETURN_IF_ERROR(Log(w.buffer()));
  if (guard_depth_ == 0) FinishWriteBatch();
  return Status::OK();
}

Status Database::SetStatsInternal(const std::string& table, TableStats stats) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no such table: " + table);
  if (stats.columns.size() != it->second.table->schema().size()) {
    return Status::Corruption("stats column count mismatch for " + table);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    it->second.stats = std::make_shared<const TableStats>(std::move(stats));
  }
  it->second.mutations_since_analyze.store(0, std::memory_order_relaxed);
  size_t with_stats = 0;
  for (const auto& [name, info] : tables_) {
    if (info.stats != nullptr) ++with_stats;
  }
  common::MetricsRegistry::Global()
      .GetGauge("rel.stats.tables_with_stats")
      ->Set(static_cast<int64_t>(with_stats));
  return Status::OK();
}

std::shared_ptr<const TableStats> Database::StatsFor(
    const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return nullptr;
  std::lock_guard<std::mutex> lock(stats_mu_);
  return it->second.stats;
}

uint64_t Database::MutationsSinceAnalyze(const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? 0
                             : it->second.mutations_since_analyze.load(
                                   std::memory_order_relaxed);
}

// --- lookup ----------------------------------------------------------

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return it->second.table.get();
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return static_cast<const Table*>(it->second.table.get());
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, info] : tables_) names.push_back(name);
  return names;
}

const std::vector<std::unique_ptr<IndexEntry>>* Database::IndexesOn(
    const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : &it->second.indexes;
}

const IndexEntry* Database::FindIndex(const std::string& table,
                                      const std::vector<std::string>& columns,
                                      IndexKind kind) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return nullptr;
  for (const auto& entry : it->second.indexes) {
    if (entry->def.kind != kind) continue;
    if (entry->def.columns.size() < columns.size()) continue;
    bool match = true;
    for (size_t i = 0; i < columns.size(); ++i) {
      if (entry->def.columns[i] != columns[i]) {
        match = false;
        break;
      }
    }
    // For equality use the prefix; exact-length match preferred but any
    // prefix match works for lookups on the leading columns.
    if (match && (kind == IndexKind::kBTree ||
                  entry->def.columns.size() == columns.size())) {
      return entry.get();
    }
  }
  return nullptr;
}

const IndexEntry* Database::FindIndexByName(
    const std::string& index_name) const {
  for (const auto& [name, info] : tables_) {
    for (const auto& entry : info.indexes) {
      if (entry->def.name == index_name) return entry.get();
    }
  }
  return nullptr;
}

// --- WAL replay --------------------------------------------------------

Status Database::ReplayRecord(std::string_view payload) {
  BinaryReader r(payload);
  XQ_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
  switch (static_cast<Op>(tag)) {
    case Op::kCreateTable: {
      XQ_ASSIGN_OR_RETURN(std::string name, r.GetString());
      XQ_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(&r));
      return CreateTableInternal(name, std::move(schema));
    }
    case Op::kDropTable: {
      XQ_ASSIGN_OR_RETURN(std::string name, r.GetString());
      return DropTableInternal(name);
    }
    case Op::kCreateIndex: {
      XQ_ASSIGN_OR_RETURN(IndexDef def, DecodeIndexDef(&r));
      return CreateIndexInternal(def);
    }
    case Op::kDropIndex: {
      XQ_ASSIGN_OR_RETURN(std::string name, r.GetString());
      return DropIndexInternal(name);
    }
    case Op::kInsert: {
      XQ_ASSIGN_OR_RETURN(std::string table, r.GetString());
      XQ_ASSIGN_OR_RETURN(Tuple tuple, DecodeTuple(&r));
      return InsertInternal(table, std::move(tuple)).ok()
                 ? Status::OK()
                 : Status::Corruption("replay insert failed for " + table);
    }
    case Op::kDelete: {
      XQ_ASSIGN_OR_RETURN(std::string table, r.GetString());
      XQ_ASSIGN_OR_RETURN(uint64_t row, r.GetU64());
      return DeleteInternal(table, row);
    }
    case Op::kUpdate: {
      XQ_ASSIGN_OR_RETURN(std::string table, r.GetString());
      XQ_ASSIGN_OR_RETURN(uint64_t row, r.GetU64());
      XQ_ASSIGN_OR_RETURN(Tuple tuple, DecodeTuple(&r));
      return UpdateInternal(table, row, std::move(tuple));
    }
    case Op::kSetStats: {
      // Replaying DML ahead of this record re-inflates the staleness
      // counter; SetStatsInternal zeroes it, so the recovered counter
      // matches the pre-crash state (WAL order == original order).
      XQ_ASSIGN_OR_RETURN(std::string table, r.GetString());
      XQ_ASSIGN_OR_RETURN(TableStats stats, DecodeTableStats(&r));
      return SetStatsInternal(table, std::move(stats));
    }
  }
  return Status::Corruption("bad WAL op tag " + std::to_string(tag));
}

// --- snapshots ---------------------------------------------------------

void Database::EncodeStateBody(BinaryWriter* body_ptr) const {
  BinaryWriter& body = *body_ptr;
  body.PutU64(last_lsn_.load(std::memory_order_acquire));
  body.PutU32(static_cast<uint32_t>(tables_.size()));
  for (const auto& [name, info] : tables_) {
    body.PutString(name);
    EncodeSchema(info.table->schema(), &body);
    // Persist every slot (including tombstones) so RowIds survive. Only
    // the latest committed version of each slot is written: epochs and
    // superseded versions are runtime state and restart at 1 on Open.
    size_t slots = info.table->num_slots();
    body.PutU64(slots);
    for (RowId row = 0; row < slots; ++row) {
      bool live = info.table->IsLive(row);
      body.PutU8(live ? 1 : 0);
      if (live) {
        auto tuple = info.table->Get(row);
        EncodeTuple(**tuple, &body);
      }
    }
    body.PutU32(static_cast<uint32_t>(info.indexes.size()));
    for (const auto& entry : info.indexes) {
      EncodeIndexDef(entry->def, &body);
    }
    std::shared_ptr<const TableStats> stats;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats = info.stats;
    }
    body.PutU8(stats != nullptr ? 1 : 0);
    if (stats != nullptr) {
      EncodeTableStats(*stats, &body);
      body.PutU64(
          info.mutations_since_analyze.load(std::memory_order_relaxed));
    }
  }
}

std::string Database::EncodeState() const {
  BinaryWriter body;
  EncodeStateBody(&body);
  return body.TakeBuffer();
}

Status Database::WriteSnapshot(const std::string& path) const {
  BinaryWriter body;
  EncodeStateBody(&body);
  BinaryWriter file;
  file.PutString(kSnapshotMagic);
  file.PutU32(Crc32(body.buffer()));
  file.PutString(body.buffer());

  std::string tmp = path + ".tmp";
  XQ_FAULT_POINT("db.snapshot.write");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot write snapshot " + tmp);
    out.write(file.buffer().data(),
              static_cast<std::streamsize>(file.buffer().size()));
    if (!out) return Status::IoError("snapshot write failed " + tmp);
  }
  // Crashing between write and rename leaves only the .tmp behind; the old
  // snapshot stays authoritative, so recovery is unaffected.
  XQ_FAULT_POINT("db.snapshot.rename");
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::IoError("snapshot rename failed: " + ec.message());
  return Status::OK();
}

Status Database::LoadSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot read snapshot " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  BinaryReader file(data);
  XQ_ASSIGN_OR_RETURN(std::string magic, file.GetString());
  if (magic != kSnapshotMagic) {
    return Status::Corruption("bad snapshot magic in " + path);
  }
  XQ_ASSIGN_OR_RETURN(uint32_t crc, file.GetU32());
  XQ_ASSIGN_OR_RETURN(std::string body, file.GetString());
  if (Crc32(body) != crc) {
    return Status::Corruption("snapshot checksum mismatch in " + path);
  }
  BinaryReader r(body);
  uint64_t base_lsn = 0;
  XQ_RETURN_IF_ERROR(DecodeStateBody(&r, &base_lsn));
  last_lsn_.store(base_lsn, std::memory_order_release);
  return Status::OK();
}

Status Database::DecodeStateBody(BinaryReader* r_ptr, uint64_t* base_lsn) {
  BinaryReader& r = *r_ptr;
  XQ_ASSIGN_OR_RETURN(*base_lsn, r.GetU64());
  XQ_ASSIGN_OR_RETURN(uint32_t ntables, r.GetU32());
  for (uint32_t t = 0; t < ntables; ++t) {
    XQ_ASSIGN_OR_RETURN(std::string name, r.GetString());
    XQ_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(&r));
    XQ_RETURN_IF_ERROR(CreateTableInternal(name, std::move(schema)));
    Table* table = tables_.find(name)->second.table.get();
    XQ_ASSIGN_OR_RETURN(uint64_t slots, r.GetU64());
    for (uint64_t row = 0; row < slots; ++row) {
      XQ_ASSIGN_OR_RETURN(uint8_t live, r.GetU8());
      if (live != 0) {
        XQ_ASSIGN_OR_RETURN(Tuple tuple, DecodeTuple(&r));
        table->RestoreSlot(std::move(tuple), /*live=*/true, write_epoch());
      } else {
        table->RestoreSlot(Tuple{}, /*live=*/false, write_epoch());
      }
    }
    XQ_ASSIGN_OR_RETURN(uint32_t nindexes, r.GetU32());
    for (uint32_t i = 0; i < nindexes; ++i) {
      XQ_ASSIGN_OR_RETURN(IndexDef def, DecodeIndexDef(&r));
      XQ_RETURN_IF_ERROR(CreateIndexInternal(def));
    }
    XQ_ASSIGN_OR_RETURN(uint8_t has_stats, r.GetU8());
    if (has_stats != 0) {
      XQ_ASSIGN_OR_RETURN(TableStats stats, DecodeTableStats(&r));
      XQ_RETURN_IF_ERROR(SetStatsInternal(name, std::move(stats)));
      XQ_ASSIGN_OR_RETURN(uint64_t mutations, r.GetU64());
      tables_.find(name)->second.mutations_since_analyze.store(
          mutations, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

Status Database::Checkpoint() {
  if (wal_ == nullptr) return Status::OK();
  XQ_RETURN_IF_ERROR(WriteSnapshot(dir_ + "/" + kSnapshotFile));
  return wal_->Reset();
}

// --- replication -------------------------------------------------------

Result<uint64_t> Database::InstallReplicaState(std::string_view state_body) {
  uint64_t base_lsn = 0;
  {
    // Catalog surgery: wait out every live snapshot, then rebuild.
    std::unique_lock<std::shared_mutex> barrier(ddl_latch_);
    tables_.clear();
    BinaryReader r(state_body);
    XQ_RETURN_IF_ERROR(DecodeStateBody(&r, &base_lsn));
  }
  PublishLsn(base_lsn);
  // The installed rows were stamped at write_epoch(): the epoch counter
  // keeps rising monotonically across a bootstrap, so result-cache
  // entries keyed on older epochs can never alias the new state.
  MarkDirty();
  if (wal_ != nullptr) {
    // Persist the bootstrap as a checkpoint: a replica restart recovers
    // from the installed snapshot plus whatever it applied after, instead
    // of whatever stale state the directory held before.
    wal_->set_next_lsn(base_lsn + 1);
    XQ_RETURN_IF_ERROR(Checkpoint());
  }
  if (guard_depth_ == 0) FinishWriteBatch();
  return base_lsn;
}

Status Database::ApplyReplicated(uint64_t lsn, std::string_view payload) {
  const uint64_t expected = last_lsn_.load(std::memory_order_relaxed) + 1;
  if (lsn != expected) {
    return Status::Corruption("replication lsn gap: got " +
                              std::to_string(lsn) + ", expected " +
                              std::to_string(expected));
  }
  {
    // Shipped DDL records mutate the catalog: take the snapshot barrier
    // the way the public DDL entry points do. (DML records stamp
    // versions and need no barrier.)
    std::unique_lock<std::shared_mutex> barrier;
    if (!payload.empty() &&
        IsDdlOp(static_cast<uint8_t>(static_cast<unsigned char>(payload[0])))) {
      barrier = std::unique_lock<std::shared_mutex>(ddl_latch_);
    }
    XQ_RETURN_IF_ERROR(ReplayRecord(payload));
  }
  MarkDirty();
  // Re-log locally: advances the LSN to exactly `lsn`, makes the record
  // durable on durable replicas, and feeds any chained sink (cascading
  // replication falls out for free).
  XQ_RETURN_IF_ERROR(Log(payload));
  if (guard_depth_ == 0) FinishWriteBatch();
  return Status::OK();
}

}  // namespace xomatiq::rel
