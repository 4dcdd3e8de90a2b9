#include "datahounds/warehouse.h"

#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "datahounds/generic_schema.h"
#include "relational/serde.h"
#include "xml/writer.h"

namespace xomatiq::hounds {

using common::Result;
using common::Status;
using rel::RowId;
using rel::Tuple;
using rel::Value;

int64_t ContentHash(const xml::XmlDocument& doc) {
  xml::WriteOptions options;
  options.pretty = false;
  options.declaration = false;
  return static_cast<int64_t>(rel::Crc32(xml::WriteXml(doc, options)));
}

Result<std::unique_ptr<Warehouse>> Warehouse::Open(rel::Database* db) {
  std::unique_ptr<Warehouse> warehouse(new Warehouse(db));
  XQ_RETURN_IF_ERROR(EnsureGenericTables(db));
  XQ_RETURN_IF_ERROR(EnsureGenericIndexes(db));
  warehouse->shredder_ = std::make_unique<Shredder>(db);
  XQ_RETURN_IF_ERROR(warehouse->shredder_->Init());
  XQ_RETURN_IF_ERROR(warehouse->LoadCollectionsFromCatalog());
  return warehouse;
}

void Warehouse::Subscribe(std::function<void(const ChangeEvent&)> callback) {
  std::unique_lock lock(mu_);
  subscribers_.push_back(std::move(callback));
}

void Warehouse::Fire(const ChangeEvent& event) {
  // Copy the list so callbacks run without mu_ held. Load/sync defer the
  // Fire calls through their WriteGuard, so by the time a callback runs
  // the batch's epoch is published and the write latch released — the
  // callback may query the warehouse (and will see the change) or load
  // more data without deadlocking.
  std::vector<std::function<void(const ChangeEvent&)>> subscribers;
  {
    std::shared_lock lock(mu_);
    subscribers = subscribers_;
  }
  for (const auto& callback : subscribers) callback(event);
}

common::Result<xml::XmlDocument> Warehouse::ReconstructDocument(
    int64_t doc_id) {
  rel::Snapshot snap = db_->BeginSnapshot();
  return shredder_->ReconstructDocument(doc_id, snap.epoch());
}

Status Warehouse::LoadCollectionsFromCatalog() {
  XQ_ASSIGN_OR_RETURN(const rel::Table* table,
                      db_->GetTable(kCollectionTable));
  std::unique_lock lock(mu_);
  Status status;
  table->Scan([&](RowId, const Tuple& t) {
    Collection c;
    c.name = t[0].AsText();
    c.root_element = t[1].AsText();
    c.dtd_text = t[2].is_null() ? "" : t[2].AsText();
    c.source = t[3].is_null() ? "" : t[3].AsText();
    if (!c.dtd_text.empty()) {
      auto dtd = xml::ParseDtd(c.dtd_text);
      if (!dtd.ok()) {
        status = dtd.status();
        return false;
      }
      c.dtd = std::move(*dtd);
    }
    // Sequence-element sets are derived from the registered transformer at
    // registration time; persist the convention (element named
    // "sequence") for catalog-loaded collections.
    c.sequence_elements = {"sequence"};
    collections_[c.name] = std::move(c);
    return true;
  });
  return status;
}

Status Warehouse::RegisterCollection(const std::string& collection,
                                     const XmlTransformer& transformer) {
  rel::WriteGuard guard(db_);
  return RegisterCollectionLocked(collection, transformer);
}

Status Warehouse::RegisterCollectionLocked(const std::string& collection,
                                           const XmlTransformer& transformer) {
  if (FindCollection(collection) != nullptr) return Status::OK();
  Collection c;
  c.name = collection;
  c.root_element = transformer.root_element();
  c.source = transformer.source_name();
  c.dtd_text = transformer.dtd_text();
  XQ_ASSIGN_OR_RETURN(c.dtd, xml::ParseDtd(c.dtd_text));
  for (const std::string& name : transformer.sequence_elements()) {
    c.sequence_elements.insert(name);
  }
  XQ_RETURN_IF_ERROR(
      db_->Insert(kCollectionTable,
                  {Value::Text(collection), Value::Text(c.root_element),
                   Value::Text(c.dtd_text), Value::Text(c.source)})
          .status());
  std::unique_lock lock(mu_);
  collections_[collection] = std::move(c);
  return Status::OK();
}

const Warehouse::Collection* Warehouse::FindCollection(
    const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = collections_.find(name);
  // Collections are never erased, so the pointer outlives the lock.
  return it == collections_.end() ? nullptr : &it->second;
}

std::vector<std::string> Warehouse::CollectionNames() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, c] : collections_) names.push_back(name);
  return names;
}

Result<int64_t> Warehouse::LoadDocument(const std::string& collection,
                                        const xml::XmlDocument& doc,
                                        const std::string& uri) {
  rel::WriteGuard guard(db_);
  const Collection* c = FindCollection(collection);
  if (c == nullptr) {
    return Status::NotFound("collection not registered: " + collection);
  }
  XQ_RETURN_IF_ERROR(c->dtd.CheckValid(doc));
  XQ_ASSIGN_OR_RETURN(
      Shredder::ShredStats stats,
      shredder_->ShredDocument(doc, collection, uri, c->sequence_elements,
                               ContentHash(doc)));
  return stats.doc_id;
}

Status Warehouse::RemoveDocument(int64_t doc_id) {
  rel::WriteGuard guard(db_);
  return shredder_->DeleteDocument(doc_id);
}

Result<Warehouse::LoadStats> Warehouse::LoadSource(
    const std::string& collection, const XmlTransformer& transformer,
    std::string_view raw) {
  // One write batch for the whole load: snapshots taken before the guard
  // releases see none of it, snapshots taken after see all of it.
  // Concurrent readers are NOT blocked — they read at their own epoch.
  rel::WriteGuard guard(db_);
  XQ_RETURN_IF_ERROR(RegisterCollectionLocked(collection, transformer));
  const Collection* c = FindCollection(collection);
  static common::Histogram* transform_hist =
      common::MetricsRegistry::Global().GetHistogram("hounds.stage.transform");
  static common::Histogram* shred_hist =
      common::MetricsRegistry::Global().GetHistogram("hounds.stage.shred");
  static common::Counter* docs_loaded =
      common::MetricsRegistry::Global().GetCounter("hounds.documents_loaded");
  std::vector<TransformedDocument> docs;
  {
    common::TraceSpan span("hounds.transform", transform_hist);
    XQ_ASSIGN_OR_RETURN(docs, transformer.Transform(raw));
  }
  common::TraceSpan span("hounds.shred", shred_hist);
  LoadStats stats;
  for (const TransformedDocument& doc : docs) {
    // Fault point hounds.load.shred: fail the load between documents. The
    // exclusive latch still makes the half-load invisible to queries only
    // if the caller discards the database; crash-recovery keeps whatever
    // the WAL committed, which tests assert is a per-document prefix.
    XQ_FAULT_POINT("hounds.load.shred");
    XQ_RETURN_IF_ERROR(c->dtd.CheckValid(doc.document));
    XQ_ASSIGN_OR_RETURN(Shredder::ShredStats s,
                        shredder_->ShredDocument(doc.document, collection,
                                                 doc.uri,
                                                 c->sequence_elements,
                                                 ContentHash(doc.document)));
    ++stats.documents;
    docs_loaded->Inc();
    stats.nodes += s.nodes;
    stats.text_values += s.text_values;
    stats.numeric_values += s.numeric_values;
    stats.sequence_values += s.sequence_values;
    // Deferred past epoch publish + latch release: subscribers observe a
    // database state that already contains the document they are told
    // about, and may re-enter the warehouse safely.
    guard.Defer([this, collection, uri = doc.uri, id = s.doc_id] {
      Fire({ChangeEvent::Kind::kAdded, collection, uri, id});
    });
  }
  return stats;
}

Result<UpdateStats> Warehouse::SyncSource(const std::string& collection,
                                          const XmlTransformer& transformer,
                                          std::string_view raw) {
  // One write batch across diff + apply. ChangeEvents used to fire while
  // the exclusive latch was held — a subscriber that queried back
  // deadlocked, and one that cached responses could capture a state
  // where the event's document was not yet query-visible. They are now
  // deferred past epoch publish and latch release.
  rel::WriteGuard guard(db_);
  XQ_RETURN_IF_ERROR(RegisterCollectionLocked(collection, transformer));
  const Collection* c = FindCollection(collection);
  XQ_ASSIGN_OR_RETURN(std::vector<TransformedDocument> docs,
                      transformer.Transform(raw));

  // Current warehouse state for the collection: uri -> (doc_id, hash).
  XQ_ASSIGN_OR_RETURN(const rel::Table* doc_table,
                      db_->GetTable(kDocumentTable));
  std::unordered_map<std::string, std::pair<int64_t, int64_t>> existing;
  doc_table->Scan([&](RowId, const Tuple& t) {
    if (t[1].AsText() == collection) {
      existing[t[2].AsText()] = {t[0].AsInt(),
                                 t[4].is_null() ? 0 : t[4].AsInt()};
    }
    return true;
  });

  // Validate every added or changed document before the first document
  // write, so one invalid entry fails the sync with nothing applied, as
  // in a load. Unchanged documents were validated when they were stored.
  std::vector<int64_t> hashes;
  hashes.reserve(docs.size());
  for (const TransformedDocument& doc : docs) {
    hashes.push_back(ContentHash(doc.document));
    auto it = existing.find(doc.uri);
    if (it == existing.end() || it->second.second != hashes.back()) {
      XQ_RETURN_IF_ERROR(c->dtd.CheckValid(doc.document));
    }
  }

  UpdateStats stats;
  for (size_t i = 0; i < docs.size(); ++i) {
    // Fault point hounds.sync.apply: fail the sync between per-document
    // apply steps (add / update / remove), leaving a prefix applied.
    XQ_FAULT_POINT("hounds.sync.apply");
    const TransformedDocument& doc = docs[i];
    int64_t hash = hashes[i];
    auto it = existing.find(doc.uri);
    if (it == existing.end()) {
      XQ_ASSIGN_OR_RETURN(
          Shredder::ShredStats s,
          shredder_->ShredDocument(doc.document, collection, doc.uri,
                                   c->sequence_elements, hash));
      ++stats.added;
      guard.Defer([this, collection, uri = doc.uri, id = s.doc_id] {
        Fire({ChangeEvent::Kind::kAdded, collection, uri, id});
      });
      continue;
    }
    auto [doc_id, old_hash] = it->second;
    existing.erase(it);
    if (old_hash == hash) {
      ++stats.unchanged;
      continue;
    }
    XQ_RETURN_IF_ERROR(shredder_->DeleteDocument(doc_id));
    XQ_ASSIGN_OR_RETURN(
        Shredder::ShredStats s,
        shredder_->ShredDocument(doc.document, collection, doc.uri,
                                 c->sequence_elements, hash));
    ++stats.updated;
    guard.Defer([this, collection, uri = doc.uri, id = s.doc_id] {
      Fire({ChangeEvent::Kind::kUpdated, collection, uri, id});
    });
  }
  // Entries no longer present remotely ("without any information being
  // left out or added twice", §2).
  for (const auto& [uri, info] : existing) {
    XQ_FAULT_POINT("hounds.sync.apply");
    XQ_RETURN_IF_ERROR(shredder_->DeleteDocument(info.first));
    ++stats.removed;
    guard.Defer([this, collection, uri, id = info.first] {
      Fire({ChangeEvent::Kind::kRemoved, collection, uri, id});
    });
  }
  return stats;
}

Result<std::vector<int64_t>> Warehouse::DocumentsIn(
    const std::string& collection) const {
  rel::Snapshot snap = db_->BeginSnapshot();
  XQ_ASSIGN_OR_RETURN(const rel::Table* table, db_->GetTable(kDocumentTable));
  std::vector<int64_t> ids;
  table->Scan(snap.epoch(), [&](RowId, const Tuple& t) {
    if (t[1].AsText() == collection) ids.push_back(t[0].AsInt());
    return true;
  });
  std::sort(ids.begin(), ids.end());
  return ids;
}

Result<int64_t> Warehouse::FindDocument(const std::string& uri) const {
  rel::Snapshot snap = db_->BeginSnapshot();
  const rel::IndexEntry* idx = db_->FindIndexByName("idx_doc_uri");
  XQ_ASSIGN_OR_RETURN(const rel::Table* table, db_->GetTable(kDocumentTable));
  if (idx != nullptr) {
    // Copy the postings under the shared entry latch, then fetch at the
    // snapshot epoch and re-verify the key (the index is single-version).
    std::vector<RowId> row_ids;
    {
      std::shared_lock lk(idx->latch);
      const std::vector<RowId>* rows = idx->hash->Lookup({Value::Text(uri)});
      if (rows != nullptr) row_ids = *rows;
    }
    for (RowId row : row_ids) {
      auto tuple = table->Get(row, snap.epoch());
      if (!tuple.ok()) continue;  // not visible at this snapshot
      if ((**tuple)[2].AsText() == uri) return (**tuple)[0].AsInt();
    }
    return Status::NotFound("no document with uri " + uri);
  }
  int64_t found = -1;
  table->Scan(snap.epoch(), [&](RowId, const Tuple& t) {
    if (t[2].AsText() == uri) {
      found = t[0].AsInt();
      return false;
    }
    return true;
  });
  if (found < 0) return Status::NotFound("no document with uri " + uri);
  return found;
}

}  // namespace xomatiq::hounds
