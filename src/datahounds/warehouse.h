#ifndef XOMATIQ_DATAHOUNDS_WAREHOUSE_H_
#define XOMATIQ_DATAHOUNDS_WAREHOUSE_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "datahounds/shredder.h"
#include "datahounds/xml_transformer.h"
#include "relational/database.h"
#include "xml/dtd.h"

namespace xomatiq::hounds {

// A change applied to the warehouse by an incremental sync. Data Hounds
// "sends out triggers to related applications, indicating changes to the
// warehouse" (paper §2.2 end).
struct ChangeEvent {
  enum class Kind { kAdded, kUpdated, kRemoved };
  Kind kind = Kind::kAdded;
  std::string collection;
  std::string uri;
  int64_t doc_id = 0;
};

struct UpdateStats {
  size_t added = 0;
  size_t updated = 0;
  size_t removed = 0;
  size_t unchanged = 0;
};

// The local warehouse (paper Fig 1 bottom): owns the generic schema inside
// an embedded relational database, loads sources through their
// XML-Transformers, validates against the per-source DTD, shreds, and
// keeps collections fresh via content-hash diffing with change triggers.
//
// Thread-safety / locking rules (MVCC-lite; DESIGN.md "Concurrency &
// snapshots"):
//   - Mutating entry points (LoadSource, SyncSource, LoadDocument,
//     RemoveDocument) run under one rel::WriteGuard each: the whole load
//     or sync commits as ONE write batch, whose epoch publishes on guard
//     release. Concurrent snapshot readers are never blocked and never
//     observe a half-applied load — they read at their own epoch.
//   - Read entry points (DocumentsIn, FindDocument, ReconstructDocument)
//     pin a rel::Snapshot and read latch-free at its epoch, fully
//     concurrent with an in-flight sync.
//   - The collection map and trigger-subscriber list are guarded by their
//     own shared_mutex (`mu_`), always acquired AFTER the write latch,
//     never while waiting on it — the two form a fixed order.
//   - Collections are never erased, so a Collection* from FindCollection
//     stays valid (and immutable) for the warehouse's lifetime.
//   - ChangeEvent callbacks run on the syncing thread AFTER the batch's
//     epoch is published and the write latch released (WriteGuard::Defer):
//     a subscriber may query back into the database — and is guaranteed
//     to see the change it is being told about.
class Warehouse {
 public:
  // `db` must outlive the warehouse. Creates the generic schema and
  // production indexes when absent and loads collection metadata.
  static common::Result<std::unique_ptr<Warehouse>> Open(rel::Database* db);

  struct Collection {
    std::string name;          // e.g. "hlx_enzyme.DEFAULT"
    std::string root_element;  // e.g. "hlx_enzyme"
    std::string source;        // transformer source_name()
    std::string dtd_text;
    xml::Dtd dtd;
    std::set<std::string> sequence_elements;
  };

  // Declares a collection fed by `transformer` (idempotent).
  common::Status RegisterCollection(const std::string& collection,
                                    const XmlTransformer& transformer);

  struct LoadStats {
    size_t documents = 0;
    size_t nodes = 0;
    size_t text_values = 0;
    size_t numeric_values = 0;
    size_t sequence_values = 0;
    size_t validation_errors = 0;
  };

  // Full load: transforms `raw` flat-file content, validates each document
  // against the collection DTD (hard error on violation), shreds. Intended
  // for the initial harvest; use SyncSource for refreshes.
  common::Result<LoadStats> LoadSource(const std::string& collection,
                                       const XmlTransformer& transformer,
                                       std::string_view raw);

  // Incremental update: diffs transformed entries against warehoused
  // documents by uri + content hash; applies adds/updates/removes and
  // fires triggers. Every added or changed document is validated against
  // the collection DTD first: on a violation the sync fails and no
  // document is written.
  common::Result<UpdateStats> SyncSource(const std::string& collection,
                                         const XmlTransformer& transformer,
                                         std::string_view raw);

  // Subscribes a trigger callback for warehouse changes. Callbacks are
  // never unsubscribed: they must outlive the warehouse or capture
  // weak/shared state they can safely outlive (see the class comment).
  void Subscribe(std::function<void(const ChangeEvent&)> callback);

  // Loads one already-built XML document (validated) into `collection`.
  common::Result<int64_t> LoadDocument(const std::string& collection,
                                       const xml::XmlDocument& doc,
                                       const std::string& uri);

  common::Status RemoveDocument(int64_t doc_id);

  common::Result<xml::XmlDocument> ReconstructDocument(int64_t doc_id);

  // doc_ids of every document in `collection`, ascending.
  common::Result<std::vector<int64_t>> DocumentsIn(
      const std::string& collection) const;
  // doc_id for `uri`, or NotFound.
  common::Result<int64_t> FindDocument(const std::string& uri) const;

  const Collection* FindCollection(const std::string& name) const;
  std::vector<std::string> CollectionNames() const;

  rel::Database* db() { return db_; }
  Shredder* shredder() { return shredder_.get(); }

 private:
  explicit Warehouse(rel::Database* db) : db_(db) {}

  void Fire(const ChangeEvent& event);
  common::Status LoadCollectionsFromCatalog();
  // RegisterCollection body; caller must hold a rel::WriteGuard.
  common::Status RegisterCollectionLocked(const std::string& collection,
                                          const XmlTransformer& transformer);

  rel::Database* db_;
  std::unique_ptr<Shredder> shredder_;
  // Guards collections_ and subscribers_; acquired after the write latch when
  // both are needed (see class comment).
  mutable std::shared_mutex mu_;
  std::map<std::string, Collection> collections_;
  std::vector<std::function<void(const ChangeEvent&)>> subscribers_;
};

// Content hash used for update detection (CRC32 of the compact
// serialization, sign-extended into an INT column).
int64_t ContentHash(const xml::XmlDocument& doc);

}  // namespace xomatiq::hounds

#endif  // XOMATIQ_DATAHOUNDS_WAREHOUSE_H_
