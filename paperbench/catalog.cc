// Corpus, warehouse set-up, query catalogs and the native answer oracle.

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "bench.h"
#include "exec/worker_pool.h"
#include "sql/expr_eval.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace xomatiq::paperbench {

using common::Result;
using common::Status;

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Percentile(std::vector<double> samples, double p) {
  return common::PercentileOfSamples(samples, p);
}

// ---------------------------------------------------------------------
// Corpus and flat files
// ---------------------------------------------------------------------

datagen::CorpusOptions ScaledOptions(size_t n) {
  datagen::CorpusOptions options;
  options.seed = 7;
  options.num_nucleotides = n;
  options.num_proteins = (2 * n) / 3;
  options.num_enzymes = n / 3;
  options.keyword_fraction = 0.05;
  options.ketone_fraction = 0.10;
  options.ec_link_fraction = 0.40;
  return options;
}

FlatFiles MakeFlatFiles(size_t n, uint64_t seed) {
  datagen::Corpus corpus = datagen::GenerateCorpus(ScaledOptions(n));
  FlatFiles files;
  files.enzyme = datagen::ToEnzymeFlatFile(corpus);
  files.sprot = datagen::ToSwissProtFlatFile(corpus);
  files.embl = datagen::ToEmblFlatFile(corpus);
  // Sequence revisions only: sequences live in their own table and no
  // catalog query reads them, so every catalog answer survives the sync
  // while the changed documents are rewritten.
  common::Rng rng(seed ^ 0x5eed5eedULL);
  size_t changes = std::max<size_t>(1, corpus.nucleotides.size() / 20);
  std::set<size_t> picked;
  while (picked.size() < changes) {
    picked.insert(rng.Uniform(corpus.nucleotides.size()));
  }
  for (size_t i : picked) {
    std::string& seq = corpus.nucleotides[i].sequence;
    size_t pos = rng.Uniform(seq.size());
    seq[pos] = seq[pos] == 'a' ? 'c' : 'a';
    files.changed_uris.push_back("embl:" + corpus.nucleotides[i].id);
  }
  files.embl_variant = datagen::ToEmblFlatFile(corpus);
  return files;
}

Result<std::vector<hounds::TransformedDocument>> SyncTransformer::Transform(
    std::string_view raw) const {
  common::TraceSpan span("hounds.transform");
  return hounds::EmblXmlTransformer::Transform(raw);
}

Result<Stack> LoadStack(const FlatFiles& files, const std::string& dir) {
  Stack stack;
  if (dir.empty()) {
    stack.db = rel::Database::OpenInMemory();
  } else {
    XQ_ASSIGN_OR_RETURN(stack.db, rel::Database::Open(dir));
  }
  XQ_ASSIGN_OR_RETURN(stack.warehouse, hounds::Warehouse::Open(stack.db.get()));
  const hounds::EnzymeXmlTransformer enzyme;
  const hounds::EmblXmlTransformer embl;
  const hounds::SwissProtXmlTransformer sprot;
  struct Source {
    const char* collection;
    const hounds::XmlTransformer* transformer;
    const std::string* raw;
  } sources[] = {{kEnzyme, &enzyme, &files.enzyme},
                 {kEmbl, &embl, &files.embl},
                 {kSprot, &sprot, &files.sprot}};
  for (const Source& s : sources) {
    TracedOp op(kLoadOp);
    XQ_RETURN_IF_ERROR(
        stack.warehouse->LoadSource(s.collection, *s.transformer, *s.raw)
            .status());
  }
  stack.xomatiq = std::make_unique<xq::XomatiQ>(stack.warehouse.get());
  return stack;
}

// ---------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t RowSetHash(const std::vector<Row>& rows) {
  // Sum of per-row hashes over distinct rows: independent of row order.
  std::set<Row> distinct(rows.begin(), rows.end());
  uint64_t sum = distinct.size();
  for (const Row& row : distinct) {
    uint64_t h = 1469598103934665603ull;
    for (const std::string& cell : row) {
      h = Fnv1a(cell, h);
      h = Fnv1a(std::string_view("\x1f", 1), h);
    }
    sum += h * 0x9E3779B97F4A7C15ull;
  }
  return sum;
}

std::vector<Row> RowsOf(const std::vector<rel::Tuple>& tuples) {
  std::vector<Row> rows;
  rows.reserve(tuples.size());
  for (const rel::Tuple& t : tuples) {
    Row row;
    row.reserve(t.size());
    for (const rel::Value& v : t) {
      row.push_back(v.type() == rel::ValueType::kText ? v.AsText()
                                                      : v.ToString());
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<std::vector<Row>> RowsOfXml(std::string_view xml_text) {
  XQ_ASSIGN_OR_RETURN(xml::XmlDocument doc, xml::ParseXml(xml_text));
  std::vector<Row> rows;
  if (doc.root() == nullptr) return rows;
  for (const xml::XmlNode* result : doc.root()->ChildElements()) {
    Row row;
    for (const xml::XmlNode* cell : result->ChildElements()) {
      row.push_back(cell->Text());
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

uint64_t ResponseHash(const srv::Response& resp, bool xml) {
  if (xml) {
    auto rows = RowsOfXml(resp.text);
    return rows.ok() ? RowSetHash(*rows) : 0;
  }
  return RowSetHash(RowsOf(resp.rows));
}

// ---------------------------------------------------------------------
// Query texts (the GUI's three modes, §3.1)
// ---------------------------------------------------------------------

std::string KeywordText(const std::string& term, const std::string& b_return,
                        const std::string& a_return, bool b_first) {
  std::string ret = b_first ? "$b" + b_return + ", $a" + a_return
                            : "$a" + a_return + ", $b" + b_return;
  return "FOR $a IN document(\"hlx_embl.inv\")/hlx_n_sequence,\n"
         "    $b IN document(\"hlx_sprot.all\")/hlx_n_sequence\n"
         "WHERE contains($a, \"" + term + "\", any) AND contains($b, \"" +
         term + "\", any)\nRETURN " + ret;
}

std::string SubtreeText(const std::string& collection,
                        const std::string& root, const std::string& cond_path,
                        const std::string& word,
                        const std::vector<std::string>& returns) {
  std::string ret;
  for (const std::string& r : returns) {
    ret += (ret.empty() ? "$a" : ", $a") + r;
  }
  return "FOR $a IN document(\"" + collection + "\")/" + root +
         "\nWHERE contains($a" + cond_path + ", \"" + word + "\")\nRETURN " +
         ret;
}

std::string JoinText(const std::string& filter_word,
                     const std::vector<std::string>& returns) {
  std::string where =
      "$a//qualifier[@qualifier_type = \"EC number\"] = $b/enzyme_id";
  if (!filter_word.empty()) {
    where += " AND contains($a//description, \"" + filter_word + "\")";
  }
  std::string ret;
  for (size_t i = 0; i < returns.size(); ++i) {
    ret += (i == 0 ? "$c" : ", $c") + std::to_string(i) + " = $a" +
           returns[i];
  }
  return "FOR $a IN document(\"hlx_embl.inv\")/hlx_n_sequence/db_entry,\n"
         "    $b IN document(\"hlx_enzyme.DEFAULT\")/hlx_enzyme/db_entry\n"
         "WHERE " + where + "\nRETURN " + ret;
}

namespace {

Result<std::vector<std::vector<std::string>>> NativeValues(
    const xml::XmlNode& root, const std::vector<std::string>& paths) {
  std::vector<std::vector<std::string>> values;
  for (const std::string& path : paths) {
    XQ_ASSIGN_OR_RETURN(std::vector<baseline::NativeStep> steps,
                        baseline::ParseNativePath(path));
    values.push_back(baseline::EvalPathValues(root, steps));
  }
  return values;
}

// Every combination of one value per column (XQ's binding semantics).
void CrossProduct(const std::vector<std::vector<std::string>>& columns,
                  std::vector<Row>* out) {
  std::vector<Row> acc = {{}};
  for (const auto& column : columns) {
    std::vector<Row> next;
    for (const Row& prefix : acc) {
      for (const std::string& v : column) {
        Row row = prefix;
        row.push_back(v);
        next.push_back(std::move(row));
      }
    }
    acc = std::move(next);
  }
  for (Row& row : acc) out->push_back(std::move(row));
}

}  // namespace

Result<uint64_t> NativeAnswer(
    const baseline::NativeXmlStore& store, const CatalogQuery& q,
    JoinCache* join_cache) {
  std::vector<Row> rows;
  switch (q.mode) {
    case Mode::kKeyword: {
      // Fig 8: every (sprot, embl) document pair that both contain the
      // term, crossed with their return values.
      auto embl_docs = store.KeywordSearch(kEmbl, q.word);
      auto sprot_docs = store.KeywordSearch(kSprot, q.word);
      for (const xml::XmlDocument* b : sprot_docs) {
        XQ_ASSIGN_OR_RETURN(auto bvals,
                            NativeValues(*b->root(), q.right_returns));
        for (const xml::XmlDocument* a : embl_docs) {
          XQ_ASSIGN_OR_RETURN(auto avals, NativeValues(*a->root(), q.returns));
          std::vector<std::vector<std::string>> columns;
          if (q.keyword_b_first) {
            columns = {bvals[0], avals[0]};
          } else {
            columns = {avals[0], bvals[0]};
          }
          CrossProduct(columns, &rows);
        }
      }
      break;
    }
    case Mode::kSubtree: {
      XQ_ASSIGN_OR_RETURN(rows, store.SubtreeQuery(q.collection, q.cond_path,
                                                   q.word, q.returns));
      break;
    }
    case Mode::kJoin: {
      // The native join returns the first value of each $a-side path for
      // every EMBL document whose qualifier equals some enzyme id; the
      // optional description filter applies to the same document.
      std::vector<std::string> paths = q.returns;
      paths.push_back("//description");
      auto cached = join_cache->find(paths);
      if (cached == join_cache->end()) {
        XQ_ASSIGN_OR_RETURN(std::vector<Row> joined,
                            store.JoinQuery(kEmbl, "//qualifier", kEnzyme,
                                            "//enzyme_id", paths));
        cached = join_cache->emplace(paths, std::move(joined)).first;
      }
      for (Row row : cached->second) {
        std::string description = row.back();
        row.pop_back();
        if (q.word.empty() || sql::MatchContains(description, q.word)) {
          rows.push_back(std::move(row));
        }
      }
      break;
    }
    default:
      return Status::InvalidArgument("no native answer for this mode");
  }
  return RowSetHash(rows);
}

// ---------------------------------------------------------------------
// Document view pages (Fig 7b)
// ---------------------------------------------------------------------

Result<std::unique_ptr<Oracle>> LoadOracle(const FlatFiles& files) {
  auto oracle = std::make_unique<Oracle>();
  hounds::EnzymeXmlTransformer enzyme;
  hounds::EmblXmlTransformer embl;
  hounds::SwissProtXmlTransformer sprot;
  struct Source {
    const char* collection;
    const hounds::XmlTransformer* transformer;
    const std::string* raw;
  } sources[] = {{kEnzyme, &enzyme, &files.enzyme},
                 {kEmbl, &embl, &files.embl},
                 {kSprot, &sprot, &files.sprot}};
  for (const Source& s : sources) {
    XQ_ASSIGN_OR_RETURN(std::vector<hounds::TransformedDocument> docs,
                        s.transformer->Transform(*s.raw));
    for (auto& doc : docs) {
      oracle->uris[s.collection].push_back(doc.uri);
      oracle->xml[doc.uri] = xml::WriteXml(doc.document);
      oracle->store.Load(s.collection, std::move(doc.document));
    }
  }
  XQ_ASSIGN_OR_RETURN(std::vector<hounds::TransformedDocument> variant,
                      embl.Transform(files.embl_variant));
  for (auto& doc : variant) {
    std::string text = xml::WriteXml(doc.document);
    if (text != oracle->xml[doc.uri]) {
      oracle->variant_xml[doc.uri] = std::move(text);
    }
  }
  return oracle;
}

Page MakePage(const Oracle& oracle, const std::string& collection,
              std::vector<std::string> uris) {
  Page page;
  page.collection = collection;
  page.uris = std::move(uris);
  uint64_t h = 1469598103934665603ull, hv = h;
  for (const std::string& uri : page.uris) {
    const std::string& base = oracle.xml.at(uri);
    auto it = oracle.variant_xml.find(uri);
    h = Fnv1a(base, h);
    hv = Fnv1a(it == oracle.variant_xml.end() ? base : it->second, hv);
  }
  page.expected = h;
  page.expected_variant = hv;
  return page;
}

std::vector<Page> PickPages(const Oracle& oracle, size_t count,
                            size_t per_page, const std::vector<std::string>&
                                collections, common::Rng* rng) {
  std::vector<Page> pages;
  for (size_t p = 0; p < count; ++p) {
    const std::string& collection = collections[p % collections.size()];
    const std::vector<std::string>& uris = oracle.uris.at(collection);
    size_t take = std::min(per_page, uris.size());
    size_t start = rng->Uniform(uris.size() - take + 1);
    pages.push_back(MakePage(
        oracle, collection,
        std::vector<std::string>(uris.begin() + start,
                                 uris.begin() + start + take)));
  }
  return pages;
}

Result<std::vector<std::string>> ViewPage(hounds::Warehouse* warehouse,
                                          const Page& page) {
  std::vector<std::string> docs;
  docs.reserve(page.uris.size());
  for (const std::string& uri : page.uris) {
    int64_t doc_id = 0;
    xml::XmlDocument doc;
    {
      common::TraceSpan span("datahounds.reconstruct");
      XQ_ASSIGN_OR_RETURN(doc_id, warehouse->FindDocument(uri));
      XQ_ASSIGN_OR_RETURN(doc, warehouse->ReconstructDocument(doc_id));
    }
    common::TraceSpan span("xml.write");
    docs.push_back(xml::WriteXml(doc));
    doc = xml::XmlDocument();  // the DOM's release belongs to this span
  }
  return docs;
}

uint64_t PageHash(const std::vector<std::string>& docs) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& text : docs) h = Fnv1a(text, h);
  return h;
}

// ---------------------------------------------------------------------
// Environment stamp
// ---------------------------------------------------------------------

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

void CpuRotation::Release() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

std::string EnvStampJson(const RunConfig& config, size_t n,
                         const std::string& extra_json) {
  std::ostringstream out;
  out << "{\"cores\": " << std::thread::hardware_concurrency()
      << ", \"exec_pool_width\": " << exec::WorkerPool::Global()->size()
      << ", \"build_type\": \"" << PAPERBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << PAPERBENCH_COMPILER
      << "\", \"workload\": \"" << config.workload
      << "\", \"n\": " << n << ", \"corpus_seed\": "
      << ScaledOptions(n).seed << ", \"seed\": " << config.seed
      << ", \"seconds\": " << config.seconds
      << ", \"trace\": " << (config.trace ? 1 : 0)
      << ", \"smoke\": " << (config.smoke ? 1 : 0);
  if (!extra_json.empty()) out << ", " << extra_json;
  out << "}";
  return out.str();
}

}  // namespace xomatiq::paperbench
