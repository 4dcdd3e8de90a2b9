// xomatiq_server: the XomatiQ query service over TCP.
//
//   xomatiq_server [--port N] [--workers N] [--exec-workers N] [--queue N]
//                  [--cache N] [--db DIR] [--demo N] [--admin-port N]
//                  [--slow-ms MS]
//                  [--replication-port N | --replica-of HOST:PORT]
//
// Serves SQL and XomatiQ queries against one shared warehouse. --db opens
// (or creates) a durable database directory; without it the server runs
// in-memory. --demo N loads a deterministic N-entry synthetic corpus
// (ENZYME + Swiss-Prot + EMBL collections) so the shell has something to
// query out of the box. Connect with xomatiq_shell.
//
// Replication (see DESIGN.md "Replication"):
//   --replication-port N   act as a primary: ship WAL records to any
//                          replica that connects on port N.
//   --replica-of H:P       act as a read replica of the primary whose
//                          replication port is H:P — bootstrap from a
//                          snapshot, tail the WAL, reject writes with a
//                          typed READ_ONLY error, and honor min_lsn
//                          read-your-writes tokens.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/query_log.h"
#include "datagen/corpus.h"
#include "exec/worker_pool.h"
#include "datahounds/warehouse.h"
#include "relational/database.h"
#include "replication/repl_server.h"
#include "replication/replica.h"
#include "server/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

void LoadDemo(xomatiq::hounds::Warehouse* warehouse, size_t n) {
  using namespace xomatiq;
  datagen::CorpusOptions options;
  options.num_enzymes = n;
  options.num_proteins = n;
  options.num_nucleotides = n;
  options.ketone_fraction = 0.15;  // same planted keyword as xq_shell's \demo
  datagen::Corpus corpus = datagen::GenerateCorpus(options);

  hounds::EnzymeXmlTransformer enzyme;
  hounds::SwissProtXmlTransformer sprot;
  hounds::EmblXmlTransformer embl;
  struct Load {
    const char* collection;
    const hounds::XmlTransformer* transformer;
    std::string flatfile;
  } loads[] = {
      {"hlx_enzyme.DEFAULT", &enzyme, datagen::ToEnzymeFlatFile(corpus)},
      {"hlx_sprot.DEFAULT", &sprot, datagen::ToSwissProtFlatFile(corpus)},
      {"hlx_embl.inv", &embl, datagen::ToEmblFlatFile(corpus)},
  };
  for (const Load& load : loads) {
    auto stats =
        warehouse->LoadSource(load.collection, *load.transformer,
                              load.flatfile);
    if (!stats.ok()) {
      std::fprintf(stderr, "demo load %s: %s\n", load.collection,
                   stats.status().ToString().c_str());
      std::exit(1);
    }
    std::printf("loaded %-20s %zu documents\n", load.collection,
                stats->documents);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xomatiq;

  srv::ServerOptions options;
  options.port = 7333;
  std::string db_dir;
  size_t demo = 0;
  size_t cache_capacity = 256;
  int replication_port = -1;        // >= 0: primary, ship WAL on this port
  std::string replica_of;           // "host:port": replica of that primary
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      options.port = static_cast<uint16_t>(std::atoi(next("--port")));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      options.workers = static_cast<size_t>(std::atoi(next("--workers")));
    } else if (std::strcmp(argv[i], "--exec-workers") == 0) {
      // Width of the process-wide intra-query worker pool (morsel-driven
      // parallel operators). Distinct from --workers, which sizes the
      // one-thread-per-query service pool; per-query admission splits the
      // exec pool fairly among whatever those sessions run concurrently.
      // Default: hardware concurrency - 1. 0 disables parallel execution.
      exec::WorkerPool::ConfigureGlobal(
          static_cast<size_t>(std::atoi(next("--exec-workers"))));
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      options.max_queue = static_cast<size_t>(std::atoi(next("--queue")));
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      cache_capacity = static_cast<size_t>(std::atoi(next("--cache")));
    } else if (std::strcmp(argv[i], "--db") == 0) {
      db_dir = next("--db");
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      demo = static_cast<size_t>(std::atoi(next("--demo")));
    } else if (std::strcmp(argv[i], "--admin-port") == 0) {
      options.admin_port = std::atoi(next("--admin-port"));
    } else if (std::strcmp(argv[i], "--slow-ms") == 0) {
      xomatiq::common::QueryLog::Global().set_slow_threshold_ns(
          static_cast<uint64_t>(std::atof(next("--slow-ms")) * 1e6));
    } else if (std::strcmp(argv[i], "--replication-port") == 0) {
      replication_port = std::atoi(next("--replication-port"));
    } else if (std::strcmp(argv[i], "--replica-of") == 0) {
      replica_of = next("--replica-of");
    } else {
      std::fprintf(stderr,
                   "usage: xomatiq_server [--port N] [--workers N] "
                   "[--exec-workers N] [--queue N] [--cache N] [--db DIR] "
                   "[--demo N] [--admin-port N] [--slow-ms MS] "
                   "[--replication-port N | --replica-of HOST:PORT]\n");
      return 2;
    }
  }
  if (replication_port >= 0 && !replica_of.empty()) {
    std::fprintf(stderr,
                 "--replication-port and --replica-of are exclusive: a node "
                 "is a primary or a replica, not both\n");
    return 2;
  }
  const bool is_replica = !replica_of.empty();

  std::unique_ptr<rel::Database> db;
  if (db_dir.empty()) {
    db = rel::Database::OpenInMemory();
  } else {
    auto opened = rel::Database::Open(db_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "open %s: %s\n", db_dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    db = std::move(opened).value();
  }

  // Replica bring-up must precede Warehouse::Open: the warehouse would
  // create its schema locally (local WAL records, diverging LSNs) when the
  // catalog is empty, whereas the applier installs the primary's state
  // verbatim and the warehouse then just finds it.
  std::unique_ptr<repl::ReplicaApplier> applier;
  if (is_replica) {
    size_t colon = replica_of.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--replica-of wants HOST:PORT, got %s\n",
                   replica_of.c_str());
      return 2;
    }
    repl::ReplicaApplierOptions ropts;
    ropts.primary_host = replica_of.substr(0, colon);
    ropts.primary_port =
        static_cast<uint16_t>(std::atoi(replica_of.c_str() + colon + 1));
    applier = std::make_unique<repl::ReplicaApplier>(db.get(), ropts);
    if (auto status = applier->Start(); !status.ok()) {
      std::fprintf(stderr, "replica start: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("replica of %s: catching up...\n", replica_of.c_str());
    if (auto status = applier->WaitUntilCaughtUp(/*timeout_ms=*/60000);
        !status.ok()) {
      std::fprintf(stderr, "replica catch-up: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("caught up at lsn %llu\n",
                static_cast<unsigned long long>(applier->applied_lsn()));
  }

  auto warehouse = hounds::Warehouse::Open(db.get());
  if (!warehouse.ok()) {
    std::fprintf(stderr, "open warehouse: %s\n",
                 warehouse.status().ToString().c_str());
    return 1;
  }
  if (demo > 0) {
    if (is_replica) {
      std::fprintf(stderr, "--demo is a write; load it on the primary\n");
      return 2;
    }
    LoadDemo(warehouse->get(), demo);
  }

  if (cache_capacity > 0) {
    options.service.cache = std::make_shared<srv::ResultCache>(cache_capacity);
  }
  std::unique_ptr<repl::ReplicationServer> shipper;
  if (replication_port >= 0) {
    repl::ReplicationServerOptions sopts;
    sopts.host = options.host;
    sopts.port = static_cast<uint16_t>(replication_port);
    shipper = std::make_unique<repl::ReplicationServer>(db.get(), sopts);
    if (auto status = shipper->Start(); !status.ok()) {
      std::fprintf(stderr, "replication start: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    options.replication_statusz = [s = shipper.get()] {
      return s->StatuszJson();
    };
  }
  if (is_replica) {
    options.service.read_only = true;
    options.service.wait_for_lsn = [a = applier.get()](uint64_t lsn,
                                                       uint32_t budget_ms) {
      return a->WaitForLsn(lsn, budget_ms);
    };
    options.replication_statusz = [a = applier.get()] {
      return a->StatuszJson();
    };
    options.replica_ready = [a = applier.get()] { return a->ready(); };
  }

  srv::QueryServer server(warehouse->get(), options);
  if (auto status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "start: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("xomatiq_server listening on %s:%u (%zu workers, queue %zu, "
              "cache %zu)%s\n",
              options.host.c_str(), server.port(), options.workers,
              options.max_queue, cache_capacity,
              is_replica ? " [read-only replica]" : "");
  if (shipper != nullptr) {
    std::printf("shipping WAL to replicas on %s:%u\n", options.host.c_str(),
                shipper->port());
  }
  if (server.admin_port() != 0) {
    std::printf("admin endpoint on http://%s:%u/ "
                "(/metrics /healthz /statusz /queryz /tracez)\n",
                options.host.c_str(), server.admin_port());
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop) {
    struct timespec ts = {0, 200 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  std::printf("shutting down (draining in-flight queries)\n");
  server.Shutdown();
  if (shipper != nullptr) shipper->Shutdown();
  if (applier != nullptr) applier->Shutdown();
  return 0;
}
