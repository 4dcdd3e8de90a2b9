// Concurrency audit without TCP: hammers one Database/Warehouse/XomatiQ
// stack from reader threads while a writer syncs the warehouse, exactly
// the interleavings the server's worker pool produces, and checks that a
// cached answer is never older than a sync that finished before the
// request was sent. Run under -DXOMATIQ_SANITIZE_THREAD=ON in CI; any data
// race is a test failure there even when the assertions below pass.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/corpus.h"
#include "datahounds/warehouse.h"
#include "relational/database.h"
#include "server/query_service.h"
#include "server/thread_pool.h"
#include "xomatiq/xomatiq.h"

namespace xomatiq::srv {
namespace {

constexpr char kEnzymes[] = "hlx_enzyme.DEFAULT";
constexpr char kEnzymeIdsXq[] =
    "FOR $a IN document(\"hlx_enzyme.DEFAULT\")/hlx_enzyme "
    "RETURN $a//enzyme_id";

datagen::Corpus MakeCorpus(size_t n) {
  datagen::CorpusOptions options;
  options.num_enzymes = n;
  options.num_proteins = n;
  options.num_nucleotides = 0;
  options.ketone_fraction = 0.5;
  return datagen::GenerateCorpus(options);
}

struct Stack {
  std::unique_ptr<rel::Database> db;
  std::unique_ptr<hounds::Warehouse> warehouse;
  hounds::EnzymeXmlTransformer enzyme;
  hounds::SwissProtXmlTransformer sprot;

  explicit Stack(size_t n = 12) {
    db = rel::Database::OpenInMemory();
    auto opened = hounds::Warehouse::Open(db.get());
    EXPECT_TRUE(opened.ok());
    warehouse = std::move(opened).value();
    datagen::Corpus corpus = MakeCorpus(n);
    EXPECT_TRUE(warehouse
                    ->LoadSource(kEnzymes, enzyme,
                                 datagen::ToEnzymeFlatFile(corpus))
                    .ok());
    EXPECT_TRUE(warehouse
                    ->LoadSource("hlx_sprot.DEFAULT", sprot,
                                 datagen::ToSwissProtFlatFile(corpus))
                    .ok());
  }
};

TEST(ConcurrencyTest, ReadersProceedWhileWriterSyncs) {
  Stack stack;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 6; ++t) {
    readers.emplace_back([&, t] {
      sql::SqlEngine engine(stack.db.get());
      xq::XomatiQ xomatiq(stack.warehouse.get());
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if ((t + i++) % 2 == 0) {
          auto result = engine.Execute(
              "SELECT COUNT(*) FROM xml_node");
          if (!result.ok()) failures.fetch_add(1);
        } else {
          auto result = xomatiq.Execute(kEnzymeIdsXq);
          if (!result.ok()) failures.fetch_add(1);
        }
        // Leave gaps between shared acquisitions: back-to-back readers
        // would starve the writer on reader-preferring rwlocks and turn
        // this into a minutes-long test.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  // Writer: repeated syncs alternating between two corpus sizes, so every
  // round adds or removes documents under the exclusive latch.
  std::string small = datagen::ToEnzymeFlatFile(MakeCorpus(12));
  std::string large = datagen::ToEnzymeFlatFile(MakeCorpus(14));
  for (int round = 0; round < 4; ++round) {
    auto stats = stack.warehouse->SyncSource(
        kEnzymes, stack.enzyme, (round % 2 == 0) ? large : small);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, QueryServiceParallelMixedModes) {
  Stack stack;
  auto cache = std::make_shared<ResultCache>(64);
  ServiceOptions service_options;
  service_options.cache = cache;
  QueryService service(stack.warehouse.get(), service_options);
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      auto session = service.StartSession();
      for (int i = 0; i < 30; ++i) {
        Request request;
        request.id = static_cast<uint64_t>(t * 1000 + i);
        switch ((t + i) % 3) {
          case 0:
            request.mode = common::QueryMode::kSql;
            request.text = "SELECT COUNT(*) FROM xml_node";
            break;
          case 1:
            request.mode = common::QueryMode::kXq;
            request.text = kEnzymeIdsXq;
            break;
          default:
            request.mode = common::QueryMode::kStats;
            break;
        }
        auto response = DecodeResponse(session->Handle(request));
        if (!response.ok() || !response->ok() ||
            response->id != request.id) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  // The repeated identical queries must have produced cache hits.
  EXPECT_GT(cache->size(), 0u);
}

TEST(ConcurrencyTest, CachedAnswersNeverOlderThanCompletedSync) {
  Stack stack;  // 12 enzymes
  auto cache = std::make_shared<ResultCache>(64);
  ServiceOptions service_options;
  service_options.cache = cache;
  QueryService service(stack.warehouse.get(), service_options);
  // Each finished sync adds one enzyme: once `syncs` reads k, every
  // snapshot pinned afterwards holds at least 12 + k of them.
  std::atomic<size_t> syncs{0};
  std::atomic<bool> stop{false};
  std::atomic<int> failed{0};
  std::atomic<int> stale{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      auto session = service.StartSession();
      uint64_t id = static_cast<uint64_t>(t) << 32;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t done = syncs.load(std::memory_order_acquire);
        Request request;
        request.id = ++id;
        request.mode = common::QueryMode::kXq;
        request.text = kEnzymeIdsXq;
        auto response = DecodeResponse(session->Handle(request));
        if (!response.ok() || !response->ok()) {
          failed.fetch_add(1);
          continue;
        }
        if (response->rows.size() < 12 + done) stale.fetch_add(1);
        if (response->cached()) hits.fetch_add(1);
      }
    });
  }
  for (size_t n = 13; n <= 20; ++n) {
    auto synced = stack.warehouse->SyncSource(
        kEnzymes, stack.enzyme, datagen::ToEnzymeFlatFile(MakeCorpus(n)));
    EXPECT_TRUE(synced.ok()) << synced.status().ToString();
    if (!synced.ok()) break;  // still stop and join the readers
    syncs.fetch_add(1, std::memory_order_release);
  }
  // Readers keep going at the final epoch until one is served from cache.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (hits.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(stale.load(), 0) << "answers older than a finished sync";
  EXPECT_GT(hits.load(), 0);
}

TEST(BoundedThreadPoolTest, RefusesWhenQueueFull) {
  BoundedThreadPool pool(1, 1);
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  // Occupy the single worker ...
  ASSERT_TRUE(pool.TryEnqueue([&] {
    while (!release.load()) std::this_thread::yield();
    ran.fetch_add(1);
  }));
  // ... wait for it to be picked up, then fill the single queue slot.
  while (pool.queue_depth() > 0) std::this_thread::yield();
  ASSERT_TRUE(pool.TryEnqueue([&] { ran.fetch_add(1); }));
  // Queue is now full: admission must refuse, not block.
  EXPECT_FALSE(pool.TryEnqueue([&] { ran.fetch_add(1); }));
  release.store(true);
  pool.Drain();
  EXPECT_EQ(ran.load(), 2);
  // After Drain everything is refused.
  EXPECT_FALSE(pool.TryEnqueue([] {}));
}

TEST(BoundedThreadPoolTest, DrainWaitsForQueuedTasks) {
  BoundedThreadPool pool(2, 16);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(pool.TryEnqueue([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ran.fetch_add(1);
    }));
  }
  pool.Drain();
  EXPECT_EQ(ran.load(), 16);
}

}  // namespace
}  // namespace xomatiq::srv
