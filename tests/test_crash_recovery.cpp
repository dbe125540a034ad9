// Crash/recovery tests (ISSUE 10): durable index snapshots, server
// crash/restart with a reconciled billing ledger, and client reconnect with
// bitwise-identical attack outcomes.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attack/objective.hpp"
#include "attack/sparse_query.hpp"
#include "baselines/vanilla.hpp"
#include "common/rng.hpp"
#include "fixtures.hpp"
#include "retrieval/index.hpp"
#include "retrieval/ivf_index.hpp"
#include "serve/admission.hpp"
#include "serve/async_handle.hpp"
#include "serve/errors.hpp"
#include "serve/resilient.hpp"
#include "serve/server.hpp"

namespace duo {
namespace {

using duo::testing::TinyWorld;

attack::Perturbation noisy_support(const video::Video& v, std::uint64_t seed) {
  Rng rng(seed);
  attack::Perturbation p = baselines::random_support(v.geometry(), 150, 3, rng);
  Tensor noise =
      Tensor::uniform(v.geometry().tensor_shape(), -10.0f, 10.0f, rng);
  p.magnitude() = noise * p.pixel_mask() * p.frame_mask();
  return p;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::int64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << label << " diverges at element " << i;
  }
}

std::vector<retrieval::GalleryEntry> synthetic_entries(std::int64_t dim,
                                                       std::size_t count,
                                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<retrieval::GalleryEntry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    retrieval::GalleryEntry e;
    e.id = static_cast<std::int64_t>(i);
    e.label = static_cast<int>(i % 5);
    e.feature = Tensor::uniform({dim}, -1.0f, 1.0f, rng);
    entries.push_back(e);
  }
  return entries;
}

void expect_same_neighbors(const std::vector<retrieval::Neighbor>& got,
                           const std::vector<retrieval::Neighbor>& want,
                           const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " rank " << i;
    EXPECT_EQ(got[i].label, want[i].label) << label << " rank " << i;
    // Bitwise, not allclose: a loaded index must answer exactly.
    EXPECT_EQ(got[i].distance_sq, want[i].distance_sq) << label << " rank "
                                                       << i;
  }
}

TEST(CrashRecovery, FlatIndexStateRoundTripsBitwise) {
  constexpr std::int64_t kDim = 6;
  retrieval::RetrievalIndex index(kDim, 3);
  for (const auto& e : synthetic_entries(kDim, 20, 31)) index.add(e);

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  index.save_state(buf);
  retrieval::RetrievalIndex loaded(kDim, 3);
  ASSERT_TRUE(loaded.load_state(buf));
  EXPECT_EQ(loaded.size(), index.size());

  Rng rng(77);
  for (int probe = 0; probe < 4; ++probe) {
    const Tensor q = Tensor::uniform({kDim}, -1.0f, 1.0f, rng);
    expect_same_neighbors(loaded.query(q, 20), index.query(q, 20),
                          "flat probe " + std::to_string(probe));
  }

  // Round-robin cursor survives the round trip: the next add lands on the
  // same shard either way, so subsequent answers keep matching.
  retrieval::GalleryEntry extra;
  extra.id = 1000;
  extra.label = 1;
  extra.feature = Tensor::uniform({kDim}, -1.0f, 1.0f, rng);
  index.add(extra);
  loaded.add(extra);
  const Tensor q = Tensor::uniform({kDim}, -1.0f, 1.0f, rng);
  expect_same_neighbors(loaded.query(q, 21), index.query(q, 21),
                        "flat post-load add");
}

TEST(CrashRecovery, IvfIndexStateRoundTripsBitwise) {
  constexpr std::int64_t kDim = 6;
  for (const bool quantize : {true, false}) {
    for (const bool trained : {true, false}) {
      const std::string label = std::string("ivf quantize=") +
                                (quantize ? "on" : "off") +
                                (trained ? " trained" : " pending");
      retrieval::IndexConfig cfg;
      cfg.kind = retrieval::IndexKind::kIvf;
      cfg.num_nodes = 2;
      cfg.num_cells = 4;
      cfg.nprobe = 4;
      cfg.quantize = quantize;
      cfg.train_after = 1 << 20;  // never auto-train; finalize() decides
      cfg.seed = 7;

      retrieval::IvfIndex index(kDim, cfg);
      for (const auto& e : synthetic_entries(kDim, 40, 41)) index.add(e);
      if (trained) index.finalize();
      ASSERT_EQ(index.trained(), trained) << label;

      std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
      index.save_state(buf);
      retrieval::IvfIndex loaded(kDim, cfg);
      ASSERT_TRUE(loaded.load_state(buf)) << label;
      EXPECT_EQ(loaded.trained(), trained) << label;
      EXPECT_EQ(loaded.size(), index.size()) << label;

      Rng rng(55);
      for (int probe = 0; probe < 4; ++probe) {
        const Tensor q = Tensor::uniform({kDim}, -1.0f, 1.0f, rng);
        expect_same_neighbors(loaded.query(q, 10), index.query(q, 10),
                              label + " probe " + std::to_string(probe));
      }

      if (!trained) {
        // A pending buffer that round-tripped must train to the identical
        // cell structure (same content, same seed → same k-means).
        index.finalize();
        loaded.finalize();
        const Tensor q = Tensor::uniform({kDim}, -1.0f, 1.0f, rng);
        expect_same_neighbors(loaded.query(q, 10), index.query(q, 10),
                              label + " post-load finalize");
      }
    }
  }
}

TEST(CrashRecovery, IndexLoadRejectsMismatchAndCorruption) {
  constexpr std::int64_t kDim = 6;
  retrieval::RetrievalIndex flat(kDim, 2);
  for (const auto& e : synthetic_entries(kDim, 12, 13)) flat.add(e);

  const std::string path = ::testing::TempDir() + "duo_crash_idx.bin";
  std::remove(path.c_str());
  EXPECT_FALSE(retrieval::load_index(flat, path));  // missing file
  ASSERT_TRUE(retrieval::save_index(flat, path));

  // Kind mismatch: a flat snapshot must not load into an IVF index.
  retrieval::IndexConfig icfg;
  icfg.kind = retrieval::IndexKind::kIvf;
  retrieval::IvfIndex ivf(kDim, icfg);
  EXPECT_FALSE(retrieval::load_index(ivf, path));
  EXPECT_EQ(ivf.size(), 0u);  // untouched on failure

  // Dim mismatch.
  retrieval::RetrievalIndex narrow(kDim - 1, 2);
  EXPECT_FALSE(retrieval::load_index(narrow, path));
  EXPECT_EQ(narrow.size(), 0u);

  // A flipped payload byte breaks the fingerprint.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  retrieval::RetrievalIndex fresh(kDim, 2);
  EXPECT_FALSE(retrieval::load_index(fresh, path));
  EXPECT_EQ(fresh.size(), 0u);
  std::remove(path.c_str());
}

// Regression for the IvfIndex move constructor (and the save/load contract):
// the live degraded bit is the serve scheduler's load response, not index
// content — a snapshot taken while degraded must come back up with the
// configured nprobe.
TEST(CrashRecovery, DegradedBitNeverLeaksIntoSnapshotsOrMoves) {
  constexpr std::int64_t kDim = 6;
  retrieval::IndexConfig cfg;
  cfg.kind = retrieval::IndexKind::kIvf;
  cfg.num_cells = 8;
  cfg.nprobe = 8;
  cfg.degraded_nprobe = 1;
  cfg.quantize = false;
  cfg.train_after = 1 << 20;
  cfg.seed = 7;
  retrieval::IvfIndex index(kDim, cfg);
  for (const auto& e : synthetic_entries(kDim, 64, 91)) index.add(e);
  index.finalize();

  Rng rng(17);
  const Tensor q = Tensor::uniform({kDim}, -1.0f, 1.0f, rng);
  const auto healthy = index.query(q, 10);

  ASSERT_TRUE(index.set_degraded(true));
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  index.save_state(buf);

  retrieval::IvfIndex loaded(kDim, cfg);
  ASSERT_TRUE(loaded.load_state(buf));
  EXPECT_FALSE(loaded.degraded());
  expect_same_neighbors(loaded.query(q, 10), healthy,
                        "loaded-from-degraded answers at configured nprobe");

  retrieval::IvfIndex moved(std::move(loaded));
  EXPECT_FALSE(moved.degraded());
  expect_same_neighbors(moved.query(q, 10), healthy, "moved-from-degraded");
}

TEST(CrashRecovery, TokenBucketAndRateLimiterStateRoundTrip) {
  serve::TokenBucket bucket(2.0, 2.0);
  EXPECT_EQ(bucket.try_acquire(10.0), 0.0);
  EXPECT_EQ(bucket.try_acquire(10.0), 0.0);
  EXPECT_GT(bucket.try_acquire(10.0), 0.0);  // burst drained

  // A restored bucket makes the snapshotted bucket's decisions — even when
  // the restore target was configured completely differently (the state
  // carries rate/burst), and even though the burst was empty at snapshot
  // time (no fresh burst after recovery).
  serve::TokenBucket restored(99.0, 50.0);
  restored.restore(bucket.state());
  for (const double t : {11.0, 400.0, 600.0, 610.0, 5000.0}) {
    EXPECT_EQ(restored.try_acquire(t), bucket.try_acquire(t)) << "t=" << t;
  }

  serve::RateLimiter limiter(5.0, 2.0);
  (void)limiter.try_acquire("beta", 0.0);
  (void)limiter.try_acquire("alpha", 0.0);
  (void)limiter.try_acquire("alpha", 0.0);
  const serve::RateLimiter::State snap = limiter.snapshot();
  ASSERT_EQ(snap.buckets.size(), 2u);
  EXPECT_EQ(snap.buckets[0].first, "alpha");  // sorted, deterministic
  EXPECT_EQ(snap.buckets[1].first, "beta");

  serve::RateLimiter fresh(5.0, 2.0);
  fresh.restore(snap);
  EXPECT_EQ(fresh.clients_seen(), 2);
  for (const double t : {1.0, 150.0, 400.0, 401.0}) {
    for (const char* id : {"alpha", "beta", "gamma"}) {
      EXPECT_EQ(fresh.try_acquire(id, t), limiter.try_acquire(id, t))
          << id << " t=" << t;
    }
  }
}

// The slice's persisted histogram for `latencies_ms`; served must equal
// latencies_ms.size().
void set_latencies(serve::ServerSnapshot::ClientSlice& slice,
                   const std::vector<double>& latencies_ms) {
  serve::LatencyHistogram h;
  for (const double ms : latencies_ms) h.record(ms);
  slice.latency_buckets.assign(h.buckets().begin(), h.buckets().end());
  slice.max_latency_ms = h.max_ms();
}

serve::ServerSnapshot sample_snapshot() {
  serve::ServerSnapshot snap;
  snap.epoch = 3;
  snap.batches = 9;
  snap.crashes = 2;
  snap.batch_size_counts = {0, 3, 4, 2};
  snap.occupancy_deciles = {5, 2, 1, 0, 0, 0, 0, 0, 0, 0, 1};
  snap.retry_after_buckets = {1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  snap.degrade_entries = 1;
  snap.degraded_accum_ms = 12.5;
  snap.degraded_served = 6;
  serve::ServerSnapshot::ClientSlice a;
  a.id = "alpha";
  a.served = 10;
  a.faulted = 3;
  a.throttled = 2;
  a.lost = 2;
  set_latencies(a, {0.5, 1.25, 0.5, 0.75, 1.0, 0.5, 1.25, 0.25, 0.5, 1.0});
  serve::ServerSnapshot::ClientSlice b;
  b.id = "beta";
  b.served = 7;
  b.faulted = 1;
  b.rejected = 1;
  b.lost = 1;
  b.expired = 2;
  b.shed = 1;
  set_latencies(b, {9.0, 2.0, 3.5, 0.004, 2.0, 250000.0, 7.5});
  snap.clients = {a, b};
  snap.has_limiter = true;
  snap.limiter.rate = 5.0;
  snap.limiter.burst = 2.0;
  snap.limiter.buckets = {
      {"alpha", serve::TokenBucketState{5.0, 2.0, 0.5, 100.0, true}},
      {"beta", serve::TokenBucketState{5.0, 2.0, 2.0, 0.0, false}},
  };
  return snap;
}

TEST(CrashRecovery, ServerSnapshotFileRoundTripsAndRejectsCorruption) {
  const serve::ServerSnapshot snap = sample_snapshot();
  const std::string path = ::testing::TempDir() + "duo_crash_server.snap";
  std::remove(path.c_str());

  serve::ServerSnapshot loaded;
  EXPECT_FALSE(serve::load_snapshot(loaded, path));  // missing file
  ASSERT_TRUE(serve::save_snapshot(snap, path));
  ASSERT_TRUE(serve::load_snapshot(loaded, path));
  EXPECT_TRUE(loaded == snap);

  // Flip one payload byte: the fingerprint rejects, the output is untouched.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    bytes[bytes.size() - 5] ^= 0x01;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  serve::ServerSnapshot untouched = sample_snapshot();
  untouched.epoch = 42;  // sentinel
  EXPECT_FALSE(serve::load_snapshot(untouched, path));
  EXPECT_EQ(untouched.epoch, 42);

  // Garbage bytes.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a server snapshot";
  }
  EXPECT_FALSE(serve::load_snapshot(loaded, path));

  // Client slices out of order are structurally invalid (the snapshot
  // contract says sorted-by-id); the loader rejects rather than trusting.
  serve::ServerSnapshot unsorted = snap;
  std::swap(unsorted.clients[0], unsorted.clients[1]);
  ASSERT_TRUE(serve::save_snapshot(unsorted, path));
  EXPECT_FALSE(serve::load_snapshot(loaded, path));
  std::remove(path.c_str());
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes,
                 std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(n));
}

// Mutation sweep over a saved DUOSN2 file: every truncation and every
// single-byte flip must be rejected with the target left exactly as it was.
TEST(CrashRecovery, SnapshotLoaderRejectsEveryTruncationAndByteFlip) {
  const std::string good = ::testing::TempDir() + "duo_mutation_good.snap";
  const std::string path = ::testing::TempDir() + "duo_mutation.snap";
  ASSERT_TRUE(serve::save_snapshot(sample_snapshot(), good));
  const std::vector<char> bytes = read_bytes(good);
  ASSERT_GT(bytes.size(), 24u);  // magic + fingerprint + size + payload

  serve::ServerSnapshot sentinel = sample_snapshot();
  sentinel.epoch = 42;
  const serve::ServerSnapshot expected = sentinel;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    write_bytes(path, bytes, cut);
    ASSERT_FALSE(serve::load_snapshot(sentinel, path)) << "cut at " << cut;
    ASSERT_TRUE(sentinel == expected) << "cut at " << cut;
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<char> flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
    write_bytes(path, flipped, flipped.size());
    ASSERT_FALSE(serve::load_snapshot(sentinel, path)) << "flip at " << i;
    ASSERT_TRUE(sentinel == expected) << "flip at " << i;
  }
  // The unmutated file still loads exactly.
  serve::ServerSnapshot loaded;
  ASSERT_TRUE(serve::load_snapshot(loaded, good));
  EXPECT_TRUE(loaded == sample_snapshot());
  std::remove(good.c_str());
  std::remove(path.c_str());
}

// Well-fingerprinted files that are structurally wrong: a histogram with
// the wrong bucket count, a negative bucket, buckets that do not sum to the
// slice's served count, and a DUOSN1 magic in front of a valid payload.
TEST(CrashRecovery, SnapshotLoaderRejectsMalformedHistogramsAndOldMagic) {
  const std::string path = ::testing::TempDir() + "duo_malformed.snap";
  serve::ServerSnapshot sentinel = sample_snapshot();
  sentinel.epoch = 42;
  const serve::ServerSnapshot expected = sentinel;
  const auto rejects = [&](const serve::ServerSnapshot& bad) {
    if (!serve::save_snapshot(bad, path)) return false;
    return !serve::load_snapshot(sentinel, path) && sentinel == expected;
  };

  serve::ServerSnapshot short_histogram = sample_snapshot();
  short_histogram.clients[0].latency_buckets.pop_back();
  EXPECT_TRUE(rejects(short_histogram));

  serve::ServerSnapshot long_histogram = sample_snapshot();
  long_histogram.clients[1].latency_buckets.push_back(0);
  EXPECT_TRUE(rejects(long_histogram));

  // Same sum, but one bucket negative.
  serve::ServerSnapshot negative = sample_snapshot();
  negative.clients[0].latency_buckets[0] -= 1;
  negative.clients[0].latency_buckets[1] += 1;
  ASSERT_LT(negative.clients[0].latency_buckets[0], 0);
  EXPECT_TRUE(rejects(negative));

  serve::ServerSnapshot miscounted = sample_snapshot();
  miscounted.clients[1].served += 1;
  EXPECT_TRUE(rejects(miscounted));

  serve::ServerSnapshot empty_histogram = sample_snapshot();
  empty_histogram.clients[0].latency_buckets.clear();
  EXPECT_TRUE(rejects(empty_histogram));

  // The fingerprint covers only the payload, so relabelling a valid file
  // DUOSN1 leaves it otherwise intact: the version check alone rejects it.
  ASSERT_TRUE(serve::save_snapshot(sample_snapshot(), path));
  std::vector<char> bytes = read_bytes(path);
  ASSERT_EQ(std::string(bytes.data(), 6), "DUOSN2");
  bytes[5] = '1';
  write_bytes(path, bytes, bytes.size());
  EXPECT_FALSE(serve::load_snapshot(sentinel, path));
  EXPECT_TRUE(sentinel == expected);
  std::remove(path.c_str());
}

// The core lifecycle: crash() fails every queued request as a billed
// connection loss, submits during downtime bounce unbilled, and restart(snap)
// resumes serving with the epoch bumped and the ledger intact.
TEST(CrashRecovery, CrashFailsQueuedRequestsBilledAndRestartResumes) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[2];
  const auto ref = w.victim->retrieve(v, 8);

  serve::ServerConfig scfg;
  // Latency-aware batching keeps sub-max_batch submissions queued (a real
  // wall-time wait), so the two requests below are deterministically still
  // in the queue when crash() lands microseconds later.
  scfg.max_batch = 4;
  scfg.batch_timeout_ms = 1500.0;
  serve::RetrievalServer server(*w.victim, scfg);
  serve::RequestOptions opts;
  opts.client_id = "crash-client";

  EXPECT_THROW((void)server.snapshot(), std::logic_error);  // running
  EXPECT_THROW(server.restart(), std::logic_error);

  auto f1 = server.submit(v, 8, opts);
  auto f2 = server.submit(v, 8, opts);
  server.crash();
  EXPECT_TRUE(server.stopped());
  EXPECT_TRUE(server.crashed());
  server.crash();  // idempotent

  for (auto* f : {&f1, &f2}) {
    try {
      (void)f->get();
      FAIL() << "queued request must die with the crash";
    } catch (const serve::ServeError& e) {
      EXPECT_TRUE(e.connection_lost());
      EXPECT_TRUE(e.retryable());
      EXPECT_TRUE(e.billed());  // accepted before the crash → stays billed
      EXPECT_FALSE(e.overload());
    }
  }

  // Down, not shut down: a submit bounces with the retryable reconnect
  // error and bills nothing.
  auto f3 = server.submit(v, 8, opts);
  try {
    (void)f3.get();
    FAIL() << "submit while crashed must fail";
  } catch (const serve::ServeError& e) {
    EXPECT_TRUE(e.connection_lost());
    EXPECT_FALSE(e.billed());
  }

  serve::ServerSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.epoch, 1);
  EXPECT_EQ(snap.crashes, 1);
  ASSERT_EQ(snap.clients.size(), 1u);
  EXPECT_EQ(snap.clients[0].id, "crash-client");
  EXPECT_EQ(snap.clients[0].lost, 2);
  EXPECT_EQ(snap.clients[0].faulted, 2);

  server.restart(snap);
  EXPECT_FALSE(server.stopped());
  EXPECT_FALSE(server.crashed());
  EXPECT_EQ(server.epoch(), 2);

  auto f4 = server.submit(v, 8, opts);
  EXPECT_EQ(f4.get(), ref);  // bitwise-identical answers after recovery
  server.shutdown();

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.server_epoch, 2);
  EXPECT_EQ(st.crashes, 1);
  EXPECT_EQ(st.queries_served, 1);
  EXPECT_EQ(st.requests_lost, 2);
  EXPECT_EQ(st.faults_injected, 2);
  // Ledger formula holds verbatim across the crash: lost ⊂ faulted.
  EXPECT_EQ(st.queries_served + st.faults_injected + st.requests_expired +
                st.requests_shed,
            3);
  const auto it = st.per_client.find("crash-client");
  ASSERT_NE(it, st.per_client.end());
  EXPECT_EQ(it->second.billed(), 3);
  EXPECT_EQ(it->second.lost, 2);

  // A snapshot with mangled histogram shapes must not restore.
  serve::ServerSnapshot bad = server.snapshot();
  bad.occupancy_deciles.resize(2);
  EXPECT_THROW(server.restart(bad), std::logic_error);
}

// A crashed server is down, so it must not run its rate limiter either:
// reconnect attempts during the downtime bounce as connection losses
// without spending the client's tokens. Otherwise a resilient client that
// resubmits through the downtime drains its bucket, gets throttled, and
// spends its retry attempts before the restart (the campaign crash
// schedule then fails intermittently, depending on how long the restart
// takes in real time).
TEST(CrashRecovery, SubmitsWhileCrashedDoNotSpendRateLimitTokens) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[2];
  const auto ref = w.victim->retrieve(v, 8);

  serve::ServerConfig scfg;
  scfg.clock = std::make_shared<serve::VirtualClock>();  // no refill
  scfg.client_rate = 500.0;
  scfg.client_burst = 2.0;
  serve::RetrievalServer server(*w.victim, scfg);
  serve::RequestOptions opts;
  opts.client_id = "reconnecting-client";

  server.crash();
  for (int i = 0; i < 5; ++i) {
    auto f = server.submit(v, 8, opts);
    try {
      (void)f.get();
      FAIL() << "submit while crashed must fail";
    } catch (const serve::ServeError& e) {
      EXPECT_TRUE(e.connection_lost()) << "attempt " << i << ": " << e.what();
      EXPECT_FALSE(e.billed());
    }
  }
  const serve::ServerSnapshot snap = server.snapshot();
  for (const auto& c : snap.clients) EXPECT_EQ(c.throttled, 0) << c.id;

  // The full burst is still there after the restart, at the same clock time.
  server.restart(snap);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(server.submit(v, 8, opts).get(), ref) << "request " << i;
  }
  server.shutdown();
  EXPECT_EQ(server.stats().requests_throttled, 0);
}

TEST(CrashRecovery, RestartWithoutSnapshotStartsFreshLedger) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[3];
  serve::RetrievalServer server(*w.victim);
  (void)server.submit(v, 8).get();
  server.shutdown();
  EXPECT_EQ(server.stats().queries_served, 1);

  server.restart();  // fresh process: accounting starts over, epoch moves on
  EXPECT_EQ(server.epoch(), 2);
  EXPECT_EQ(server.stats().queries_served, 0);
  (void)server.submit(v, 8).get();
  server.shutdown();
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.queries_served, 1);
  EXPECT_EQ(st.server_epoch, 2);
}

// ISSUE satellite: the server dies with a pipelined ±ε candidate pair in
// flight. The resilient client replays both across the restart; each is
// billed exactly once more, answers are bitwise identical, and the ledger
// reconciles client-side vs server-side.
TEST(CrashRecovery, PipelinedPairReplaysAcrossRestartBitwise) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v_plus = w.dataset.train[1];
  const auto& v_minus = w.dataset.train[9];
  const auto ref_plus = w.victim->retrieve(v_plus, 8);
  const auto ref_minus = w.victim->retrieve(v_minus, 8);

  serve::ServerConfig scfg;
  scfg.max_batch = 4;
  scfg.batch_timeout_ms = 1000.0;  // holds both candidates queued (see above)
  serve::RetrievalServer server(*w.victim, scfg);
  serve::RequestOptions opts;
  opts.client_id = "attacker";
  serve::AsyncBlackBoxHandle async(server, opts);
  serve::RetryPolicy policy;
  policy.query_timeout = std::chrono::milliseconds(20000);
  serve::ResilientHandle resilient(async, policy);

  auto plus = resilient.submit(v_plus, 8);
  auto minus = resilient.submit(v_minus, 8);
  server.crash();
  serve::ServerSnapshot snap = server.snapshot();
  ASSERT_EQ(snap.clients.size(), 1u);
  EXPECT_EQ(snap.clients[0].lost, 2);
  server.restart(snap);

  // get() classifies the connection loss, waits out the downtime (already
  // over), and resubmits — in submission order, so the ±ε replay sequence
  // matches the crash-free schedule.
  EXPECT_EQ(plus.get(), ref_plus);
  EXPECT_EQ(minus.get(), ref_minus);
  server.shutdown();

  EXPECT_EQ(resilient.connection_losses(), 2);
  EXPECT_EQ(resilient.retries(), 0);  // reconnects are not attempt-counted
  EXPECT_EQ(resilient.queries_billed(), 4);  // lost pair + replayed pair

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.server_epoch, 2);
  EXPECT_EQ(st.queries_served, 2);
  EXPECT_EQ(st.requests_lost, 2);
  EXPECT_EQ(st.queries_served + st.faults_injected + st.requests_expired +
                st.requests_shed,
            resilient.queries_billed());
  const auto it = st.per_client.find("attacker");
  ASSERT_NE(it, st.per_client.end());
  EXPECT_EQ(it->second.billed(), 4);
  EXPECT_EQ(it->second.lost, 2);
}

// ISSUE acceptance (direct form): a pipelined sparse-query attack rides out
// two abrupt crash/restart cycles — snapshot-restored each time — and its
// trajectory and adversarial video stay bitwise identical to the crash-free
// reference, with the billing ledger reconciled exactly.
TEST(CrashRecovery, SparseAttackSurvivesCrashRestartCyclesBitwise) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[1];
  const auto& vt = w.dataset.train[9];
  retrieval::BlackBoxHandle direct(*w.victim);
  const auto ctx = attack::make_objective_context(direct, v, vt, 8);
  const attack::Perturbation pert = noisy_support(v, 21);

  attack::SparseQueryConfig cfg;
  cfg.iter_numQ = 16;
  cfg.m = 8;
  const auto ref = attack::sparse_query(v, pert, direct, ctx, cfg);

  serve::RetrievalServer server(*w.victim);
  serve::AsyncBlackBoxHandle async(server);
  serve::RetryPolicy policy;
  // Generous answer timeout: crash losses surface as fast typed failures,
  // not timeouts, so the timeout only needs to cover honest (possibly
  // sanitizer-slowed) service.
  policy.query_timeout = std::chrono::milliseconds(20000);
  serve::ResilientHandle resilient(async, policy);

  // Two abrupt mid-attack crash/restart cycles from a chaos thread, each
  // restored from an accounting snapshot. If the attack outruns the chaos
  // schedule on a fast machine, the cycles hit an idle server — the bitwise
  // and ledger assertions below hold either way.
  std::thread chaos([&server] {
    for (int cycle = 0; cycle < 2; ++cycle) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      server.crash();
      serve::ServerSnapshot snap = server.snapshot();
      server.restart(snap);
    }
  });

  std::optional<attack::SparseQueryResult> got;
  try {
    got = attack::sparse_query_pipelined(v, pert, resilient, ctx, cfg);
  } catch (const std::exception& e) {
    chaos.join();
    server.shutdown();
    FAIL() << "crashes must never surface through the reconnect policy: "
           << e.what();
  }
  chaos.join();
  server.shutdown();

  EXPECT_EQ(got->t_history, ref.t_history);
  expect_bitwise_equal(got->v_adv.data(), ref.v_adv.data(), "v_adv");
  EXPECT_GE(got->queries_spent, ref.queries_spent);

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.crashes, 2);
  EXPECT_EQ(st.server_epoch, 3);
  // Every lost request was a billed connection loss the client survived;
  // unbilled bounces during downtime are counted client-side only.
  EXPECT_GE(resilient.connection_losses(), st.requests_lost);
  // Ledger reconciliation across both restarts, global and per client.
  const std::int64_t server_billed = st.queries_served + st.faults_injected +
                                     st.requests_expired + st.requests_shed;
  EXPECT_EQ(server_billed, resilient.queries_billed());
  std::int64_t client_sum = 0;
  std::int64_t lost_sum = 0;
  for (const auto& [id, c] : st.per_client) {
    client_sum += c.billed();
    lost_sum += c.lost;
  }
  EXPECT_EQ(client_sum, server_billed);
  EXPECT_EQ(lost_sum, st.requests_lost);
}

}  // namespace
}  // namespace duo
