#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "attack/checkpoint.hpp"
#include "models/feature_extractor.hpp"
#include "models/serialization.hpp"
#include "retrieval/index.hpp"
#include "serve/server.hpp"
#include "video/synthetic.hpp"

namespace {
// Largest single request operator new has seen since the last reset; the
// framed-file tests read it to show that a header's size claim is refused
// before any buffer is sized from it.
std::atomic<std::size_t> g_largest_new{0};
}  // namespace

void* operator new(std::size_t size) {
  std::size_t seen = g_largest_new.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_new.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so GCC does not pair an inlined free() with the new
// expression it came from and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace duo::models {
namespace {

video::VideoGeometry geo() { return {8, 12, 12, 3}; }

video::Video probe_video() {
  auto spec = video::DatasetSpec::hmdb51_like(3);
  spec.geometry = geo();
  return video::SyntheticGenerator(spec).make_video(0, 0, 99);
}

TEST(Serialization, RoundTripRestoresExactFeatures) {
  Rng rng(1);
  auto model = make_extractor(ModelKind::kC3D, geo(), 16, rng);
  model->set_training(false);
  const video::Video v = probe_video();
  const Tensor before = model->extract(v);

  const std::string path = "/tmp/duo_test_weights.duow";
  ASSERT_TRUE(save_parameters(*model, path));

  // A differently seeded model produces different features; loading the
  // checkpoint must restore the original exactly.
  Rng rng2(2);
  auto other = make_extractor(ModelKind::kC3D, geo(), 16, rng2);
  other->set_training(false);
  EXPECT_FALSE(other->extract(v).allclose(before));
  ASSERT_TRUE(load_parameters(*other, path));
  EXPECT_TRUE(other->extract(v).allclose(before));
  std::remove(path.c_str());
}

TEST(Serialization, RejectsArchitectureMismatch) {
  Rng rng(3);
  auto c3d = make_extractor(ModelKind::kC3D, geo(), 16, rng);
  auto tpn = make_extractor(ModelKind::kTPN, geo(), 16, rng);

  const std::string path = "/tmp/duo_test_weights_mismatch.duow";
  ASSERT_TRUE(save_parameters(*c3d, path));
  EXPECT_FALSE(load_parameters(*tpn, path));
  std::remove(path.c_str());
}

TEST(Serialization, RejectsFeatureDimMismatch) {
  Rng rng(4);
  auto narrow = make_extractor(ModelKind::kC3D, geo(), 8, rng);
  auto wide = make_extractor(ModelKind::kC3D, geo(), 16, rng);
  const std::string path = "/tmp/duo_test_weights_dim.duow";
  ASSERT_TRUE(save_parameters(*narrow, path));
  EXPECT_FALSE(load_parameters(*wide, path));
  std::remove(path.c_str());
}

TEST(Serialization, RejectsGarbageFile) {
  const std::string path = "/tmp/duo_test_weights_garbage.duow";
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a checkpoint";
  }
  Rng rng(5);
  auto model = make_extractor(ModelKind::kC3D, geo(), 16, rng);
  EXPECT_FALSE(load_parameters(*model, path));
  std::remove(path.c_str());
}

TEST(Serialization, MissingFileFailsCleanly) {
  Rng rng(6);
  auto model = make_extractor(ModelKind::kC3D, geo(), 16, rng);
  EXPECT_FALSE(load_parameters(*model, "/tmp/no_such_checkpoint.duow"));
}

TEST(Serialization, TruncatedFileRejectedWithoutPartialLoad) {
  Rng rng(7);
  auto model = make_extractor(ModelKind::kC3D, geo(), 16, rng);
  model->set_training(false);
  const video::Video v = probe_video();

  const std::string path = "/tmp/duo_test_weights_trunc.duow";
  ASSERT_TRUE(save_parameters(*model, path));
  // Truncate the file to half its size.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto full = in.tellg();
  in.seekg(0);
  std::vector<char> data(static_cast<std::size_t>(full) / 2);
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();

  Rng rng2(8);
  auto other = make_extractor(ModelKind::kC3D, geo(), 16, rng2);
  other->set_training(false);
  const Tensor before = other->extract(v);
  EXPECT_FALSE(load_parameters(*other, path));
  // All-or-nothing: the failed load must not have modified any parameter.
  EXPECT_TRUE(other->extract(v).allclose(before));
  std::remove(path.c_str());
}

TEST(SerializationIo, PrimitivesRoundTripExactly) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  io::write_u64(buf, 0);
  io::write_u64(buf, std::numeric_limits<std::uint64_t>::max());
  io::write_i64(buf, -123456789);
  io::write_f64(buf, -0.0);
  io::write_f64(buf, 1.0 / 3.0);
  io::write_i64_vec(buf, {5, -7, 0});
  io::write_f64_vec(buf, {0.25, -1e300});
  Tensor t({2, 3});
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(i) * 0.5f - 1.0f;
  }
  io::write_tensor(buf, t);

  std::uint64_t u = 1;
  std::int64_t i64 = 0;
  double d = 0.0;
  std::vector<std::int64_t> iv;
  std::vector<double> dv;
  Tensor back;
  ASSERT_TRUE(io::read_u64(buf, u));
  EXPECT_EQ(u, 0u);
  ASSERT_TRUE(io::read_u64(buf, u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(io::read_i64(buf, i64));
  EXPECT_EQ(i64, -123456789);
  ASSERT_TRUE(io::read_f64(buf, d));
  EXPECT_EQ(d, 0.0);
  EXPECT_TRUE(std::signbit(d));
  ASSERT_TRUE(io::read_f64(buf, d));
  EXPECT_EQ(d, 1.0 / 3.0);  // bit-exact, not allclose
  ASSERT_TRUE(io::read_i64_vec(buf, iv));
  EXPECT_EQ(iv, (std::vector<std::int64_t>{5, -7, 0}));
  ASSERT_TRUE(io::read_f64_vec(buf, dv));
  EXPECT_EQ(dv, (std::vector<double>{0.25, -1e300}));
  ASSERT_TRUE(io::read_tensor(buf, back));
  ASSERT_EQ(back.shape(), t.shape());
  for (std::int64_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back[i], t[i]) << "element " << i;
  }
  // The stream is fully consumed: another read reports failure.
  EXPECT_FALSE(io::read_u64(buf, u));
}

TEST(SerializationIo, CorruptTensorHeadersRejectedBeforeAllocation) {
  // Absurd rank.
  {
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    io::write_i64(buf, 9);  // rank > 8
    Tensor t;
    EXPECT_FALSE(io::read_tensor(buf, t));
  }
  // Element count that would demand a multi-terabyte allocation.
  {
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    io::write_i64(buf, 2);
    io::write_i64(buf, 1 << 30);
    io::write_i64(buf, 1 << 30);
    Tensor t;
    EXPECT_FALSE(io::read_tensor(buf, t));
  }
  // Negative vector length.
  {
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    io::write_i64(buf, -4);
    std::vector<double> v;
    EXPECT_FALSE(io::read_f64_vec(buf, v));
  }
  // Truncated payload: header promises more floats than the stream holds.
  {
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    io::write_i64(buf, 1);
    io::write_i64(buf, 100);
    io::write_f64(buf, 1.0);
    Tensor t;
    EXPECT_FALSE(io::read_tensor(buf, t));
  }
}

// A rank-2 header {2, INT64_MAX} used to wrap the element count to -2, pass
// the size cap and reach Tensor(shape). The count is checked before each
// multiply now; the target keeps its old contents.
TEST(SerializationIo, OverflowingTensorShapeRejected) {
  for (const auto& dims : std::vector<std::vector<std::int64_t>>{
           {2, std::numeric_limits<std::int64_t>::max()},
           {0, std::numeric_limits<std::int64_t>::max()},
           {std::numeric_limits<std::int64_t>::max(), 0, 4},
           {1 << 16, 1 << 16}}) {
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    io::write_i64(buf, static_cast<std::int64_t>(dims.size()));
    for (const auto d : dims) io::write_i64(buf, d);
    Tensor t({3}, 7.0f);
    EXPECT_FALSE(io::read_tensor(buf, t)) << "dims[0] = " << dims[0];
    ASSERT_EQ(t.size(), 3);
    EXPECT_EQ(t[0], 7.0f);
  }
}

// A length field that claims more than the stream holds is rejected before
// anything is allocated (these claims would ask for 8-16 GiB), and the
// target is left as it was.
TEST(SerializationIo, LengthBeyondStreamRejectedBeforeAllocation) {
  const std::int64_t huge = std::numeric_limits<std::int32_t>::max();
  {
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    io::write_i64(buf, huge);
    io::write_i64(buf, 5);
    std::vector<std::int64_t> v = {1, 2};
    EXPECT_FALSE(io::read_i64_vec(buf, v));
    EXPECT_EQ(v, (std::vector<std::int64_t>{1, 2}));
  }
  {
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    io::write_i64(buf, huge);
    io::write_f64(buf, 0.5);
    std::vector<double> v = {3.0};
    EXPECT_FALSE(io::read_f64_vec(buf, v));
    EXPECT_EQ(v, std::vector<double>{3.0});
  }
  {
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    io::write_i64(buf, 2);
    io::write_i64(buf, 1 << 15);
    io::write_i64(buf, 1 << 15);
    io::write_f64(buf, 0.5);
    Tensor t({2}, 4.0f);
    EXPECT_FALSE(io::read_tensor(buf, t));
    ASSERT_EQ(t.size(), 2);
    EXPECT_EQ(t[1], 4.0f);
  }
  // A length that exactly matches the rest of the stream still loads.
  {
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    io::write_f64_vec(buf, {1.5, -2.0});
    std::vector<double> v;
    EXPECT_TRUE(io::read_f64_vec(buf, v));
    EXPECT_EQ(v, (std::vector<double>{1.5, -2.0}));
  }
}

// The 24-byte header of a framed file (magic, fingerprint, size) claiming a
// 2^31 − 1 byte payload that the file does not hold.
void write_frame_header(const std::string& path, const char (&magic)[8]) {
  std::ofstream out(path, std::ios::binary);
  out.write(magic, sizeof(magic));
  io::write_u64(out, 0);
  io::write_i64(out, std::numeric_limits<std::int32_t>::max());
}

TEST(SerializationIo, SnapshotClaimingHugePayloadRejectedWithoutAllocating) {
  const std::string path = "/tmp/duo_test_huge_frame.duosn";
  write_frame_header(path, {'D', 'U', 'O', 'S', 'N', '1', '\0', '\0'});
  serve::ServerSnapshot snap;
  g_largest_new = 0;
  EXPECT_FALSE(serve::load_snapshot(snap, path));
  EXPECT_LT(g_largest_new.load(), std::size_t{1} << 20);
  std::remove(path.c_str());
}

TEST(SerializationIo, IndexClaimingHugePayloadRejectedWithoutAllocating) {
  const std::string path = "/tmp/duo_test_huge_frame.duoix";
  write_frame_header(path, {'D', 'U', 'O', 'I', 'X', '1', '\0', '\0'});
  auto index = retrieval::make_index(4, retrieval::IndexConfig{});
  g_largest_new = 0;
  EXPECT_FALSE(retrieval::load_index(*index, path));
  EXPECT_LT(g_largest_new.load(), std::size_t{1} << 20);
  std::remove(path.c_str());
}

TEST(SerializationIo, Fnv1aFingerprintsDiscriminate) {
  // Offset basis of 64-bit FNV-1a: hash of zero bytes.
  EXPECT_EQ(io::fnv1a(nullptr, 0), 0xCBF29CE484222325ULL);
  Tensor a({4});
  a.fill(1.0f);
  Tensor b = a;
  EXPECT_EQ(io::fnv1a(a), io::fnv1a(b));
  b[3] = 1.0000001f;
  EXPECT_NE(io::fnv1a(a), io::fnv1a(b));
}

TEST(SerializationIo, AtomicWriteCommitsOrLeavesNothing) {
  const std::string path = "/tmp/duo_test_atomic.bin";
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(tmp.c_str());

  ASSERT_TRUE(io::atomic_write(path, [](std::ostream& out) {
    io::write_u64(out, 42);
  }));
  EXPECT_TRUE(std::ifstream(path).good());
  EXPECT_FALSE(std::ifstream(tmp).good());  // no staging residue

  // A writer that poisons the stream must not replace the committed file.
  EXPECT_FALSE(io::atomic_write(
      path, [](std::ostream& out) { out.setstate(std::ios::badbit); }));
  EXPECT_FALSE(std::ifstream(tmp).good());
  std::ifstream check(path, std::ios::binary);
  std::uint64_t value = 0;
  ASSERT_TRUE(io::read_u64(check, value));
  EXPECT_EQ(value, 42u);
  std::remove(path.c_str());
}

TEST(SerializationIo, AtomicWriteShortWriteNeverReplacesGoodCheckpoint) {
  const std::string path = "/tmp/duo_test_atomic_short.bin";
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(tmp.c_str());

  ASSERT_TRUE(
      io::atomic_write(path, [](std::ostream& out) { io::write_u64(out, 7); }));

  // Short write: a writer that emits partial data and then hits a device
  // failure must leave the previously committed file byte-identical, with no
  // staging residue — the crash-mid-save scenario durable recovery leans on.
  EXPECT_FALSE(io::atomic_write(path, [](std::ostream& out) {
    io::write_u64(out, 999);  // partial payload reaches the staging file
    out.setstate(std::ios::badbit);  // then the write "fails" mid-stream
  }));
  EXPECT_FALSE(std::ifstream(tmp).good());

  // A throwing writer propagates the exception and also leaves the committed
  // file untouched.
  EXPECT_THROW(io::atomic_write(path,
                                [](std::ostream& out) {
                                  io::write_u64(out, 999);
                                  throw std::runtime_error("disk on fire");
                                }),
               std::runtime_error);
  EXPECT_FALSE(std::ifstream(tmp).good());

  std::ifstream check(path, std::ios::binary);
  std::uint64_t value = 0;
  ASSERT_TRUE(io::read_u64(check, value));
  EXPECT_EQ(value, 7u);
  EXPECT_FALSE(io::read_u64(check, value));  // exactly one record, no tail
  std::remove(path.c_str());
}

attack::SparseQueryCheckpoint sample_sq_checkpoint() {
  attack::SparseQueryCheckpoint ck;
  ck.geometry = geo();
  ck.seed = 99;
  ck.support_size = 150;
  ck.source_hash = 0xDEADBEEFCAFEF00DULL;
  ck.next_iteration = 7;
  ck.t_current = 0.625;
  ck.t_history = {1.0, 0.875, 0.625};
  ck.queries = 13;
  ck.stall = 2;
  ck.rng_state = 0x1234567890ABCDEFULL;
  ck.deck = {3, 1, 4, 1, 5};
  ck.deck_pos = 2;
  ck.v_adv = Tensor(geo().tensor_shape());
  for (std::int64_t i = 0; i < ck.v_adv.size(); ++i) {
    ck.v_adv[i] = static_cast<float>(i % 256);
  }
  return ck;
}

TEST(SerializationIo, SparseQueryCheckpointRoundTrips) {
  const attack::SparseQueryCheckpoint ck = sample_sq_checkpoint();
  const std::string path = "/tmp/duo_test_sq_ck.bin";
  ASSERT_TRUE(attack::save_checkpoint(ck, path));

  attack::SparseQueryCheckpoint back;
  ASSERT_TRUE(attack::load_checkpoint(back, path));
  EXPECT_EQ(back.geometry, ck.geometry);
  EXPECT_EQ(back.seed, ck.seed);
  EXPECT_EQ(back.support_size, ck.support_size);
  EXPECT_EQ(back.source_hash, ck.source_hash);
  EXPECT_EQ(back.next_iteration, ck.next_iteration);
  EXPECT_EQ(back.t_current, ck.t_current);
  EXPECT_EQ(back.t_history, ck.t_history);
  EXPECT_EQ(back.queries, ck.queries);
  EXPECT_EQ(back.stall, ck.stall);
  EXPECT_EQ(back.rng_state, ck.rng_state);
  EXPECT_EQ(back.deck, ck.deck);
  EXPECT_EQ(back.deck_pos, ck.deck_pos);
  ASSERT_EQ(back.v_adv.size(), ck.v_adv.size());
  for (std::int64_t i = 0; i < ck.v_adv.size(); ++i) {
    EXPECT_EQ(back.v_adv[i], ck.v_adv[i]);
  }
  std::remove(path.c_str());
}

TEST(SerializationIo, DuoCheckpointRoundTrips) {
  attack::DuoCheckpoint ck;
  ck.geometry = geo();
  ck.source_hash = 77;
  ck.iter_numH = 2;
  ck.next_round = 1;
  ck.t_history = {0.5, 0.25};
  ck.queries = 31;
  ck.v_cur = Tensor(geo().tensor_shape());
  ck.v_cur.fill(17.0f);
  ck.has_init = true;
  ck.pixel_mask = Tensor(geo().tensor_shape());
  ck.pixel_mask.fill(1.0f);
  ck.frame_mask = Tensor(geo().tensor_shape());
  ck.frame_mask.fill(0.0f);

  const std::string path = "/tmp/duo_test_duo_ck.bin";
  ASSERT_TRUE(attack::save_checkpoint(ck, path));
  attack::DuoCheckpoint back;
  ASSERT_TRUE(attack::load_checkpoint(back, path));
  EXPECT_EQ(back.geometry, ck.geometry);
  EXPECT_EQ(back.source_hash, ck.source_hash);
  EXPECT_EQ(back.iter_numH, ck.iter_numH);
  EXPECT_EQ(back.next_round, ck.next_round);
  EXPECT_EQ(back.t_history, ck.t_history);
  EXPECT_EQ(back.queries, ck.queries);
  EXPECT_TRUE(back.has_init);
  ASSERT_EQ(back.v_cur.size(), ck.v_cur.size());
  for (std::int64_t i = 0; i < ck.v_cur.size(); ++i) {
    EXPECT_EQ(back.v_cur[i], ck.v_cur[i]);
    EXPECT_EQ(back.pixel_mask[i], ck.pixel_mask[i]);
    EXPECT_EQ(back.frame_mask[i], ck.frame_mask[i]);
  }
  std::remove(path.c_str());
}

TEST(SerializationIo, CheckpointLoadRejectsCorruption) {
  const std::string path = "/tmp/duo_test_bad_ck.bin";
  attack::SparseQueryCheckpoint sq;
  attack::DuoCheckpoint duo;

  // Missing file.
  std::remove(path.c_str());
  EXPECT_FALSE(attack::load_checkpoint(sq, path));
  EXPECT_FALSE(attack::load_checkpoint(duo, path));

  // Garbage bytes.
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint at all, sorry";
  }
  EXPECT_FALSE(attack::load_checkpoint(sq, path));
  EXPECT_FALSE(attack::load_checkpoint(duo, path));

  // Wrong magic: a valid Duo checkpoint is not a SparseQuery checkpoint and
  // vice versa.
  attack::DuoCheckpoint valid_duo;
  valid_duo.geometry = geo();
  valid_duo.v_cur = Tensor(geo().tensor_shape());
  ASSERT_TRUE(attack::save_checkpoint(valid_duo, path));
  EXPECT_FALSE(attack::load_checkpoint(sq, path));
  const attack::SparseQueryCheckpoint valid_sq = sample_sq_checkpoint();
  ASSERT_TRUE(attack::save_checkpoint(valid_sq, path));
  EXPECT_FALSE(attack::load_checkpoint(duo, path));

  // Truncation: every prefix of a valid checkpoint must be rejected, and the
  // failed load must leave the output untouched.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto full = in.tellg();
  in.seekg(0);
  std::vector<char> bytes(static_cast<std::size_t>(full));
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()) / 2);
  }
  attack::SparseQueryCheckpoint untouched;
  untouched.queries = -55;  // sentinel
  EXPECT_FALSE(attack::load_checkpoint(untouched, path));
  EXPECT_EQ(untouched.queries, -55);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace duo::models
