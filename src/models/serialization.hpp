#pragma once

// Binary serialization. Two layers:
//
//  - models::io — small primitives (integers, doubles, tensors, vectors,
//    FNV-1a fingerprints, atomic file commit) shared by every checkpoint
//    format in the library. All multi-byte values are written in the host's
//    native byte order; checkpoints are a single-machine resume/deploy
//    mechanism, not an interchange format.
//  - save_parameters / load_parameters — flat checkpoint of all parameters
//    of a FeatureExtractor, in parameter-iteration order. A checkpoint only
//    loads back into the identical architecture/feature-dim/geometry
//    (validated via a layout fingerprint), which is exactly the deployment
//    story the library needs: train a victim once, attack it across bench
//    runs.
//
// Attack-state checkpoints (src/attack/checkpoint.hpp) build on models::io.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "models/feature_extractor.hpp"
#include "tensor/tensor.hpp"

namespace duo::models {

namespace io {

// Primitive writes never fail by themselves; check the stream after a batch
// of writes (ofstream reports failure at flush/close). Reads return false on
// EOF/short reads and leave the output untouched on failure.
void write_u64(std::ostream& out, std::uint64_t value);
bool read_u64(std::istream& in, std::uint64_t& value);
void write_i64(std::ostream& out, std::int64_t value);
bool read_i64(std::istream& in, std::int64_t& value);
void write_f64(std::ostream& out, double value);
bool read_f64(std::istream& in, double& value);

// Tensor: rank, dims, then the float payload. read_tensor validates the
// header (rank <= 8, non-negative dims, element count < 2^31 without
// overflow, payload no larger than the rest of the stream) before
// allocating, so a corrupt file cannot trigger a huge allocation.
void write_tensor(std::ostream& out, const Tensor& t);
bool read_tensor(std::istream& in, Tensor& t);

// Length-prefixed vectors. Readers reject a length below 0, at or above
// 2^31, or past the end of the stream before allocating.
void write_i64_vec(std::ostream& out, const std::vector<std::int64_t>& v);
bool read_i64_vec(std::istream& in, std::vector<std::int64_t>& v);
void write_f64_vec(std::ostream& out, const std::vector<double>& v);
bool read_f64_vec(std::istream& in, std::vector<double>& v);
void write_f32_vec(std::ostream& out, const std::vector<float>& v);
bool read_f32_vec(std::istream& in, std::vector<float>& v);
void write_i32_vec(std::ostream& out, const std::vector<int>& v);
bool read_i32_vec(std::istream& in, std::vector<int>& v);
void write_i8_vec(std::ostream& out, const std::vector<std::int8_t>& v);
bool read_i8_vec(std::istream& in, std::vector<std::int8_t>& v);

// Length-prefixed byte string. read_string validates the length (< 2^20)
// before allocating, so a corrupt file cannot trigger a huge allocation.
void write_string(std::ostream& out, const std::string& s);
bool read_string(std::istream& in, std::string& s);

// FNV-1a over raw bytes — the fingerprint used to bind an attack checkpoint
// to the exact inputs it was taken against. The basis overload chains: pass
// a previous digest to fold additional bytes into a running hash.
std::uint64_t fnv1a(const void* data, std::size_t bytes);
std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t basis);
std::uint64_t fnv1a(const Tensor& t);

// Fingerprinted file: 8-byte magic, FNV-1a of the payload, i64 payload
// size, then the payload — the layout of the durable server-snapshot and
// gallery-index files. save_framed commits it through atomic_write.
// load_framed checks the magic, rejects a size below 0, at or above 2^31,
// or past the end of the file before allocating, then checks the
// fingerprint; `payload` is left untouched on failure.
bool save_framed(const std::string& path, const char (&magic)[8],
                 const std::string& payload);
bool load_framed(const std::string& path, const char (&magic)[8],
                 std::string& payload);

// Write-then-rename commit: `write` streams into `path + ".tmp"`, which is
// flushed + fsync'd and only then renamed over `path` (the parent directory
// is fsync'd after the rename on POSIX, making the publish itself durable).
// A reader therefore never observes a torn checkpoint, and a crash — even a
// power loss mid-write — leaves any previous checkpoint intact. If `write`
// throws, the tmp file is removed and the exception propagates; the
// destination is never touched.
bool atomic_write(const std::string& path,
                  const std::function<void(std::ostream&)>& write);

}  // namespace io

// Save every parameter tensor of `extractor` to `path`. Returns false on
// I/O failure.
bool save_parameters(FeatureExtractor& extractor, const std::string& path);

// Load a checkpoint written by save_parameters into `extractor`. Returns
// false on I/O failure or if the checkpoint's parameter layout (count and
// per-parameter sizes) does not match the extractor.
bool load_parameters(FeatureExtractor& extractor, const std::string& path);

}  // namespace duo::models
