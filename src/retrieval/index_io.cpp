#include <sstream>
#include <string>

#include "retrieval/index.hpp"

#include "models/serialization.hpp"

namespace duo::retrieval {
namespace {

// 8-byte magic for durable index snapshot files (versioned like the model
// checkpoint magic "DUOW1" in models/serialization.cpp).
constexpr char kIndexMagic[8] = {'D', 'U', 'O', 'I', 'X', '1', '\0', '\0'};

}  // namespace

bool save_index(const GalleryIndex& index, const std::string& path) {
  // Serialize to memory first so the fingerprint can lead the payload: a
  // loader then validates before parsing, and a crash mid-save can never
  // publish a file whose digest matches truncated bytes.
  std::ostringstream payload_out(std::ios::binary);
  index.save_state(payload_out);
  return models::io::save_framed(path, kIndexMagic, payload_out.str());
}

bool load_index(GalleryIndex& index, const std::string& path) {
  std::string payload;
  if (!models::io::load_framed(path, kIndexMagic, payload)) return false;
  std::istringstream payload_in(payload, std::ios::binary);
  return index.load_state(payload_in);
}

}  // namespace duo::retrieval
