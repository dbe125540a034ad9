#pragma once

// Trivial binary video container (".duov"): magic, geometry, label, id,
// raw uint8 pixel data. Used by the examples to persist adversarial videos
// and inspect them out-of-process.

#include <optional>
#include <string>

#include "video/video.hpp"

namespace duo::video {

// Serialize `v` (pixels rounded to uint8) to `path`. Returns false on I/O
// failure.
bool save_video(const Video& v, const std::string& path);

// Load a video written by save_video. Returns nullopt on failure or if the
// file is not a valid .duov container: a non-positive dim, 2^31 or more
// elements, or fewer pixel bytes than the header claims are all rejected
// before the pixel buffer is allocated.
std::optional<Video> load_video(const std::string& path);

}  // namespace duo::video
