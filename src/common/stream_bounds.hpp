#pragma once

// Bounds for length fields read from untrusted files.

#include <cstddef>
#include <cstdint>
#include <istream>
#include <limits>

namespace duo {

// Largest element count a loader accepts from a length or shape field.
inline constexpr std::int64_t kMaxLoadElements =
    std::numeric_limits<std::int32_t>::max();

// True only when `count` (>= 0) items of `item_bytes` each fit in what is
// left of `in`, so a loader allocates nothing for a payload the stream
// cannot hold. Measured by seeking to the end and back, which file and
// string streams both support; a stream that cannot report its position
// passes, leaving the caller's own size cap as the only bound.
inline bool stream_holds(std::istream& in, std::int64_t count,
                         std::size_t item_bytes) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return true;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (!in || end == std::istream::pos_type(-1) || end < here) return false;
  return static_cast<std::uint64_t>(count) <=
         static_cast<std::uint64_t>(end - here) / item_bytes;
}

}  // namespace duo
