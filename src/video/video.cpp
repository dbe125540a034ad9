#include "video/video.hpp"

namespace duo::video {

Video::Video(VideoGeometry geometry, int label, std::int64_t id)
    : data_(geometry.tensor_shape()), geometry_(geometry), label_(label), id_(id) {}

Video::Video(Tensor data, VideoGeometry geometry, int label, std::int64_t id)
    : data_(std::move(data)), geometry_(geometry), label_(label), id_(id) {
  DUO_CHECK_MSG(data_.shape() == geometry_.tensor_shape(),
                "Video: data shape does not match geometry");
}

// The pixel layout [N, H, W, C] and the model layout [C, N, H, W] order the
// N·H·W pixels the same way, so both conversions are a transpose between
// [pixels, C] and [C, pixels], walked with flat pointers.
Tensor Video::to_model_input() const {
  const auto& g = geometry_;
  Tensor out({g.channels, g.frames, g.height, g.width});
  constexpr float kInv255 = 1.0f / 255.0f;
  const std::int64_t pixels = g.frames * g.height * g.width;
  const float* src = data_.data();
  for (std::int64_t c = 0; c < g.channels; ++c) {
    float* dst = out.data() + c * pixels;
    for (std::int64_t p = 0; p < pixels; ++p) {
      dst[p] = src[p * g.channels + c] * kInv255;
    }
  }
  return out;
}

Tensor Video::from_model_space(const Tensor& model_tensor,
                               const VideoGeometry& g, bool scale_to_pixels) {
  DUO_CHECK_MSG(model_tensor.shape() ==
                    Tensor::Shape({g.channels, g.frames, g.height, g.width}),
                "from_model_space: shape mismatch");
  Tensor out(g.tensor_shape());
  const float scale = scale_to_pixels ? 255.0f : 1.0f;
  const std::int64_t pixels = g.frames * g.height * g.width;
  float* dst = out.data();
  for (std::int64_t c = 0; c < g.channels; ++c) {
    const float* src = model_tensor.data() + c * pixels;
    for (std::int64_t p = 0; p < pixels; ++p) {
      dst[p * g.channels + c] = src[p] * scale;
    }
  }
  return out;
}

}  // namespace duo::video
