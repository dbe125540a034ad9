#pragma once

// A small dense ND float tensor. Owning, contiguous, row-major. This is the
// numeric substrate for the whole library: videos, network activations,
// perturbation masks, and feature vectors are all Tensors.
//
// Design notes:
//  - No views/strides: every tensor owns contiguous storage. The workloads
//    here (small 3D-CNN video models, mask algebra) never need aliasing, and
//    value semantics keep attack code easy to reason about.
//  - Shapes use int64_t dims; total element counts stay well under 2^31 but
//    intermediate products (e.g. im2col columns) are computed in 64-bit.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace duo {

class Tensor {
 public:
  using Shape = std::vector<std::int64_t>;

  Tensor() = default;

  // Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  // Tensor of the given shape filled with `value`.
  Tensor(Shape shape, float value);

  // Tensor adopting the given data (size must match the shape product).
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
  static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
  static Tensor uniform(Shape shape, float lo, float hi, Rng& rng);
  static Tensor normal(Shape shape, float mean, float stddev, Rng& rng);

  // -- shape ---------------------------------------------------------------
  const Shape& shape() const noexcept { return shape_; }
  std::int64_t dim(std::size_t axis) const {
    DUO_CHECK(axis < shape_.size());
    return shape_[axis];
  }
  std::size_t rank() const noexcept { return shape_.size(); }
  std::int64_t size() const noexcept { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const noexcept { return data_.empty(); }
  bool same_shape(const Tensor& other) const noexcept { return shape_ == other.shape_; }

  // Reshape preserving element count (returns a copy; storage is contiguous).
  Tensor reshaped(Shape new_shape) const;

  // -- element access ------------------------------------------------------
  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  std::span<float> flat() noexcept { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const noexcept { return {data_.data(), data_.size()}; }

  float& operator[](std::int64_t i) {
    DUO_CHECK(i >= 0 && i < size());
    return data_[static_cast<std::size_t>(i)];
  }
  float operator[](std::int64_t i) const {
    DUO_CHECK(i >= 0 && i < size());
    return data_[static_cast<std::size_t>(i)];
  }

  // Multi-index access (rank must match argument count).
  float& at(std::int64_t i, std::int64_t j) { return data_[flat_index({i, j})]; }
  float at(std::int64_t i, std::int64_t j) const { return data_[flat_index({i, j})]; }
  float& at(std::int64_t i, std::int64_t j, std::int64_t k) {
    return data_[flat_index({i, j, k})];
  }
  float at(std::int64_t i, std::int64_t j, std::int64_t k) const {
    return data_[flat_index({i, j, k})];
  }
  float& at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) {
    return data_[flat_index({i, j, k, l})];
  }
  float at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) const {
    return data_[flat_index({i, j, k, l})];
  }
  float& at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l,
            std::int64_t m) {
    return data_[flat_index({i, j, k, l, m})];
  }
  float at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l,
           std::int64_t m) const {
    return data_[flat_index({i, j, k, l, m})];
  }

  // -- in-place mutation ---------------------------------------------------
  void fill(float value) noexcept;
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(const Tensor& other);  // elementwise
  Tensor& operator+=(float s) noexcept;
  Tensor& operator*=(float s) noexcept;
  // this += alpha * other  (fused AXPY; the hot update in every optimizer).
  Tensor& axpy(float alpha, const Tensor& other);
  // Clamp every element to [lo, hi].
  Tensor& clamp_(float lo, float hi) noexcept;

  // -- value-returning ops -------------------------------------------------
  Tensor operator+(const Tensor& other) const;
  Tensor operator-(const Tensor& other) const;
  Tensor operator*(const Tensor& other) const;  // elementwise (Hadamard ⊙)
  Tensor operator*(float s) const;
  Tensor operator-() const;
  Tensor abs() const;
  Tensor clamped(float lo, float hi) const;
  // Elementwise sign (-1, 0, +1).
  Tensor sign() const;

  // -- reductions ----------------------------------------------------------
  double sum() const noexcept;
  double mean() const noexcept;
  float max() const;
  float min() const;
  double dot(const Tensor& other) const;

  // -- norms (paper §III-C notation) ----------------------------------------
  // ‖·‖₀: number of nonzero elements.
  std::int64_t norm_l0(float eps = 0.0f) const noexcept;
  double norm_l1() const noexcept;
  double norm_l2() const noexcept;
  float norm_linf() const noexcept;

  bool allclose(const Tensor& other, float atol = 1e-5f) const;

  std::string shape_string() const;

 private:
  std::size_t flat_index(std::initializer_list<std::int64_t> idx) const;

  Shape shape_;
  std::vector<float> data_;
};

Tensor operator*(float s, const Tensor& t);

std::ostream& operator<<(std::ostream& os, const Tensor& t);

// Total element count for a shape (checks non-negative dims).
std::int64_t shape_numel(const Tensor::Shape& shape);

}  // namespace duo
