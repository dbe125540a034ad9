#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <sstream>

namespace duo {

std::int64_t shape_numel(const Tensor::Shape& shape) {
  std::int64_t n = 1;
  for (const auto d : shape) {
    DUO_CHECK_MSG(d >= 0, "negative dimension");
    n *= d;
  }
  return n;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), 0.0f) {}

Tensor::Tensor(Shape shape, float value)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), value) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  DUO_CHECK_MSG(shape_numel(shape_) == static_cast<std::int64_t>(data_.size()),
                "data size does not match shape");
}

Tensor Tensor::uniform(Shape shape, float lo, float hi, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& x : t.data_) x = rng.uniform_f(lo, hi);
  return t;
}

Tensor Tensor::normal(Shape shape, float mean, float stddev, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& x : t.data_) x = rng.normal_f(mean, stddev);
  return t;
}

Tensor Tensor::reshaped(Shape new_shape) const {
  DUO_CHECK_MSG(shape_numel(new_shape) == size(), "reshape changes numel");
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = data_;
  return t;
}

std::size_t Tensor::flat_index(std::initializer_list<std::int64_t> idx) const {
  DUO_CHECK_MSG(idx.size() == shape_.size(), "index rank mismatch");
  std::int64_t flat = 0;
  std::size_t axis = 0;
  for (const auto i : idx) {
    DUO_CHECK_MSG(i >= 0 && i < shape_[axis], "index out of range");
    flat = flat * shape_[axis] + i;
    ++axis;
  }
  return static_cast<std::size_t>(flat);
}

void Tensor::fill(float value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor& Tensor::operator+=(const Tensor& other) {
  DUO_CHECK_MSG(same_shape(other), "shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  DUO_CHECK_MSG(same_shape(other), "shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(const Tensor& other) {
  DUO_CHECK_MSG(same_shape(other), "shape mismatch in *=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Tensor& Tensor::operator+=(float s) noexcept {
  for (auto& x : data_) x += s;
  return *this;
}

Tensor& Tensor::operator*=(float s) noexcept {
  for (auto& x : data_) x *= s;
  return *this;
}

Tensor& Tensor::axpy(float alpha, const Tensor& other) {
  DUO_CHECK_MSG(same_shape(other), "shape mismatch in axpy");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
  return *this;
}

Tensor& Tensor::clamp_(float lo, float hi) noexcept {
  for (auto& x : data_) x = std::clamp(x, lo, hi);
  return *this;
}

Tensor Tensor::operator+(const Tensor& other) const {
  Tensor t = *this;
  t += other;
  return t;
}

Tensor Tensor::operator-(const Tensor& other) const {
  Tensor t = *this;
  t -= other;
  return t;
}

Tensor Tensor::operator*(const Tensor& other) const {
  Tensor t = *this;
  t *= other;
  return t;
}

Tensor Tensor::operator*(float s) const {
  Tensor t = *this;
  t *= s;
  return t;
}

Tensor Tensor::operator-() const { return *this * -1.0f; }

Tensor Tensor::abs() const {
  Tensor t = *this;
  for (auto& x : t.data_) x = std::fabs(x);
  return t;
}

Tensor Tensor::clamped(float lo, float hi) const {
  Tensor t = *this;
  t.clamp_(lo, hi);
  return t;
}

Tensor Tensor::sign() const {
  Tensor t = *this;
  for (auto& x : t.data_) x = (x > 0.0f) ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
  return t;
}

double Tensor::sum() const noexcept {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Tensor::mean() const noexcept {
  return data_.empty() ? 0.0 : sum() / static_cast<double>(data_.size());
}

float Tensor::max() const {
  DUO_CHECK_MSG(!data_.empty(), "max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::min() const {
  DUO_CHECK_MSG(!data_.empty(), "min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

double Tensor::dot(const Tensor& other) const {
  DUO_CHECK_MSG(size() == other.size(), "size mismatch in dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    acc += static_cast<double>(data_[i]) * other.data_[i];
  }
  return acc;
}

std::int64_t Tensor::norm_l0(float eps) const noexcept {
  std::int64_t n = 0;
  for (const auto x : data_) {
    if (std::fabs(x) > eps) ++n;
  }
  return n;
}

double Tensor::norm_l1() const noexcept {
  double acc = 0.0;
  for (const auto x : data_) acc += std::fabs(static_cast<double>(x));
  return acc;
}

double Tensor::norm_l2() const noexcept { return std::sqrt(dot(*this)); }

float Tensor::norm_linf() const noexcept {
  float m = 0.0f;
  for (const auto x : data_) m = std::max(m, std::fabs(x));
  return m;
}

bool Tensor::allclose(const Tensor& other, float atol) const {
  if (!same_shape(other)) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > atol) return false;
  }
  return true;
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

Tensor operator*(float s, const Tensor& t) { return t * s; }

std::ostream& operator<<(std::ostream& os, const Tensor& t) {
  os << "Tensor" << t.shape_string() << " {";
  const std::int64_t n = std::min<std::int64_t>(t.size(), 8);
  for (std::int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << t[i];
  }
  if (t.size() > n) os << ", …";
  os << '}';
  return os;
}

}  // namespace duo
