#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace zeus::tensor {

size_t ShapeVolume(const std::vector<int>& shape) {
  size_t v = 1;
  for (int d : shape) {
    ZEUS_CHECK(d >= 0);
    v *= static_cast<size_t>(d);
  }
  return v;
}

bool SameShape(const Tensor& a, const Tensor& b) { return a.shape() == b.shape(); }

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(ShapeVolume(shape_), 0.0f) {
  ComputeStrides();
}

Tensor::Tensor(std::vector<int> shape, float fill)
    : shape_(std::move(shape)), data_(ShapeVolume(shape_), fill) {
  ComputeStrides();
}

Tensor Tensor::FromVector(const std::vector<float>& values) {
  Tensor t({static_cast<int>(values.size())});
  t.data_ = values;
  return t;
}

Tensor Tensor::FromData(std::vector<int> shape, std::vector<float> values) {
  ZEUS_CHECK(ShapeVolume(shape) == values.size());
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(values);
  t.ComputeStrides();
  return t;
}

void Tensor::ComputeStrides() {
  strides_.assign(shape_.size(), 1);
  for (int i = static_cast<int>(shape_.size()) - 2; i >= 0; --i) {
    strides_[i] = strides_[i + 1] * static_cast<size_t>(shape_[i + 1]);
  }
}

int Tensor::dim(int i) const {
  ZEUS_CHECK(i >= 0 && i < ndim());
  return shape_[static_cast<size_t>(i)];
}

size_t Tensor::Offset(std::initializer_list<int> idx) const {
  ZEUS_CHECK(idx.size() == shape_.size());
  size_t off = 0;
  size_t k = 0;
  for (int i : idx) {
    ZEUS_CHECK(i >= 0 && i < shape_[k]);
    off += strides_[k] * static_cast<size_t>(i);
    ++k;
  }
  return off;
}

void Tensor::Resize(const std::vector<int>& new_shape) {
  shape_ = new_shape;
  data_.resize(ShapeVolume(shape_));
  ComputeStrides();
}

Tensor Tensor::Reshape(std::vector<int> new_shape) const {
  ZEUS_CHECK(ShapeVolume(new_shape) == data_.size());
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = data_;
  t.ComputeStrides();
  return t;
}

void Tensor::Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::Scale(float v) {
  for (float& x : data_) x *= v;
}

void Tensor::Add(const Tensor& other) {
  ZEUS_CHECK(SameShape(*this, other));
  const float* o = other.data();
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += o[i];
}

void Tensor::AddScaled(const Tensor& other, float alpha) {
  ZEUS_CHECK(SameShape(*this, other));
  const float* o = other.data();
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * o[i];
}

float Tensor::Sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return static_cast<float>(s);
}

float Tensor::Mean() const {
  if (data_.empty()) return 0.0f;
  return Sum() / static_cast<float>(data_.size());
}

float Tensor::Min() const {
  ZEUS_CHECK(!data_.empty());
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::Max() const {
  ZEUS_CHECK(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

int Tensor::Argmax() const {
  ZEUS_CHECK(!data_.empty());
  return static_cast<int>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

float Tensor::Norm() const {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(s));
}

std::string Tensor::ToString() const {
  std::ostringstream os;
  os << "Tensor[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << "x";
    os << shape_[i];
  }
  os << "](";
  size_t n = std::min<size_t>(data_.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << data_[i];
  }
  if (data_.size() > n) os << ", ...";
  os << ")";
  return os.str();
}

}  // namespace zeus::tensor
