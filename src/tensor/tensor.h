#ifndef ZEUS_TENSOR_TENSOR_H_
#define ZEUS_TENSOR_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/logging.h"

namespace zeus::tensor {

// Dense row-major float32 N-dimensional array (N <= 5). This is the single
// numeric container shared by the NN library, the video decoder, and the RL
// agent. Copy is deep (std::vector semantics); move is cheap.
//
// Dimension conventions used across the project:
//   video segment: {C, L, H, W}
//   conv3d batch:  {N, C, L, H, W}
//   conv2d batch:  {N, C, H, W}
//   matrix:        {rows, cols}
class Tensor {
 public:
  Tensor() = default;

  // Allocates a zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<int> shape);

  // Allocates with explicit fill value.
  Tensor(std::vector<int> shape, float fill);

  // 1-D tensor from values.
  static Tensor FromVector(const std::vector<float>& values);

  // Tensor with the given shape whose flat data is `values` (size must
  // match the shape volume).
  static Tensor FromData(std::vector<int> shape, std::vector<float> values);

  static Tensor Zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }
  static Tensor Full(std::vector<int> shape, float v) {
    return Tensor(std::move(shape), v);
  }

  const std::vector<int>& shape() const { return shape_; }
  int dim(int i) const;
  int ndim() const { return static_cast<int>(shape_.size()); }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  // Flat element access.
  float operator[](size_t i) const { return data_[i]; }
  float& operator[](size_t i) { return data_[i]; }

  // Multi-dimensional access with bounds checks in debug spirit (always on;
  // the hot loops below use raw pointers instead).
  float At(std::initializer_list<int> idx) const { return data_[Offset(idx)]; }
  float& At(std::initializer_list<int> idx) { return data_[Offset(idx)]; }

  // Returns a new tensor with the same data reinterpreted under a new shape
  // of identical volume.
  Tensor Reshape(std::vector<int> new_shape) const;

  // Gives this tensor a new shape in place, growing or shrinking its
  // storage; element values are unspecified afterwards. Shrinking keeps the
  // allocation, so a buffer refilled each round stops allocating once it
  // has seen its largest shape.
  void Resize(const std::vector<int>& new_shape);

  // Fill / scale in place.
  void Fill(float v);
  void Scale(float v);
  void Add(const Tensor& other);        // this += other (same shape)
  void AddScaled(const Tensor& other, float alpha);  // this += alpha * other

  // Reductions.
  float Sum() const;
  float Mean() const;
  float Min() const;
  float Max() const;
  // Index of the maximum element (first occurrence).
  int Argmax() const;
  // L2 norm of all elements.
  float Norm() const;

  // Debug string: shape plus first few values.
  std::string ToString() const;

 private:
  size_t Offset(std::initializer_list<int> idx) const;

  std::vector<int> shape_;
  std::vector<size_t> strides_;
  std::vector<float> data_;

  void ComputeStrides();
};

// Volume (product of dims) of a shape.
size_t ShapeVolume(const std::vector<int>& shape);

// True iff shapes are identical.
bool SameShape(const Tensor& a, const Tensor& b);

}  // namespace zeus::tensor

#endif  // ZEUS_TENSOR_TENSOR_H_
