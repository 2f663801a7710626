#pragma once

/// @file
/// Dense row-major float32 tensor used by every neural substrate.
///
/// The tensor is deliberately simple: contiguous storage, up to 4
/// dimensions, value semantics with cheap moves. All heavy math lives in
/// tensor/ops.hpp so the data type stays small and auditable.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace dgnn {

/// Shape of a tensor; a thin wrapper over a small vector of extents.
class Shape {
  public:
    Shape() = default;
    Shape(std::initializer_list<int64_t> dims) : dims_(dims) { Validate(); }
    explicit Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) { Validate(); }

    /// Number of dimensions.
    int64_t Rank() const { return static_cast<int64_t>(dims_.size()); }

    /// Extent of dimension @p axis; negative axes count from the back.
    int64_t Dim(int64_t axis) const;

    /// Total number of elements (1 for a rank-0 shape).
    int64_t NumElements() const;

    const std::vector<int64_t>& Dims() const { return dims_; }

    bool operator==(const Shape& other) const { return dims_ == other.dims_; }
    bool operator!=(const Shape& other) const { return !(*this == other); }

    /// Human-readable form, e.g. "[3, 4]".
    std::string ToString() const;

  private:
    void Validate() const;

    std::vector<int64_t> dims_;
};

std::ostream& operator<<(std::ostream& os, const Shape& shape);

/// Dense row-major float32 tensor with value semantics.
class Tensor {
  public:
    /// Empty rank-1 tensor of zero elements.
    Tensor() : shape_({0}) {}

    /// Zero-initialized tensor of the given shape.
    explicit Tensor(Shape shape);

    /// Tensor of the given shape filled with @p fill.
    Tensor(Shape shape, float fill);

    /// Tensor adopting @p values (must match the shape's element count).
    Tensor(Shape shape, std::vector<float> values);

    /// Convenience rank-1 constructor from a list of values.
    static Tensor FromVector(std::vector<float> values);

    /// Tensor of shape filled with zeros.
    static Tensor Zeros(Shape shape) { return Tensor(std::move(shape)); }

    /// Identity matrix of size n x n.
    static Tensor Eye(int64_t n);

    const Shape& GetShape() const { return shape_; }
    int64_t Rank() const { return shape_.Rank(); }
    int64_t Dim(int64_t axis) const { return shape_.Dim(axis); }
    int64_t NumElements() const { return static_cast<int64_t>(data_.size()); }
    /// Payload size in bytes (element count x sizeof(float)).
    int64_t NumBytes() const { return NumElements() * static_cast<int64_t>(sizeof(float)); }
    bool Empty() const { return data_.empty(); }

    float* Data() { return data_.data(); }
    const float* Data() const { return data_.data(); }

    /// Flat element access with bounds checking in debug builds.
    float& At(int64_t flat_index);
    float At(int64_t flat_index) const;

    /// 2-D element access (matrix convention: row, col).
    float& At(int64_t row, int64_t col);
    float At(int64_t row, int64_t col) const;

    /// 3-D element access.
    float& At(int64_t i, int64_t j, int64_t k);
    float At(int64_t i, int64_t j, int64_t k) const;

    /// Returns a copy with a new shape covering the same elements.
    Tensor Reshape(Shape new_shape) const;

    /// Copy of row @p row of a rank-2 tensor as a rank-1 tensor.
    Tensor Row(int64_t row) const;

    /// Writes @p values into row @p row of a rank-2 tensor.
    void SetRow(int64_t row, const Tensor& values);

    /// Copy of rows [begin, end) of a rank-2 tensor.
    Tensor RowSlice(int64_t begin, int64_t end) const;

    /// Fills every element with @p value.
    void Fill(float value);

    /// Sum of all elements (stable pairwise-free accumulation in double).
    double Sum() const;

    /// Mean of all elements.
    double Mean() const;

    /// Maximum absolute element; 0 for an empty tensor.
    float AbsMax() const;

    /// True when all elements are finite.
    bool AllFinite() const;

    /// Human-readable form with shape and a truncated element dump.
    std::string ToString(int64_t max_elements = 8) const;

  private:
    Shape shape_;
    std::vector<float> data_;
};

std::ostream& operator<<(std::ostream& os, const Tensor& tensor);

}  // namespace dgnn
