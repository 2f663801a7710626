#pragma once

/// @file
/// Fully-connected layer (PyTorch nn.Linear convention: y = x W^T + b).

#include "nn/module.hpp"
#include "tensor/ops.hpp"

namespace dgnn::nn {

/// Affine map from in_features to out_features.
class Linear : public Module {
  public:
    Linear(int64_t in_features, int64_t out_features, Rng& rng, bool with_bias = true);

    /// x: [batch, in] -> [batch, out].
    Tensor Forward(const Tensor& x) const;

    int64_t InFeatures() const { return in_features_; }
    int64_t OutFeatures() const { return out_features_; }

    /// FLOPs of one forward pass with @p batch rows.
    int64_t ForwardFlops(int64_t batch) const;

    /// Forward over @p rows rows as one kernel: ForwardFlops(rows); each row
    /// reads in and writes out floats, and the parameters are read once;
    /// one parallel item per output element.
    sim::KernelDesc Cost(std::string name, int64_t rows) const
    {
        return RowCost(std::move(name), rows, ForwardFlops(rows),
                       (in_features_ + out_features_) * 4, out_features_, ParameterBytes());
    }

    const Tensor& Weight() const { return weight_; }
    const Tensor& Bias() const { return bias_; }

  private:
    int64_t in_features_;
    int64_t out_features_;
    Tensor weight_;  ///< [out, in]
    Tensor bias_;    ///< [out] (empty when bias disabled)
    /// weight_ packed once for the host GEMM; weight_ never changes after
    /// construction, so this copy cannot go stale.
    ops::PackedRhs packed_weight_;
};

}  // namespace dgnn::nn
