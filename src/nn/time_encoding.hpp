#pragma once

/// @file
/// Functional time encoder: the Bochner/harmonic encoder of TGAT/TGN
/// (cos(t*w + b) feature map of relative time).

#include "nn/module.hpp"

namespace dgnn::nn {

/// Bochner-theorem-inspired harmonic time encoding used by TGAT and TGN:
/// phi(t) = cos(t * w + b) with learnable frequencies w.
class BochnerTimeEncoder : public Module {
  public:
    BochnerTimeEncoder(int64_t dim, Rng& rng);

    /// deltas: rank-1 [n] relative times -> [n, dim] embedding.
    Tensor Forward(const Tensor& deltas) const;

    int64_t Dim() const { return dim_; }
    int64_t ForwardFlops(int64_t n) const { return 3 * n * dim_; }

  private:
    int64_t dim_;
    Tensor frequencies_;  ///< [dim]
    Tensor phases_;       ///< [dim]
};

}  // namespace dgnn::nn
