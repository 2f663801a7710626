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

    /// Forward over @p n deltas as one kernel: ForwardFlops(n); each delta
    /// reads an 8-byte time and writes dim floats, one parallel item each;
    /// the 2 x dim parameters are not counted.
    sim::KernelDesc Cost(std::string name, int64_t n) const
    {
        return RowCost(std::move(name), n, ForwardFlops(n), 8 + dim_ * 4, dim_, 0);
    }

  private:
    int64_t dim_;
    Tensor frequencies_;  ///< [dim]
    Tensor phases_;       ///< [dim]
};

}  // namespace dgnn::nn
