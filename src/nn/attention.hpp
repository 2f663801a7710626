#pragma once

/// @file
/// Multi-head scaled-dot-product attention — the aggregation engine of
/// TGAT, the temporal attention blocks of ASTGNN, and the attention layers
/// of TGN/DyRep/LDG.

#include <span>

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace dgnn::nn {

/// Multi-head attention of a block of queries over a block of key/value
/// rows, each query over its own slots of that block.
class MultiHeadAttention : public Module {
  public:
    /// @param model_dim  embedding dimension (must divide by num_heads)
    /// @param num_heads  number of attention heads
    MultiHeadAttention(int64_t model_dim, int64_t num_heads, Rng& rng);

    /// query: [Q, d], kv: [R, d] -> [Q, d]. Query i attends the kv rows
    /// slots[i * g .. i * g + g), in slot order; a row may fill many slots
    /// of one or many queries, and each kv row is projected once. Throws
    /// if g < 1, if slots does not hold Q * g indices, or if an index is
    /// outside [0, R).
    Tensor Forward(const Tensor& query, const Tensor& kv, std::span<const int64_t> slots,
                   int64_t g) const;

    /// Self-attention: every row of x attends every row of x.
    Tensor SelfAttention(const Tensor& x) const;

    int64_t ModelDim() const { return model_dim_; }
    int64_t NumHeads() const { return num_heads_; }

    /// FLOPs for q queries against k keys.
    int64_t ForwardFlops(int64_t q, int64_t k) const;

  private:
    int64_t model_dim_;
    int64_t num_heads_;
    int64_t head_dim_;
    Linear wq_;
    Linear wk_;
    Linear wv_;
    Linear wo_;
};

}  // namespace dgnn::nn
