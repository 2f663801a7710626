#pragma once

/// @file
/// Multi-layer perceptron: stacked Linear layers with a configurable
/// activation between them.

#include <memory>
#include <vector>

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace dgnn::nn {

/// Feed-forward network with hidden layers.
class Mlp : public Module {
  public:
    /// @param dims  layer widths, e.g. {in, hidden, hidden, out}
    Mlp(std::vector<int64_t> dims, Rng& rng, Activation act = Activation::kRelu);

    /// x: [batch, dims.front()] -> [batch, dims.back()].
    Tensor Forward(const Tensor& x) const;

    int64_t InFeatures() const { return dims_.front(); }
    int64_t OutFeatures() const { return dims_.back(); }
    int64_t ForwardFlops(int64_t batch) const;

    /// Forward over @p rows rows as one kernel, costed like Linear::Cost
    /// from dims.front() to dims.back(): hidden activations stay on-chip.
    sim::KernelDesc Cost(std::string name, int64_t rows) const
    {
        return RowCost(std::move(name), rows, ForwardFlops(rows),
                       (InFeatures() + OutFeatures()) * 4, OutFeatures(), ParameterBytes());
    }

  private:
    std::vector<int64_t> dims_;
    Activation act_;
    std::vector<std::unique_ptr<Linear>> layers_;
};

}  // namespace dgnn::nn
