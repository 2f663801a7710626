#pragma once

/// @file
/// Recurrent cells: vanilla RNN, GRU, and LSTM. These are the time encoders
/// of JODIE, EvolveGCN, MolDGNN, DyRep, and LDG, and the source of the
/// paper's temporal-data-dependency bottleneck: each step's input is the
/// previous step's output, so steps cannot run in parallel.

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace dgnn::nn {

/// What the three cells share: the sizes, the x and h projections to
/// `gates` hidden-wide blocks, and one step's cost.
class RecurrentCell : public Module {
  public:
    /// FLOPs of one step with @p batch rows.
    virtual int64_t ForwardFlops(int64_t batch) const = 0;

    /// One step over @p rows rows as one kernel: ForwardFlops(rows); each
    /// row reads x and h and writes h' (input + 2 x hidden floats), the
    /// parameters are read once, and each row's hidden units are its
    /// parallel items.
    sim::KernelDesc Cost(std::string name, int64_t rows) const
    {
        return RowCost(std::move(name), rows, ForwardFlops(rows),
                       (input_size_ + 2 * hidden_size_) * 4, hidden_size_, ParameterBytes());
    }

  protected:
    RecurrentCell(std::string name, int64_t input_size, int64_t hidden_size,
                  int64_t gates, Rng& rng);

    int64_t input_size_;
    int64_t hidden_size_;
    Linear ih_;  ///< gates from x: [batch, gates * hidden]
    Linear hh_;  ///< gates from h: [batch, gates * hidden]
};

/// tanh(W_ih x + W_hh h + b) vanilla recurrent cell.
class RnnCell : public RecurrentCell {
  public:
    RnnCell(int64_t input_size, int64_t hidden_size, Rng& rng);

    /// x: [batch, input], h: [batch, hidden] -> new h [batch, hidden].
    Tensor Forward(const Tensor& x, const Tensor& h) const;
    int64_t ForwardFlops(int64_t batch) const override;
};

/// Gated recurrent unit (Cho et al. 2014); gates [r|z|n].
class GruCell : public RecurrentCell {
  public:
    GruCell(int64_t input_size, int64_t hidden_size, Rng& rng);

    /// x: [batch, input], h: [batch, hidden] -> new h [batch, hidden].
    Tensor Forward(const Tensor& x, const Tensor& h) const;
    int64_t ForwardFlops(int64_t batch) const override;
};

/// LSTM cell state: hidden h and cell c, both [batch, hidden].
struct LstmState {
    Tensor h;
    Tensor c;
};

/// Long short-term memory cell (Gers et al. 2000 variant with forget gate);
/// gates [i|f|g|o].
class LstmCell : public RecurrentCell {
  public:
    LstmCell(int64_t input_size, int64_t hidden_size, Rng& rng);

    /// One step; returns the new state.
    LstmState Forward(const Tensor& x, const LstmState& state) const;

    /// Zero-initialized state for @p batch rows.
    LstmState InitialState(int64_t batch) const;
    int64_t ForwardFlops(int64_t batch) const override;

    /// A @p steps-step sequence of one row as one kernel: Cost(name, steps),
    /// but only the hidden units run in parallel, since each step reads the
    /// previous step's state.
    sim::KernelDesc SequenceCost(std::string name, int64_t steps) const;
};

}  // namespace dgnn::nn
