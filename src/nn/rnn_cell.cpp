#include "nn/rnn_cell.hpp"

#include <utility>

#include "tensor/ops.hpp"

namespace dgnn::nn {

namespace {

/// Columns [begin, end) of a rank-2 tensor.
Tensor
ColSlice(const Tensor& t, int64_t begin, int64_t end)
{
    const int64_t rows = t.Dim(0);
    const int64_t cols = t.Dim(1);
    DGNN_ASSERT(begin >= 0 && begin <= end && end <= cols);
    Tensor out(Shape({rows, end - begin}));
    for (int64_t i = 0; i < rows; ++i) {
        std::copy(t.Data() + i * cols + begin, t.Data() + i * cols + end,
                  out.Data() + i * (end - begin));
    }
    return out;
}

}  // namespace

RecurrentCell::RecurrentCell(std::string name, int64_t input_size, int64_t hidden_size,
                             int64_t gates, Rng& rng)
    : Module(std::move(name)),
      input_size_(input_size),
      hidden_size_(hidden_size),
      ih_(input_size, gates * hidden_size, rng),
      hh_(hidden_size, gates * hidden_size, rng)
{
    RegisterChild(&ih_);
    RegisterChild(&hh_);
}

RnnCell::RnnCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : RecurrentCell("rnn_cell", input_size, hidden_size, 1, rng)
{
}

Tensor
RnnCell::Forward(const Tensor& x, const Tensor& h) const
{
    return ops::Tanh(ops::Add(ih_.Forward(x), hh_.Forward(h)));
}

int64_t
RnnCell::ForwardFlops(int64_t batch) const
{
    return ih_.ForwardFlops(batch) + hh_.ForwardFlops(batch) + 2 * batch * hidden_size_;
}

GruCell::GruCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : RecurrentCell("gru_cell", input_size, hidden_size, 3, rng)
{
}

Tensor
GruCell::Forward(const Tensor& x, const Tensor& h) const
{
    DGNN_CHECK(x.Dim(0) == h.Dim(0), "GRU batch mismatch: ", x.Dim(0), " vs ",
               h.Dim(0));
    const Tensor gi = ih_.Forward(x);  // [batch, 3H]
    const Tensor gh = hh_.Forward(h);  // [batch, 3H]
    const int64_t hs = hidden_size_;

    const Tensor r = ops::Sigmoid(
        ops::Add(ColSlice(gi, 0, hs), ColSlice(gh, 0, hs)));
    const Tensor z = ops::Sigmoid(
        ops::Add(ColSlice(gi, hs, 2 * hs), ColSlice(gh, hs, 2 * hs)));
    const Tensor n = ops::Tanh(ops::Add(
        ColSlice(gi, 2 * hs, 3 * hs), ops::Mul(r, ColSlice(gh, 2 * hs, 3 * hs))));

    // h' = (1 - z) * n + z * h
    Tensor one_minus_z(z.GetShape());
    for (int64_t i = 0; i < z.NumElements(); ++i) {
        one_minus_z.Data()[i] = 1.0f - z.Data()[i];
    }
    return ops::Add(ops::Mul(one_minus_z, n), ops::Mul(z, h));
}

int64_t
GruCell::ForwardFlops(int64_t batch) const
{
    return ih_.ForwardFlops(batch) + hh_.ForwardFlops(batch) +
           10 * batch * hidden_size_;
}

LstmCell::LstmCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : RecurrentCell("lstm_cell", input_size, hidden_size, 4, rng)
{
}

LstmState
LstmCell::Forward(const Tensor& x, const LstmState& state) const
{
    DGNN_CHECK(x.Dim(0) == state.h.Dim(0), "LSTM batch mismatch: ", x.Dim(0), " vs ",
               state.h.Dim(0));
    const Tensor gates = ops::Add(ih_.Forward(x), hh_.Forward(state.h));
    const int64_t hs = hidden_size_;

    const Tensor i = ops::Sigmoid(ColSlice(gates, 0, hs));
    const Tensor f = ops::Sigmoid(ColSlice(gates, hs, 2 * hs));
    const Tensor g = ops::Tanh(ColSlice(gates, 2 * hs, 3 * hs));
    const Tensor o = ops::Sigmoid(ColSlice(gates, 3 * hs, 4 * hs));

    LstmState next;
    next.c = ops::Add(ops::Mul(f, state.c), ops::Mul(i, g));
    next.h = ops::Mul(o, ops::Tanh(next.c));
    return next;
}

LstmState
LstmCell::InitialState(int64_t batch) const
{
    return LstmState{Tensor(Shape({batch, hidden_size_})),
                     Tensor(Shape({batch, hidden_size_}))};
}

int64_t
LstmCell::ForwardFlops(int64_t batch) const
{
    return ih_.ForwardFlops(batch) + hh_.ForwardFlops(batch) +
           12 * batch * hidden_size_;
}

sim::KernelDesc
LstmCell::SequenceCost(std::string name, int64_t steps) const
{
    sim::KernelDesc seq = Cost(std::move(name), steps);
    seq.parallel_items = hidden_size_;
    return seq;
}

}  // namespace dgnn::nn
