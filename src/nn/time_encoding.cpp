#include "nn/time_encoding.hpp"

#include <cmath>

namespace dgnn::nn {

BochnerTimeEncoder::BochnerTimeEncoder(int64_t dim, Rng& rng)
    : Module("bochner_time"), dim_(dim)
{
    DGNN_CHECK(dim > 0, "time encoding dim must be positive, got ", dim);
    // Geometric frequency ladder as in the TGAT reference implementation:
    // w_i = 1 / 10^(i * 9 / dim), spanning ~9 decades.
    Tensor freq(Shape({dim}));
    for (int64_t i = 0; i < dim; ++i) {
        freq.Data()[i] = static_cast<float>(
            1.0 / std::pow(10.0, static_cast<double>(i) * 9.0 /
                                     static_cast<double>(dim)));
    }
    frequencies_ = std::move(freq);
    phases_ = init::Uniform(Shape({dim}), rng, 0.0f,
                            static_cast<float>(2.0 * 3.14159265358979));
    RegisterParameter("frequencies", frequencies_);
    RegisterParameter("phases", phases_);
}

Tensor
BochnerTimeEncoder::Forward(const Tensor& deltas) const
{
    DGNN_CHECK(deltas.Rank() == 1, "BochnerTimeEncoder expects rank-1 deltas, got ",
               deltas.GetShape().ToString());
    const int64_t n = deltas.Dim(0);
    Tensor out(Shape({n, dim_}));
    for (int64_t i = 0; i < n; ++i) {
        const float t = deltas.At(i);
        for (int64_t j = 0; j < dim_; ++j) {
            out.Data()[i * dim_ + j] =
                std::cos(t * frequencies_.Data()[j] + phases_.Data()[j]);
        }
    }
    return out;
}

}  // namespace dgnn::nn
