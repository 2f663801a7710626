#include "nn/linear.hpp"

#include <utility>

namespace dgnn::nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool with_bias)
    : Module("linear"),
      in_features_(in_features),
      out_features_(out_features),
      weight_(init::XavierUniform(out_features, in_features, rng)),
      bias_(with_bias ? init::Uniform(Shape({out_features}), rng, -0.05f, 0.05f)
                      : Tensor()),
      packed_weight_(ops::PackRhs(weight_))
{
    RegisterParameter("weight", weight_);
    if (with_bias) {
        RegisterParameter("bias", bias_);
    }
}

Tensor
Linear::Forward(const Tensor& x) const
{
    DGNN_CHECK(x.Rank() == 2 && x.Dim(1) == in_features_, "Linear expects [*, ",
               in_features_, "], got ", x.GetShape().ToString());
    Tensor y = ops::MatMulTransposed(x, packed_weight_);
    if (bias_.NumElements() > 0) {
        y = ops::AddRowBroadcast(std::move(y), bias_);
    }
    return y;
}

int64_t
Linear::ForwardFlops(int64_t batch) const
{
    return ops::MatMulFlops(batch, in_features_, out_features_) + batch * out_features_;
}

}  // namespace dgnn::nn
