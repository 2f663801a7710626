#include "nn/activations.hpp"

#include "tensor/ops.hpp"

namespace dgnn::nn {

Tensor
Apply(Activation act, const Tensor& x)
{
    switch (act) {
      case Activation::kIdentity:
        return x;
      case Activation::kRelu:
        return ops::Relu(x);
      case Activation::kSigmoid:
        return ops::Sigmoid(x);
      case Activation::kTanh:
        return ops::Tanh(x);
      case Activation::kGelu:
        return ops::Gelu(x);
    }
    return x;
}

}  // namespace dgnn::nn
