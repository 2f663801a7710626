#pragma once

/// @file
/// Named activation functions as a small enum-dispatched helper so model
/// configs can select them declaratively.

#include "tensor/tensor.hpp"

namespace dgnn::nn {

/// Supported activation kinds.
enum class Activation {
    kIdentity,
    kRelu,
    kSigmoid,
    kTanh,
    kGelu,
};

/// Applies the activation elementwise.
Tensor Apply(Activation act, const Tensor& x);

}  // namespace dgnn::nn
