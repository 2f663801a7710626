#pragma once

/// @file
/// Base class for neural modules: a named registry of parameter tensors so
/// weight byte counts (for warm-up / transfer modeling) and deterministic
/// initialization are uniform across models.

#include <string>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

namespace dgnn::nn {

/// A named learnable tensor. The tensor itself is owned by the module as a
/// regular data member; the registry only points at it.
struct Parameter {
    std::string name;
    const Tensor* value = nullptr;
};

/// Base class: registers parameters and child modules (non-owning).
class Module {
  public:
    explicit Module(std::string name) : name_(std::move(name)) {}
    virtual ~Module() = default;

    Module(const Module&) = delete;
    Module& operator=(const Module&) = delete;

    const std::string& Name() const { return name_; }

    /// All parameters including registered children, depth-first.
    std::vector<Parameter> AllParameters() const;

    /// Total parameter element count, children included.
    int64_t ParameterCount() const;

    /// Total parameter bytes, children included (weight footprint used by
    /// the warm-up and H2D transfer models).
    int64_t ParameterBytes() const;

  protected:
    /// Registers a member tensor as a parameter.
    void RegisterParameter(const std::string& name, const Tensor& value);

    /// Registers a child module for parameter aggregation.
    void RegisterChild(Module* child);

  private:
    std::string name_;
    std::vector<Parameter> parameters_;
    std::vector<Module*> children_;
};

/// The kernel @p name over @p rows independent rows: @p flops in all,
/// @p row_bytes read and written per row plus @p weight_bytes read once, and
/// @p items_per_row parallel items per row, at least one in all, so zero
/// rows is a valid kernel. Throws if rows < 0. Every module's Cost is this
/// with its own per-row terms (DESIGN.md section 2).
sim::KernelDesc RowCost(std::string name, int64_t rows, int64_t flops, int64_t row_bytes,
                        int64_t items_per_row, int64_t weight_bytes);

}  // namespace dgnn::nn
