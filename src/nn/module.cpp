#include "nn/module.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dgnn::nn {

std::vector<Parameter>
Module::AllParameters() const
{
    std::vector<Parameter> all = parameters_;
    for (const Module* child : children_) {
        std::vector<Parameter> child_params = child->AllParameters();
        for (Parameter& p : child_params) {
            p.name = child->Name() + "." + p.name;
            all.push_back(std::move(p));
        }
    }
    return all;
}

int64_t
Module::ParameterCount() const
{
    int64_t count = 0;
    for (const Parameter& p : AllParameters()) {
        count += p.value->NumElements();
    }
    return count;
}

int64_t
Module::ParameterBytes() const
{
    int64_t bytes = 0;
    for (const Parameter& p : AllParameters()) {
        bytes += p.value->NumBytes();
    }
    return bytes;
}

void
Module::RegisterParameter(const std::string& name, const Tensor& value)
{
    parameters_.push_back(Parameter{name, &value});
}

void
Module::RegisterChild(Module* child)
{
    DGNN_CHECK(child != nullptr, "null child module");
    children_.push_back(child);
}

sim::KernelDesc
RowCost(std::string name, int64_t rows, int64_t flops, int64_t row_bytes,
        int64_t items_per_row, int64_t weight_bytes)
{
    DGNN_CHECK(rows >= 0, "kernel '", name, "' over ", rows, " rows");
    return {.name = std::move(name),
            .flops = flops,
            .bytes = rows * row_bytes + weight_bytes,
            .parallel_items = std::max<int64_t>(1, rows * items_per_row)};
}

}  // namespace dgnn::nn
