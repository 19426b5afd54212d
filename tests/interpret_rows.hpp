/**
 * @file
 * Shared test oracle: the per-row reference interpreter (ir::executeIr)
 * over every row of a matrix. The batched paths (ExecutablePlan,
 * InferenceEngine, the platform simulators) are held to it, so a test
 * compares them against independent code rather than against the plan
 * itself.
 */
#pragma once

#include <vector>

#include "ir/model_ir.hpp"
#include "math/matrix.hpp"

namespace homunculus::test {

/** executeIr on each row of @p x, in row order. */
inline std::vector<int>
interpretRows(const ir::ModelIr &model, const math::Matrix &x)
{
    std::vector<int> labels(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r)
        labels[r] = ir::executeIr(model, x.row(r));
    return labels;
}

}  // namespace homunculus::test
