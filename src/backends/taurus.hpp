/**
 * @file
 * Taurus backend: a Plasticine-style CGRA "MapReduce" block in a switch.
 *
 * Substitution (see DESIGN.md): the paper maps models onto the Taurus
 * testbed (Tofino + FPGA bump-in-the-wire) and measures resources with
 * the SARA/Tungsten toolchain. We model the same observable surface:
 *
 *  - The MapReduce block is a grid of compute units (CUs) and memory
 *    units (MUs). A CU provides `cuLanes` parallel MACs deepened by
 *    `cuStages` pipeline stages; an MU stores `muWordCapacity` weight
 *    words and provides the double-buffered SRAM between layers.
 *  - A dense layer (in x out) fully unrolled for line rate needs
 *    ceil(in/cuStages) * ceil(out/cuLanes) CUs and
 *    ceil(params/muWordCapacity) + bufferMusPerLayer MUs.
 *  - If the CU demand exceeds the grid, the mapper time-multiplexes,
 *    raising the initiation interval (II) and dividing throughput —
 *    exactly the "too many iterations in the vector-matrix loop brings
 *    down device throughput" pruning the paper describes (§3).
 */
#pragma once

#include "backends/platform.hpp"

namespace homunculus::backends {

/** Physical description of a Taurus MapReduce grid. */
struct TaurusConfig
{
    std::size_t gridRows = 16;
    std::size_t gridCols = 16;
    double clockGhz = 1.0;          ///< 1 GHz -> 1 GPkt/s at II=1.
    std::size_t cuLanes = 4;        ///< parallel MACs per CU.
    std::size_t cuStages = 2;       ///< pipeline depth per CU.
    std::size_t muWordCapacity = 8;   ///< weight words per MU.
    std::size_t bufferMusPerLayer = 3;  ///< double-buffered SRAM per layer.
    double parseDeparseCycles = 12.0;   ///< fixed PISA pre/post processing.

    /** CU plane size (one plane of the checkerboard grid). */
    std::size_t cuBudget() const { return gridRows * gridCols; }
    /** MU plane size. */
    std::size_t muBudget() const { return gridRows * gridCols; }
};

/** Cost of mapping one model onto the grid. */
struct TaurusMappingCost
{
    std::size_t cus = 0;
    std::size_t mus = 0;
    double fillCycles = 0.0;   ///< pipeline fill latency in cycles.
    double ii = 1.0;           ///< initiation interval in cycles.
};

/** Compute the mapping cost of a model (shared by platform + simulator). */
TaurusMappingCost taurusMappingCost(const TaurusConfig &config,
                                    const ir::ModelIr &model);

/** The Taurus platform backend. */
class TaurusPlatform : public Platform
{
  public:
    explicit TaurusPlatform(TaurusConfig config = {});

    std::string name() const override { return "taurus"; }
    AlgorithmSupport supports(ir::ModelKind kind) const override;
    ResourceReport estimate(const ir::ModelIr &model) const override;
    std::string generateCode(const ir::ModelIr &model) const override;
    PlatformPtr withBudget(const ResourceBudget &budget) const override;

    const TaurusConfig &config() const { return config_; }

  private:
    TaurusConfig config_;
};

}  // namespace homunculus::backends
