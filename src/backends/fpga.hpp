/**
 * @file
 * FPGA backend: Alveo-style resource utilization and power model.
 *
 * Substitution (see DESIGN.md): the paper's end-to-end evaluation (Table 5)
 * maps models through Spatial/Vivado onto an Alveo U250 bump-in-the-wire
 * and reports LUT/FF/BRAM utilization and board power. Vivado is not
 * available offline, so this backend provides an analytic model calibrated
 * to Table 5's loopback baseline: a fixed shell cost plus per-parameter
 * and per-layer increments (LUTs store model parameters on the FPGA, so
 * LUT growth tracks parameter count; FF growth tracks pipeline registers;
 * BRAM stays at the shell allocation until buffers overflow a threshold).
 */
#pragma once

#include "backends/platform.hpp"

namespace homunculus::backends {

/** Calibration constants of the FPGA model. */
struct FpgaConfig
{
    // Shell (loopback) baseline, from Table 5's first row.
    double shellLutPercent = 5.36;
    double shellFfPercent = 3.64;
    double shellBramPercent = 4.15;
    double shellPowerWatts = 15.131;

    // Per-model increments.
    double lutPerParam = 0.0040;     ///< LUT% per stored parameter.
    double lutFixed = 0.30;          ///< datapath fixed overhead.
    double ffPerParam = 0.0020;      ///< FF% per parameter.
    double ffFixed = 0.20;
    double ffPerLayer = 0.02;        ///< pipeline registers per stage.
    std::size_t bramWordThreshold = 4096;  ///< params before BRAM spill.
    double bramPerBlockPercent = 1.04;

    // Power: dominated by LUT switching, secondarily FF toggling.
    double powerPerLutPercent = 1.30;
    double powerPerFfPercent = 0.45;

    // Timing: Spatial pipelines on the U250 close around 250 MHz.
    double clockGhz = 0.25;
    double cmacLatencyNs = 250.0;    ///< CMAC + AXI ingress/egress.
    double lineRateGpps = 0.148;     ///< 100 GbE at min-size packets.

    // Operator budget caps (ResourceBudget / Alchemy `constrain`).
    // Utilization above a cap makes the mapping infeasible; 100% / 0 W
    // leave the fabric uncapped.
    double lutBudgetPercent = 100.0;
    double ffBudgetPercent = 100.0;
    double bramBudgetPercent = 100.0;
    double powerBudgetWatts = 0.0;   ///< 0 = unlimited board power.
};

/** The FPGA backend. */
class FpgaPlatform : public Platform
{
  public:
    explicit FpgaPlatform(FpgaConfig config = {});

    std::string name() const override { return "fpga"; }
    AlgorithmSupport supports(ir::ModelKind kind) const override;
    ResourceReport estimate(const ir::ModelIr &model) const override;
    // evaluate(): the FPGA executes the same fixed-point artifact as the
    // reference semantics, so the plan-backed Platform default applies.
    std::string generateCode(const ir::ModelIr &model) const override;

    /** The loopback (shell-only) report — Table 5's baseline row. */
    ResourceReport loopbackReport() const;

    PlatformPtr withBudget(const ResourceBudget &budget) const override;

    const FpgaConfig &config() const { return config_; }

  private:
    FpgaConfig config_;
};

}  // namespace homunculus::backends
