/**
 * @file
 * Match-action-table (MAT) pipeline interpreter with IIsy-style mappings.
 *
 * Substitution (see DESIGN.md): stands in for a Tofino/P4-SDNet pipeline
 * executing IIsy's classical-ML mappings. The interpreter models a PISA
 * pipeline as an ordered list of tables; a packet carries a metadata
 * vector of per-class accumulators plus a state register through the
 * stages, and each table performs a lookup + ALU action:
 *
 *  - KMeans (paper §5.2.2): one MAT per cluster. Each cluster table holds
 *    the centroid constants and its action accumulates the squared
 *    distance into the cluster's metadata slot; the final cluster table
 *    also performs the arg-min selection. Tables consumed = k.
 *  - SVM (paper §4): one MAT per feature. Each feature table range-matches
 *    the quantized feature value into a bin and its action adds the
 *    per-class contribution w_c[f] * bin_center; the last table arg-maxes.
 *    Tables consumed = number of features.
 *  - Decision tree: one MAT per level. Entries match (state = node id,
 *    feature value range) and the action writes the next node id or the
 *    leaf label. Tables consumed = tree depth.
 *
 * DNNs are not MAT-mappable at these sizes (N2Net needs ~12 MATs per
 * layer); MatPlatform reports them unsupported, which is what drives the
 * optimization core to prune the DNN family for MAT targets.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/exec_plan.hpp"
#include "ir/model_ir.hpp"

namespace homunculus::backends {

/** A range-match entry: [lo, hi] on the stage key -> action payload. */
struct MatEntry
{
    std::int32_t lo = 0;
    std::int32_t hi = 0;
    /** Per-class ALU operands (contribution added per class slot). */
    std::vector<std::int64_t> classContribution;
    /** Next-state write for tree traversal (-1 = unused). */
    std::int32_t nextState = -1;
    /** Leaf label write (-1 = unused). */
    int labelWrite = -1;
};

/** What a stage does after its lookup. */
enum class MatStageKind {
    kAccumulate,   ///< add classContribution to per-class accumulators.
    kDistance,     ///< accumulate squared distance to stored centroid.
    kTreeLevel,    ///< state-machine step for a tree level.
    kSelectMin,    ///< write argmin(accumulators) to the packet label.
    kSelectMax,    ///< write argmax(accumulators) to the packet label.
};

/** One physical match-action table. */
struct MatTable
{
    std::string name;
    MatStageKind kind = MatStageKind::kAccumulate;
    /** Feature index keyed by this table (unused for select stages). */
    std::size_t keyField = 0;
    std::vector<MatEntry> entries;
    /** Centroid constants for kDistance stages (one per feature). */
    std::vector<std::int32_t> centroid;
    /** Accumulator slot a kDistance stage writes. */
    std::size_t classSlot = 0;
    /** Whether this table also performs the final selection. */
    bool fusedSelect = false;
    bool selectMin = false;  ///< fused selection polarity.

    /**
     * Bucketized lookup indexes over the entries (built once at compile
     * time) so the per-packet walk binary-searches sorted entry bounds
     * instead of scanning linearly. Only the index this table's stage
     * kind consults is built — accumulate stages the range index, tree
     * levels the group index, distance/select stages neither. Entry
     * storage order is untouched (codegen and capacity accounting see
     * the installed order), and an index is used only when its
     * verification proved it reproduces the linear first-match
     * semantics exactly; tables that fail verification keep the linear
     * walk (and carry no index data).
     *
     * Range index (the accumulate stages — SVM feature bins):
     * `orderedHi` mirrors the entries' hi bounds in storage order;
     * `rangeIndexed` is set when both lo and hi are non-decreasing in
     * storage order. Then the first entry whose hi >= key is the first
     * possible match in original order (every earlier entry ends below
     * key, every later one starts at or above this one), even for bins
     * that share boundary points.
     */
    std::vector<std::int32_t> orderedHi;
    bool rangeIndexed = false;

    /**
     * Exact-match group index (the tree-level stages): entry positions
     * stable-sorted ascending by lo plus the sorted keys, so a state's
     * whole entry group is found by binary search and scanned in
     * original order. Requires every entry exact (lo == hi);
     * `groupIndexed` is set when that verifies.
     */
    std::vector<std::int32_t> sortedLo;
    std::vector<std::uint32_t> sortedOrder;
    bool groupIndexed = false;
};

/** A compiled MAT program plus the packet-walk interpreter. */
class MatPipeline
{
  public:
    /** Compile IIsy mappings from a ModelIr. */
    static MatPipeline compileKMeans(const ir::ModelIr &model);
    static MatPipeline compileSvm(const ir::ModelIr &model,
                                  std::size_t bins_per_feature);
    static MatPipeline compileTree(const ir::ModelIr &model);

    /** Per-packet pipeline walk; returns the classified label. */
    int process(const std::vector<double> &features) const;

    /**
     * Reference walk using the linear first-match entry scan — the
     * semantic spec the bucketized binary-search index must reproduce
     * bit-for-bit (differential-tested against process()). Not a hot
     * path; exists so the index can always be checked against the
     * original table semantics.
     */
    int processLinear(const std::vector<double> &features) const;

    /**
     * Batched walk over a feature matrix: quantization buffers and class
     * accumulators are hoisted out of the per-packet loop, rows are read
     * in place (no per-row copies), and the row loop shards across up to
     * @p jobs threads (0 = one per hardware thread) on the
     * process-default runtime::Executor — the walk is
     * per-row independent, so labels are identical to calling process()
     * on each row at any width. @p pre_quantized, when non-null and in
     * this pipeline's format, skips input quantization entirely.
     */
    std::vector<int> processBatch(
        const math::Matrix &x, std::size_t jobs = 1,
        const ir::QuantizedMatrix *pre_quantized = nullptr) const;

    std::size_t numTables() const { return tables_.size(); }
    std::size_t totalEntries() const;
    const std::vector<MatTable> &tables() const { return tables_; }
    const common::FixedPointFormat &format() const { return format_; }

    /**
     * Pin this pipeline's batched walk to one kernel target instead of
     * the process-wide KernelDispatch resolution — the MAT mirror of
     * ExecutablePlan::forceKernelTarget, so differential harnesses can
     * run a scalar-pinned pipeline next to a vectorized one in the
     * same process without the global KernelDispatch::force()/reset()
     * dance (which is process-wide state and races any concurrent
     * batch). Labels never change; only the instruction mix does.
     * @throws std::runtime_error when the target is unavailable here.
     */
    void forceKernelTarget(kernels::KernelTarget target);

    /** The pinned table, or nullptr when following KernelDispatch. */
    const kernels::KernelOps *forcedKernels() const
    {
        return forcedOps_;
    }

  private:
    explicit MatPipeline(common::FixedPointFormat format)
        : format_(format), narrow_(format.totalBits() <= 16)
    {
    }

    /** The table walk over an already-quantized packet; @p accumulators
     *  must hold numClasses zeros on entry. @p use_index selects the
     *  bucketized binary-search entry lookup (process) or the linear
     *  reference scan (processLinear); results are identical. */
    int walk(const std::int32_t *quantized, std::int64_t *accumulators,
             bool use_index) const;

    /**
     * Stage-major walk of a whole row chunk (the processBatch hot
     * path): instead of running every table per packet, each table
     * stage resolves all @p count rows before the next stage runs —
     * range-match stages batch their bucket lookups through the
     * dispatch kernel layer (kernels::KernelOps::rangeLowerBound), and
     * distance stages the fused squared-distance reduction. Per-row
     * results are bit-identical to walk(q, acc, use_index=true) — the
     * stages only commute across rows, never within one.
     * All arrays are caller-owned chunk scratch: @p rows holds count
     * quantized-row pointers; accumulators (count x numClasses), states,
     * labels, written, lookup and keys (count each) are initialized
     * here.
     */
    void walkChunk(const std::int32_t *const *rows, std::size_t count,
                   std::int64_t *accumulators, std::int32_t *states,
                   int *labels, std::uint8_t *written,
                   std::uint32_t *lookup, std::int32_t *keys) const;

    /** Build every table's lookup index; called by the compile*
     *  factories after the entries are installed. */
    void buildLookupIndexes();

    std::vector<MatTable> tables_;
    common::FixedPointFormat format_;
    std::size_t numClasses_ = 0;
    std::size_t inputDim_ = 0;
    /** Format fits 16 bits: feature differences fit int32, so the
     *  vectorized distance kernel is exact (wide formats keep the
     *  int64 scalar loop). */
    bool narrow_ = true;
    /** Pinned kernel table (forceKernelTarget); nullptr = follow the
     *  process-wide KernelDispatch. Points at immutable static data,
     *  so copies of the pipeline share it safely. */
    const kernels::KernelOps *forcedOps_ = nullptr;
};

}  // namespace homunculus::backends
