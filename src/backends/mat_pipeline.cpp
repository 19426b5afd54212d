#include "backends/mat_pipeline.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "kernels/kernel_dispatch.hpp"
#include "runtime/executor.hpp"

namespace homunculus::backends {

namespace {

/**
 * Bucketized entry lookup for range tables (the SVM feature bins):
 * binary-search the storage-ordered hi bounds for the first entry
 * ending at or above key, then confirm its lo. `rangeIndexed`
 * guarantees lo and hi are both non-decreasing in storage order, so
 * that entry is exactly the linear first match: every earlier entry
 * ends below key, and if this one starts above key, so does every
 * later one — touching bins (shared boundary points) resolve to the
 * earlier bin, as the linear scan does.
 */
const MatEntry *
findRangeEntry(const MatTable &table, std::int32_t key)
{
    auto it = std::lower_bound(table.orderedHi.begin(),
                               table.orderedHi.end(), key);
    if (it == table.orderedHi.end())
        return nullptr;  // key above every entry's hi.
    const MatEntry &entry =
        table.entries[static_cast<std::size_t>(
            it - table.orderedHi.begin())];
    return entry.lo <= key ? &entry : nullptr;
}

/** The [begin, end) span of sortedOrder whose entries match @p key
 *  exactly (lo == hi == key — the tree state groups), original entry
 *  order preserved by the stable sort. */
std::pair<std::size_t, std::size_t>
findExactGroup(const MatTable &table, std::int32_t key)
{
    auto range = std::equal_range(table.sortedLo.begin(),
                                  table.sortedLo.end(), key);
    return {static_cast<std::size_t>(range.first - table.sortedLo.begin()),
            static_cast<std::size_t>(range.second -
                                     table.sortedLo.begin())};
}

void
buildLookupIndex(MatTable &table)
{
    std::size_t n = table.entries.size();
    table.orderedHi.clear();
    table.sortedLo.clear();
    table.sortedOrder.clear();
    table.rangeIndexed = false;
    table.groupIndexed = false;

    // Only the index this stage kind's walk consults is built (and
    // kept); distance/select stages do no entry lookups at all.
    if (table.kind == MatStageKind::kAccumulate) {
        // Range index: usable when lo and hi are both non-decreasing
        // in storage order (the compile* factories install bins in
        // ascending order, so this holds for every generated table).
        table.rangeIndexed = true;
        table.orderedHi.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            table.orderedHi[i] = table.entries[i].hi;
            if (i > 0 &&
                (table.entries[i].lo < table.entries[i - 1].lo ||
                 table.entries[i].hi < table.entries[i - 1].hi))
                table.rangeIndexed = false;
        }
        if (!table.rangeIndexed)
            table.orderedHi.clear();  // linear fallback; drop the index.
    } else if (table.kind == MatStageKind::kTreeLevel) {
        // Exact-match group index: usable when every entry is a point
        // match (the tree state entries); the stable sort keeps each
        // state group's entries in original order, so the group scan
        // reproduces the linear first-match exactly.
        table.groupIndexed = true;
        for (const MatEntry &entry : table.entries)
            if (entry.lo != entry.hi) {
                table.groupIndexed = false;
                break;
            }
        if (table.groupIndexed) {
            table.sortedOrder.resize(n);
            std::iota(table.sortedOrder.begin(), table.sortedOrder.end(),
                      0u);
            std::stable_sort(
                table.sortedOrder.begin(), table.sortedOrder.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                    return table.entries[a].lo < table.entries[b].lo;
                });
            table.sortedLo.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                table.sortedLo[i] =
                    table.entries[table.sortedOrder[i]].lo;
        }
    }
}

}  // namespace

void
MatPipeline::buildLookupIndexes()
{
    for (MatTable &table : tables_)
        buildLookupIndex(table);
}

std::size_t
MatPipeline::totalEntries() const
{
    std::size_t total = 0;
    for (const auto &table : tables_)
        // Distance tables hold their centroid as installed entries too.
        total += std::max<std::size_t>(table.entries.size(),
                                       table.centroid.empty() ? 0 : 1);
    return total;
}

void
MatPipeline::forceKernelTarget(kernels::KernelTarget target)
{
    const kernels::KernelOps *ops = kernels::KernelDispatch::find(target);
    if (ops == nullptr)
        throw std::runtime_error(
            std::string("MatPipeline: kernel target '") +
            kernels::kernelTargetName(target) +
            "' is not available on this host");
    forcedOps_ = ops;
}

MatPipeline
MatPipeline::compileKMeans(const ir::ModelIr &model)
{
    if (model.kind != ir::ModelKind::kKMeans)
        throw std::runtime_error("compileKMeans: wrong model kind");
    MatPipeline pipeline(model.format);
    pipeline.numClasses_ = model.centroids.size();
    pipeline.inputDim_ = model.inputDim;

    for (std::size_t c = 0; c < model.centroids.size(); ++c) {
        MatTable table;
        table.name = "kmeans_cluster_" + std::to_string(c);
        table.kind = MatStageKind::kDistance;
        table.centroid = model.centroids[c];
        table.classSlot = c;
        if (c + 1 == model.centroids.size()) {
            // The final cluster table fuses the arg-min selection so the
            // pipeline consumes exactly k MATs (paper §5.2.2 accounting).
            table.fusedSelect = true;
            table.selectMin = true;
        }
        pipeline.tables_.push_back(std::move(table));
    }
    pipeline.buildLookupIndexes();
    return pipeline;
}

MatPipeline
MatPipeline::compileSvm(const ir::ModelIr &model,
                        std::size_t bins_per_feature)
{
    if (model.kind != ir::ModelKind::kSvm)
        throw std::runtime_error("compileSvm: wrong model kind");
    if (bins_per_feature < 2)
        throw std::runtime_error("compileSvm: need >= 2 bins");
    MatPipeline pipeline(model.format);
    pipeline.numClasses_ = model.svmWeights.size();
    pipeline.inputDim_ = model.inputDim;
    const common::FixedPointFormat &fmt = model.format;

    // Feature domain: the scaled inputs live well inside [-8, 8] after
    // standardization; the outermost bins catch saturated values.
    const double lo = -8.0, hi = 8.0;
    double width = (hi - lo) / static_cast<double>(bins_per_feature);

    for (std::size_t f = 0; f < model.inputDim; ++f) {
        MatTable table;
        table.name = "svm_feature_" + std::to_string(f);
        table.kind = MatStageKind::kAccumulate;
        table.keyField = f;
        for (std::size_t b = 0; b < bins_per_feature; ++b) {
            MatEntry entry;
            double bin_lo = lo + width * static_cast<double>(b);
            double bin_hi = bin_lo + width;
            double center = 0.5 * (bin_lo + bin_hi);
            entry.lo = (b == 0) ? std::numeric_limits<std::int32_t>::min()
                                : fmt.quantize(bin_lo);
            entry.hi = (b + 1 == bins_per_feature)
                           ? std::numeric_limits<std::int32_t>::max()
                           : fmt.quantize(bin_hi);
            for (std::size_t c = 0; c < pipeline.numClasses_; ++c) {
                std::int64_t contribution =
                    fmt.multiply(fmt.quantize(center),
                                 model.svmWeights[c][f]);
                if (f == 0)
                    contribution += model.svmBiases[c];
                entry.classContribution.push_back(contribution);
            }
            table.entries.push_back(std::move(entry));
        }
        if (f + 1 == model.inputDim) {
            table.fusedSelect = true;
            table.selectMin = false;
        }
        pipeline.tables_.push_back(std::move(table));
    }
    pipeline.buildLookupIndexes();
    return pipeline;
}

MatPipeline
MatPipeline::compileTree(const ir::ModelIr &model)
{
    if (model.kind != ir::ModelKind::kDecisionTree)
        throw std::runtime_error("compileTree: wrong model kind");
    MatPipeline pipeline(model.format);
    pipeline.numClasses_ = static_cast<std::size_t>(model.numClasses);
    pipeline.inputDim_ = model.inputDim;

    // Level-order traversal: nodes reachable at each depth become entries
    // of that level's table, keyed on the packet's current state (node id).
    std::vector<std::vector<int>> levels;
    std::vector<int> frontier = {0};
    while (!frontier.empty()) {
        levels.push_back(frontier);
        std::vector<int> next;
        for (int idx : frontier) {
            const ir::IrTreeNode &node =
                model.treeNodes[static_cast<std::size_t>(idx)];
            if (!node.isLeaf) {
                next.push_back(node.left);
                next.push_back(node.right);
            }
        }
        frontier = std::move(next);
    }
    // Every level gets a table: internal nodes contribute comparison
    // entries that advance the state, leaves contribute entries that
    // write the final label.
    for (std::size_t depth = 0; depth < levels.size(); ++depth) {
        MatTable table;
        table.name = "tree_level_" + std::to_string(depth);
        table.kind = MatStageKind::kTreeLevel;
        for (int idx : levels[depth]) {
            const ir::IrTreeNode &node =
                model.treeNodes[static_cast<std::size_t>(idx)];
            if (node.isLeaf) {
                // A leaf at this level: match on state, write the label.
                MatEntry entry;
                entry.lo = idx;   // state match encoded in [lo, lo].
                entry.hi = idx;
                entry.labelWrite = node.classLabel;
                table.entries.push_back(entry);
                continue;
            }
            // Internal node: two entries (<= threshold, > threshold).
            MatEntry left;
            left.lo = idx;
            left.hi = idx;
            left.nextState = node.left;
            left.labelWrite = -1;
            // Encode the comparison via the keyField + threshold carried
            // in classContribution[0] (the interpreter understands this).
            left.classContribution = {node.threshold, 1};  // 1 = "<=".
            MatEntry right = left;
            right.nextState = node.right;
            right.classContribution = {node.threshold, 0};  // 0 = ">".
            table.keyField = node.feature;  // per-entry feature below.
            left.classContribution.push_back(
                static_cast<std::int64_t>(node.feature));
            right.classContribution.push_back(
                static_cast<std::int64_t>(node.feature));
            table.entries.push_back(left);
            table.entries.push_back(right);
        }
        pipeline.tables_.push_back(std::move(table));
    }
    pipeline.buildLookupIndexes();
    return pipeline;
}

int
MatPipeline::process(const std::vector<double> &features) const
{
    if (features.size() != inputDim_)
        throw std::runtime_error("MatPipeline: feature width mismatch");
    std::vector<std::int32_t> quantized = format_.quantizeVector(features);
    std::vector<std::int64_t> accumulators(numClasses_, 0);
    return walk(quantized.data(), accumulators.data(), /*use_index=*/true);
}

int
MatPipeline::processLinear(const std::vector<double> &features) const
{
    if (features.size() != inputDim_)
        throw std::runtime_error("MatPipeline: feature width mismatch");
    std::vector<std::int32_t> quantized = format_.quantizeVector(features);
    std::vector<std::int64_t> accumulators(numClasses_, 0);
    return walk(quantized.data(), accumulators.data(),
                /*use_index=*/false);
}

std::vector<int>
MatPipeline::processBatch(const math::Matrix &x, std::size_t jobs,
                          const ir::QuantizedMatrix *pre_quantized) const
{
    if (x.rows() > 0 && x.cols() != inputDim_)
        throw std::runtime_error("MatPipeline: feature width mismatch");
    std::vector<int> labels(x.rows());
    if (x.rows() == 0)
        return labels;

    // A pre-quantized view is usable only when it matches this
    // pipeline's format and shape; otherwise quantize per row as before.
    if (pre_quantized != nullptr &&
        (pre_quantized->rows() != x.rows() ||
         pre_quantized->cols() != x.cols() ||
         pre_quantized->format().integerBits() != format_.integerBits() ||
         pre_quantized->format().fracBits() != format_.fracBits()))
        pre_quantized = nullptr;

    // Per-worker scratch hoisted out of the per-packet loop; rows are
    // read in place. Shards of kWalkChunkRows fan out over the pool
    // (512 matches the engine's re-measured minRowsToShard: with the
    // persistent Executor a dispatch is a queue handoff), and inside a
    // shard the walk runs stage-major over kMatChunkRows-row chunks —
    // each table stage resolves a whole chunk before the next stage,
    // so range-match stages batch their binary searches through the
    // kernel dispatch layer with the table's bounds hot in cache. The
    // walk is per-row independent, so both levels of chunking stitch
    // deterministically into labels at any jobs width.
    constexpr std::size_t kWalkChunkRows = 512;
    constexpr std::size_t kMatChunkRows = 64;
    runtime::Executor &pool = runtime::Executor::processDefault();
    std::size_t workers = pool.resolve(jobs);
    struct WalkScratch
    {
        std::vector<std::int32_t> quantized;
        std::vector<const std::int32_t *> rows;
        std::vector<std::int64_t> accumulators;
        std::vector<std::int32_t> states;
        std::vector<std::uint8_t> written;
        std::vector<std::uint32_t> lookup;
        std::vector<std::int32_t> keys;
    };
    std::vector<WalkScratch> scratches(workers);
    pool.runChunks(
        workers, x.rows(), kWalkChunkRows,
        [&](std::size_t begin, std::size_t end, std::size_t worker) {
            WalkScratch &scratch = scratches[worker];
            scratch.quantized.resize(kMatChunkRows * inputDim_);
            scratch.rows.resize(kMatChunkRows);
            scratch.accumulators.resize(kMatChunkRows * numClasses_);
            scratch.states.resize(kMatChunkRows);
            scratch.written.resize(kMatChunkRows);
            scratch.lookup.resize(kMatChunkRows);
            scratch.keys.resize(kMatChunkRows);
            for (std::size_t chunk = begin; chunk < end;
                 chunk += kMatChunkRows) {
                std::size_t count =
                    std::min(kMatChunkRows, end - chunk);
                for (std::size_t i = 0; i < count; ++i) {
                    if (pre_quantized != nullptr) {
                        scratch.rows[i] =
                            pre_quantized->rowPtr(chunk + i);
                    } else {
                        std::int32_t *q =
                            scratch.quantized.data() + i * inputDim_;
                        format_.quantizeInto(x.rowPtr(chunk + i), q,
                                             inputDim_);
                        scratch.rows[i] = q;
                    }
                }
                walkChunk(scratch.rows.data(), count,
                          scratch.accumulators.data(),
                          scratch.states.data(), labels.data() + chunk,
                          scratch.written.data(), scratch.lookup.data(),
                          scratch.keys.data());
            }
        });
    return labels;
}

void
MatPipeline::walkChunk(const std::int32_t *const *rows, std::size_t count,
                       std::int64_t *accumulators, std::int32_t *states,
                       int *labels, std::uint8_t *written,
                       std::uint32_t *lookup, std::int32_t *keys) const
{
    const kernels::KernelOps &ops =
        forcedOps_ != nullptr ? *forcedOps_
                              : kernels::KernelDispatch::ops();
    std::fill(accumulators, accumulators + count * numClasses_,
              std::int64_t{0});
    std::fill(states, states + count, 0);
    std::fill(labels, labels + count, 0);
    std::fill(written, written + count, std::uint8_t{0});

    // One row's tree-level entry application — the same semantics as
    // walk()'s applyTreeEntry, against this row's chunk slots.
    auto applyTreeEntry = [&](const MatEntry &entry, std::size_t i) {
        if (entry.labelWrite >= 0 && entry.classContribution.empty()) {
            labels[i] = entry.labelWrite;
            written[i] = 1;
            return true;
        }
        std::int64_t threshold = entry.classContribution[0];
        bool is_le = entry.classContribution[1] == 1;
        auto feature =
            static_cast<std::size_t>(entry.classContribution[2]);
        bool cmp = rows[i][feature] <= threshold;
        if (cmp == is_le) {
            states[i] = entry.nextState;
            return true;
        }
        return false;
    };

    for (const MatTable &table : tables_) {
        switch (table.kind) {
          case MatStageKind::kDistance: {
            // Whole-chunk distance stage: the centroid streams once
            // per row with the fused reduction kernel (narrow formats;
            // wide ones keep the int64 scalar loop for exactness).
            if (narrow_) {
                for (std::size_t i = 0; i < count; ++i)
                    accumulators[i * numClasses_ + table.classSlot] =
                        ops.squaredDist(rows[i], table.centroid.data(),
                                        inputDim_);
            } else {
                for (std::size_t i = 0; i < count; ++i) {
                    std::int64_t dist = 0;
                    for (std::size_t f = 0; f < inputDim_; ++f) {
                        std::int64_t d =
                            static_cast<std::int64_t>(rows[i][f]) -
                            table.centroid[f];
                        dist += d * d;
                    }
                    accumulators[i * numClasses_ + table.classSlot] =
                        dist;
                }
            }
            break;
          }
          case MatStageKind::kAccumulate: {
            if (table.rangeIndexed) {
                // Batched range-match: resolve every row's bucket in
                // one kernel call (the binary searches share the
                // table's hi bounds in cache), then confirm lo and
                // apply the ALU action per row.
                const std::size_t n = table.orderedHi.size();
                for (std::size_t i = 0; i < count; ++i)
                    keys[i] = rows[i][table.keyField];
                ops.rangeLowerBound(keys, count, table.orderedHi.data(),
                                    n, lookup);
                for (std::size_t i = 0; i < count; ++i) {
                    if (lookup[i] >= n)
                        continue;  // key above every entry's hi.
                    const MatEntry &entry = table.entries[lookup[i]];
                    if (entry.lo > keys[i])
                        continue;  // gap between bins.
                    std::int64_t *acc = accumulators + i * numClasses_;
                    for (std::size_t c = 0; c < numClasses_; ++c)
                        acc[c] += entry.classContribution[c];
                }
            } else {
                for (std::size_t i = 0; i < count; ++i) {
                    std::int32_t key = rows[i][table.keyField];
                    for (const MatEntry &entry : table.entries) {
                        if (key >= entry.lo && key <= entry.hi) {
                            std::int64_t *acc =
                                accumulators + i * numClasses_;
                            for (std::size_t c = 0; c < numClasses_;
                                 ++c)
                                acc[c] += entry.classContribution[c];
                            break;  // first-match semantics.
                        }
                    }
                }
            }
            break;
          }
          case MatStageKind::kTreeLevel: {
            for (std::size_t i = 0; i < count; ++i) {
                if (written[i])
                    continue;  // classified at a shallower leaf.
                if (table.groupIndexed) {
                    auto [begin, end] = findExactGroup(table, states[i]);
                    for (std::size_t e = begin; e < end; ++e)
                        if (applyTreeEntry(
                                table.entries[table.sortedOrder[e]], i))
                            break;
                } else {
                    for (const MatEntry &entry : table.entries) {
                        if (states[i] < entry.lo || states[i] > entry.hi)
                            continue;
                        if (applyTreeEntry(entry, i))
                            break;
                    }
                }
            }
            break;
          }
          case MatStageKind::kSelectMin:
          case MatStageKind::kSelectMax:
            break;  // standalone select stages are always fused.
        }

        if (table.fusedSelect) {
            for (std::size_t i = 0; i < count; ++i) {
                if (written[i])
                    continue;
                const std::int64_t *acc = accumulators + i * numClasses_;
                std::size_t best = 0;
                for (std::size_t c = 1; c < numClasses_; ++c) {
                    bool better = table.selectMin ? acc[c] < acc[best]
                                                  : acc[c] > acc[best];
                    if (better)
                        best = c;
                }
                labels[i] = static_cast<int>(best);
                written[i] = 1;
            }
        }
    }
}

int
MatPipeline::walk(const std::int32_t *q, std::int64_t *accumulators,
                  bool use_index) const
{
    std::int32_t state = 0;   // tree traversal node id.
    int label = 0;
    bool label_written = false;

    // One tree-level entry against the packet: a leaf entry writes the
    // label, a comparison entry advances the state when its polarity
    // matches. Returns true when the entry consumed the packet (the
    // level's first-match break).
    auto applyTreeEntry = [&](const MatEntry &entry) {
        if (entry.labelWrite >= 0 && entry.classContribution.empty()) {
            label = entry.labelWrite;
            label_written = true;
            return true;
        }
        // Comparison entry: payload = [threshold, is_le, feature].
        std::int64_t threshold = entry.classContribution[0];
        bool is_le = entry.classContribution[1] == 1;
        auto feature =
            static_cast<std::size_t>(entry.classContribution[2]);
        bool cmp = q[feature] <= threshold;
        if (cmp == is_le) {
            state = entry.nextState;
            // A next state pointing at a leaf resolves on the next
            // level's leaf entry.
            return true;
        }
        return false;
    };

    for (const MatTable &table : tables_) {
        switch (table.kind) {
          case MatStageKind::kDistance: {
            std::int64_t dist = 0;
            for (std::size_t f = 0; f < inputDim_; ++f) {
                std::int64_t d = static_cast<std::int64_t>(q[f]) -
                                 table.centroid[f];
                dist += d * d;
            }
            accumulators[table.classSlot] = dist;
            break;
          }
          case MatStageKind::kAccumulate: {
            std::int32_t key = q[table.keyField];
            const MatEntry *match = nullptr;
            if (use_index && table.rangeIndexed) {
                match = findRangeEntry(table, key);
            } else {
                for (const MatEntry &entry : table.entries) {
                    if (key >= entry.lo && key <= entry.hi) {
                        match = &entry;  // first-match semantics.
                        break;
                    }
                }
            }
            if (match != nullptr)
                for (std::size_t c = 0; c < numClasses_; ++c)
                    accumulators[c] += match->classContribution[c];
            break;
          }
          case MatStageKind::kTreeLevel: {
            if (label_written)
                break;  // packet already classified at a shallower leaf.
            if (use_index && table.groupIndexed) {
                // State matches are exact ([lo, lo] entries), so the
                // index narrows the scan to this state's entry group.
                auto [begin, end] = findExactGroup(table, state);
                for (std::size_t i = begin; i < end; ++i)
                    if (applyTreeEntry(
                            table.entries[table.sortedOrder[i]]))
                        break;
            } else {
                for (const MatEntry &entry : table.entries) {
                    if (state < entry.lo || state > entry.hi)
                        continue;
                    if (applyTreeEntry(entry))
                        break;
                }
            }
            break;
          }
          case MatStageKind::kSelectMin:
          case MatStageKind::kSelectMax:
            break;  // standalone select stages are always fused; see below.
        }

        if (table.fusedSelect && !label_written) {
            std::size_t best = 0;
            for (std::size_t c = 1; c < numClasses_; ++c) {
                bool better = table.selectMin
                                  ? accumulators[c] < accumulators[best]
                                  : accumulators[c] > accumulators[best];
                if (better)
                    best = c;
            }
            label = static_cast<int>(best);
            label_written = true;
        }
    }

    // Tree pipelines whose walk ended on a leaf node id resolve here.
    if (!label_written && !tables_.empty() &&
        tables_.front().kind == MatStageKind::kTreeLevel) {
        // Fall back to the state's label if it is a leaf id (robustness
        // against depth-truncated tables).
        label = 0;
    }
    return label;
}

}  // namespace homunculus::backends
