/**
 * @file
 * The serving hot path allocates nothing per request or per batch.
 *
 * A process-wide operator new hook counts allocations, from any thread,
 * but only while a window is armed. After a warm-up past the latency
 * reservoirs' capacity, 10,000 submit(const double *) rows and 10,000
 * submitFrame() rows, with the batches that serve them, must make no
 * heap allocation at all: rows ride inline in the admission ring and
 * every batcher buffer is reused. A RequestQueue test pins the row
 * lifecycle underneath: a batch's row views equal the submitted rows
 * across a ring wrap.
 *
 * The hook forwards to the next operator new in symbol lookup order
 * (the C++ runtime's, or a sanitizer's), so allocation and deallocation
 * still pair up under ASAN and TSAN. The nothrow forms are not hooked:
 * the C++ runtime implements them through the hooked throwing form, a
 * sanitizer runtime does not, so under a sanitizer they go uncounted.
 */
#include <gtest/gtest.h>

#include <dlfcn.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "ir/exec_plan.hpp"
#include "net/feature_extract.hpp"
#include "net/packet.hpp"
#include "runtime/request_queue.hpp"
#include "runtime/server.hpp"
#include "runtime/telemetry.hpp"

namespace hc = homunculus::common;
namespace hi = homunculus::ir;
namespace hm = homunculus::math;
namespace hn = homunculus::net;
namespace hr = homunculus::runtime;

namespace {

std::atomic<bool> g_countAllocs{false};
std::atomic<std::uint64_t> g_allocs{0};

using NewFn = void *(*)(std::size_t);
using AlignedNewFn = void *(*)(std::size_t, std::align_val_t);

/** The operator new the hook replaces, looked up by mangled name. */
template <typename Fn>
Fn
nextOperator(const char *symbol)
{
    void *next = dlsym(RTLD_NEXT, symbol);
    if (next == nullptr)
        std::abort();
    return reinterpret_cast<Fn>(next);
}

void
countAlloc()
{
    if (g_countAllocs.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
}

/** Counts every allocation made between construction and
 *  destruction, on any thread. */
class AllocWindow
{
  public:
    AllocWindow()
    {
        g_allocs.store(0);
        g_countAllocs.store(true);
    }
    ~AllocWindow() { g_countAllocs.store(false); }
    AllocWindow(const AllocWindow &) = delete;
    AllocWindow &operator=(const AllocWindow &) = delete;

    std::uint64_t allocations() const { return g_allocs.load(); }
};

}  // namespace

void *
operator new(std::size_t size)
{
    static const NewFn next = nextOperator<NewFn>("_Znwm");
    countAlloc();
    return next(size);
}

void *
operator new[](std::size_t size)
{
    static const NewFn next = nextOperator<NewFn>("_Znam");
    countAlloc();
    return next(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    static const AlignedNewFn next =
        nextOperator<AlignedNewFn>("_ZnwmSt11align_val_t");
    countAlloc();
    return next(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    static const AlignedNewFn next =
        nextOperator<AlignedNewFn>("_ZnamSt11align_val_t");
    countAlloc();
    return next(size, align);
}

namespace {

/** A small MLP over the packet extractor's 7-feature schema. */
hi::ModelIr
tcModel(std::uint64_t seed)
{
    hc::Rng rng(seed);
    hi::ModelIr model;
    model.kind = hi::ModelKind::kMlp;
    model.inputDim = hn::kNumTcFeatures;
    model.numClasses = 4;
    std::size_t prev = model.inputDim;
    for (std::size_t width : {std::size_t{10}, std::size_t{4}}) {
        hi::QuantizedLayer layer;
        layer.inputDim = prev;
        layer.outputDim = width;
        layer.weights.resize(prev * width);
        layer.biases.resize(width);
        for (auto &w : layer.weights)
            w = static_cast<std::int32_t>(rng.uniformInt(-32768, 32767));
        for (auto &b : layer.biases)
            b = static_cast<std::int32_t>(rng.uniformInt(-32768, 32767));
        model.layers.push_back(std::move(layer));
        prev = width;
    }
    model.validate();
    return model;
}

}  // namespace

TEST(Server, SteadyStateServingMakesNoHeapAllocation)
{
    constexpr std::size_t kMaxBatch = 64;
    constexpr std::size_t kWarmupRows =
        hr::telemetry::kHistogramReservoirSize + 4 * kMaxBatch;
    constexpr std::size_t kWindowRows = 10'000;
    const hi::ModelIr model = tcModel(31);

    hc::Rng rng(7);
    hm::Matrix rows(kWindowRows, hn::kNumTcFeatures);
    for (double &v : rows.data())
        v = rng.uniform(-4.0, 4.0);
    hn::IotPacketConfig packet_config;
    packet_config.numPackets = 256;
    packet_config.seed = 11;
    std::vector<std::vector<std::uint8_t>> frames;
    for (const hn::LabeledPacket &packet :
         hn::generateIotPackets(packet_config))
        frames.push_back(hn::serialize(packet.packet));

    // Every ticket's verdict lands in preallocated storage; tickets
    // count up from 1 across warm-up and both window halves.
    const std::size_t total = kWarmupRows + 2 * kWindowRows;
    std::vector<int> verdicts(total + 1, -1);
    std::atomic<std::size_t> served{0};
    hr::ServerConfig config;
    config.queue.maxBatch = kMaxBatch;
    config.queue.maxDelayUs = 100;
    config.queue.maxDepth = 0;  // unbounded: nothing is shed.
    hr::EngineOptions engine_options;
    engine_options.jobs = 1;
    hr::Server server(
        hr::InferenceEngine::fromModel(model, engine_options), config,
        [&](const hr::Request &request, int verdict) {
            verdicts[request.id] = verdict;
            served.fetch_add(1, std::memory_order_release);
        });

    // Closed loop, one batch of rows in flight at a time, so the
    // staging FIFO and the batch buffers never need more than the
    // warm-up gave them.
    std::size_t submitted = 0;
    std::size_t rejected = 0;
    auto serve = [&](std::size_t count, auto &&submit_one) {
        for (std::size_t done = 0; done < count;) {
            std::size_t chunk = std::min(kMaxBatch, count - done);
            for (std::size_t i = 0; i < chunk; ++i)
                rejected += !submit_one(done + i).admitted();
            done += chunk;
            submitted += chunk;
            while (served.load(std::memory_order_acquire) <
                   submitted - rejected)
                std::this_thread::yield();
        }
    };
    auto submit_row = [&](std::size_t i) {
        return server.submit(rows.rowPtr(i % kWindowRows),
                             hn::kNumTcFeatures);
    };
    auto submit_frame = [&](std::size_t i) {
        return server.submitFrame(frames[i % frames.size()]);
    };

    serve(kWarmupRows / 2, submit_row);
    serve(kWarmupRows - kWarmupRows / 2, submit_frame);
    std::uint64_t row_allocs = 0;
    std::uint64_t frame_allocs = 0;
    {
        AllocWindow window;
        serve(kWindowRows, submit_row);
        row_allocs = window.allocations();
    }
    {
        AllocWindow window;
        serve(kWindowRows, submit_frame);
        frame_allocs = window.allocations();
    }
    hr::ServerStats stats = server.stop();

    EXPECT_EQ(rejected, 0u);
    EXPECT_EQ(stats.rowsServed, total);
    EXPECT_EQ(row_allocs, 0u) << "across " << kWindowRows
                              << " submit(const double *) rows";
    EXPECT_EQ(frame_allocs, 0u) << "across " << kWindowRows
                                << " submitFrame rows";

    // The window's verdicts are the plan's, row for row.
    hi::ExecutablePlan plan = hi::ExecutablePlan::compile(model);
    const std::size_t row_base = kWarmupRows + 1;
    for (std::size_t i = 0; i < kWindowRows; ++i)
        ASSERT_EQ(verdicts[row_base + i],
                  plan.runRow(rows.rowPtr(i), hn::kNumTcFeatures))
            << "row " << i;
    hn::FeatureExtractor extractor;
    const std::size_t frame_base = row_base + kWindowRows;
    for (std::size_t i = 0; i < kWindowRows; ++i) {
        std::vector<double> features =
            *extractor.extractFromWire(frames[i % frames.size()]);
        ASSERT_EQ(verdicts[frame_base + i],
                  plan.runRow(features.data(), features.size()))
            << "frame " << i;
    }
}

TEST(RequestQueue, BatchRowViewsEqualTheSubmittedRowsAcrossAWrap)
{
    // A 64-slot ring (the minimum) lapped five times by batches of 24:
    // every popped batch's contiguous rows, and each request's view
    // into them, are the bytes pushed with its ticket.
    constexpr std::size_t kWidth = 30;
    constexpr std::size_t kBatch = 24;
    constexpr std::uint64_t kRows = 320;
    hr::QueuePolicy policy;
    policy.maxBatch = kBatch;
    policy.maxDelayUs = hr::kMaxQueueDelayUs;
    policy.maxDepth = 64;
    hr::RequestQueue queue(policy, kWidth);
    ASSERT_EQ(queue.width(), kWidth);
    auto cell = [](std::uint64_t id, std::size_t c) {
        return static_cast<double>(id) + static_cast<double>(c) / 64.0;
    };

    hr::RequestBatch batch;
    std::vector<double> row(kWidth);
    std::uint64_t next_pop = 0;
    for (std::uint64_t id = 0; id < kRows; ++id) {
        for (std::size_t c = 0; c < kWidth; ++c)
            row[c] = cell(id, c);
        ASSERT_EQ(queue.push(id, row.data()), hr::Admission::kAdmitted);
        if ((id + 1) % kBatch != 0)
            continue;
        ASSERT_TRUE(queue.pop(batch));
        ASSERT_EQ(batch.requests.size(), kBatch);
        ASSERT_EQ(batch.rows.size(), kBatch * kWidth);
        for (std::size_t i = 0; i < kBatch; ++i, ++next_pop) {
            const hr::Request &request = batch.requests[i];
            ASSERT_EQ(request.id, next_pop);
            ASSERT_EQ(request.features.size(), kWidth);
            ASSERT_EQ(request.features.data(),
                      batch.rows.data() + i * kWidth);
            for (std::size_t c = 0; c < kWidth; ++c)
                ASSERT_EQ(request.features[c], cell(next_pop, c))
                    << "ticket " << next_pop << " column " << c;
        }
    }
    queue.close();
    ASSERT_TRUE(queue.pop(batch));  // the drain tail: 320 % 24 rows.
    ASSERT_EQ(batch.reason, hr::FlushReason::kDrain);
    ASSERT_EQ(batch.requests.size(), kRows % kBatch);
    for (const hr::Request &request : batch.requests) {
        ASSERT_EQ(request.id, next_pop);
        for (std::size_t c = 0; c < kWidth; ++c)
            ASSERT_EQ(request.features[c], cell(next_pop, c));
        ++next_pop;
    }
    EXPECT_FALSE(queue.pop(batch));
    EXPECT_TRUE(batch.requests.empty());
}
