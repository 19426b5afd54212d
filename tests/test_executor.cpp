/**
 * @file
 * Tests for runtime::Executor, the persistent worker pool under every
 * parallel dispatch: lazy start, chunked dispatch (coverage, contiguous
 * chunk boundaries, edge cases), deterministic lowest-index exception
 * rethrow under pool reuse, concurrent submitters sharing one pool,
 * nested-dispatch inlining (the oversubscription fix), and the
 * spawn-count guarantee — zero thread creations per batch once the pool
 * is warm.
 *
 * These run under TSAN in CI alongside the engine/harness tests.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/inference_engine.hpp"

namespace hi = homunculus::ir;
namespace hm = homunculus::math;
namespace hr = homunculus::runtime;

namespace {

/** Sum 0..count-1 via a dispatch, checking worker-id bounds. */
void
expectDispatchCovers(hr::Executor &executor, std::size_t width,
                     std::size_t count)
{
    std::vector<std::atomic<int>> hits(count);
    std::atomic<bool> bad_worker{false};
    executor.run(width, count,
                 [&](std::size_t task, std::size_t worker) {
                     if (worker >= executor.resolve(width))
                         bad_worker = true;
                     hits[task].fetch_add(1);
                 });
    EXPECT_FALSE(bad_worker.load());
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

}  // namespace

TEST(Executor, LazyStartAndDispatchAtSeveralWidths)
{
    hr::Executor executor(4);
    EXPECT_EQ(executor.parallelism(), 4u);
    EXPECT_EQ(executor.liveWorkers(), 0u);  // nothing spawned yet.

    expectDispatchCovers(executor, 1, 100);
    EXPECT_EQ(executor.liveWorkers(), 0u);  // width 1 stays inline.

    expectDispatchCovers(executor, 4, 1000);
    EXPECT_GT(executor.liveWorkers(), 0u);
    expectDispatchCovers(executor, 0, 1000);  // 0 resolves to target.
    expectDispatchCovers(executor, 3, 7);     // width > tasks clamps.
}

TEST(Executor, ChunksCoverEveryIndexExactlyOnce)
{
    hr::Executor &pool = hr::Executor::processDefault();
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        std::vector<std::atomic<int>> hits(1000);
        std::atomic<bool> bad_worker{false};
        pool.runChunks(
            jobs, hits.size(), 64,
            [&](std::size_t begin, std::size_t end, std::size_t worker) {
                if (worker >= pool.resolve(jobs))
                    bad_worker = true;
                for (std::size_t i = begin; i < end; ++i)
                    hits[i].fetch_add(1);
            });
        EXPECT_FALSE(bad_worker.load());
        for (const auto &hit : hits)
            EXPECT_EQ(hit.load(), 1);
    }
}

TEST(Executor, ChunkBoundariesAreContiguousAndSized)
{
    // Single-threaded so ordering is observable: chunks must arrive in
    // order, sized chunk_size except the tail.
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    hr::Executor::processDefault().runChunks(
        1, 10, 4,
        [&](std::size_t begin, std::size_t end, std::size_t worker) {
            EXPECT_EQ(worker, 0u);
            chunks.emplace_back(begin, end);
        });
    std::vector<std::pair<std::size_t, std::size_t>> expected = {
        {0, 4}, {4, 8}, {8, 10}};
    EXPECT_EQ(chunks, expected);
}

TEST(Executor, ChunksRethrowLowestChunkFailure)
{
    try {
        hr::Executor::processDefault().runChunks(
            4, 100, 10,
            [&](std::size_t begin, std::size_t, std::size_t) {
                if (begin == 30 || begin == 70)
                    throw std::runtime_error("chunk " +
                                             std::to_string(begin));
            });
        FAIL() << "expected runChunks to throw";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "chunk 30");
    }
}

TEST(Executor, ChunkEdgeCases)
{
    // count == 0 is a no-op; chunk_size == 0 is a contract violation.
    hr::Executor &pool = hr::Executor::processDefault();
    pool.runChunks(4, 0, 16, [](std::size_t, std::size_t, std::size_t) {
        FAIL() << "no chunks expected";
    });
    EXPECT_THROW(pool.runChunks(
                     4, 10, 0,
                     [](std::size_t, std::size_t, std::size_t) {}),
                 std::invalid_argument);
}

TEST(Executor, LowestIndexExceptionDeterministicUnderReuse)
{
    // The same pool serves many failing dispatches back to back; the
    // rethrown error must always be task 3's, never a later one, and a
    // worker that captured an exception must survive for the next job.
    hr::Executor executor(4);
    for (int round = 0; round < 20; ++round) {
        try {
            executor.run(4, 64, [](std::size_t task, std::size_t) {
                if (task == 3 || task == 40)
                    throw std::runtime_error("task " +
                                             std::to_string(task));
            });
            FAIL() << "expected the dispatch to throw";
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "task 3");
        }
    }
    expectDispatchCovers(executor, 4, 256);  // pool still healthy.
}

TEST(Executor, ConcurrentSubmittersShareOnePool)
{
    hr::Executor executor(4);
    constexpr std::size_t kSubmitters = 6;
    constexpr std::size_t kTasks = 400;
    std::vector<std::uint64_t> sums(kSubmitters, 0);
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (std::size_t s = 0; s < kSubmitters; ++s)
        submitters.emplace_back([&executor, &sums, s] {
            std::vector<std::uint64_t> partial(kTasks, 0);
            for (int round = 0; round < 5; ++round) {
                executor.run(3, kTasks,
                             [&](std::size_t task, std::size_t) {
                                 partial[task] = task + 1;
                             });
            }
            sums[s] = std::accumulate(partial.begin(), partial.end(),
                                      std::uint64_t{0});
        });
    for (auto &thread : submitters)
        thread.join();
    for (std::uint64_t sum : sums)
        EXPECT_EQ(sum, std::uint64_t{kTasks} * (kTasks + 1) / 2);
}

TEST(Executor, NestedDispatchRunsInlineOnPoolWorkers)
{
    // A dispatch issued from inside a pool worker must not fan out
    // again (the oversubscription/deadlock guard): its tasks run on the
    // issuing worker with slot 0. Repeated nesting must neither grow
    // the pool nor deadlock.
    hr::Executor executor(4);
    expectDispatchCovers(executor, 4, 16);  // warm up the pool.
    std::size_t warm_workers = executor.liveWorkers();
    std::uint64_t warm_spawned = hr::Executor::threadsSpawned();

    std::atomic<int> inner_total{0};
    std::atomic<bool> inner_nonzero_slot{false};
    executor.run(4, 32, [&](std::size_t, std::size_t) {
        if (hr::Executor::onWorkerThread()) {
            // Nested section from a pool worker: must inline.
            executor.run(4, 8, [&](std::size_t, std::size_t slot) {
                if (slot != 0)
                    inner_nonzero_slot = true;
                inner_total.fetch_add(1);
            });
        } else {
            // The submitting thread participates too; nested dispatches
            // from it may fan out — also fine. Count the same work.
            executor.run(1, 8, [&](std::size_t, std::size_t) {
                inner_total.fetch_add(1);
            });
        }
    });
    EXPECT_EQ(inner_total.load(), 32 * 8);
    EXPECT_FALSE(inner_nonzero_slot.load());
    EXPECT_EQ(executor.liveWorkers(), warm_workers);
    EXPECT_EQ(hr::Executor::threadsSpawned(), warm_spawned);
}

TEST(Executor, DefaultPoolDispatchesSpawnNoThreadsAfterWarmup)
{
    // Warm the default pool, then check repeated task and chunk
    // dispatches create no threads at all.
    hr::Executor &pool = hr::Executor::processDefault();
    pool.run(4, 64, [](std::size_t, std::size_t) {});
    std::uint64_t warm = hr::Executor::threadsSpawned();
    for (int round = 0; round < 50; ++round) {
        pool.run(4, 64, [](std::size_t, std::size_t) {});
        pool.runChunks(4, 4096, 256,
                       [](std::size_t, std::size_t, std::size_t) {});
    }
    EXPECT_EQ(hr::Executor::threadsSpawned(), warm);
}

// The acceptance bar behind the whole refactor: after warm-up, a
// serving-style stream of small batches through the engine performs
// zero thread creations per batch.
TEST(Executor, EngineBatchesSpawnNoThreadsAfterWarmup)
{
    hi::ModelIr model;
    model.kind = hi::ModelKind::kSvm;
    model.inputDim = 8;
    model.numClasses = 3;
    for (int c = 0; c < 3; ++c) {
        model.svmWeights.push_back(
            std::vector<std::int32_t>(8, 100 * (c + 1)));
        model.svmBiases.push_back(c);
    }
    model.validate();

    hr::EngineOptions options;
    options.jobs = 4;
    options.minRowsToShard = 1;  // shard even 64-row batches.
    options.maxShardRows = 16;
    hr::InferenceEngine engine = hr::InferenceEngine::fromModel(model,
                                                               options);
    hm::Matrix batch(64, 8);
    for (std::size_t r = 0; r < batch.rows(); ++r)
        for (std::size_t c = 0; c < batch.cols(); ++c)
            batch(r, c) = static_cast<double>(r) * 0.25 -
                          static_cast<double>(c);

    std::vector<int> reference = engine.run(batch);  // warm-up batch.
    std::uint64_t warm = hr::Executor::threadsSpawned();
    for (int round = 0; round < 100; ++round)
        EXPECT_EQ(engine.run(batch), reference);
    EXPECT_EQ(hr::Executor::threadsSpawned(), warm)
        << "engine batches must not spawn threads after warm-up";
}
