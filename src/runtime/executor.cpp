#include "runtime/executor.hpp"

#include <algorithm>
#include <stdexcept>

namespace homunculus::runtime {

namespace {

/** Pool threads ever spawned, process-wide (spawn-count test hook). */
std::atomic<std::uint64_t> g_threads_spawned{0};

/** Set for the lifetime of a pool worker thread; nested dispatches
 *  issued while it is set run inline instead of fanning out again. */
thread_local bool t_on_worker_thread = false;

/** Growth backstop far above any sane width request, so a caller typo
 *  (jobs = rows) cannot spawn thousands of threads. */
constexpr std::size_t kMaxWorkers = 256;

std::size_t
hardwareParallelism()
{
    std::size_t hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : hardware;
}

}  // namespace

Executor::Executor(std::size_t jobs)
    : target_(jobs != 0 ? jobs : hardwareParallelism())
{
}

Executor::~Executor()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;  // workers exit at their next wait.
    }
    workCv_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
}

std::size_t
Executor::liveWorkers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_.size();
}

bool
Executor::onWorkerThread()
{
    return t_on_worker_thread;
}

std::uint64_t
Executor::threadsSpawned()
{
    return g_threads_spawned.load();
}

Executor &
Executor::processDefault()
{
    static Executor instance(0);
    return instance;
}

void
Executor::ensureWorkersLocked(std::size_t wanted)
{
    // The pool never outgrows its configured width: one dispatch with an
    // oversized jobs knob must not pin extra threads for the rest of
    // the process (the submitter is always a participant, hence -1).
    wanted = std::min(wanted, target_ > 0 ? target_ - 1 : 0);
    wanted = std::min(wanted, kMaxWorkers);
    while (threads_.size() < wanted) {
        threads_.emplace_back([this] { workerMain(); });
        g_threads_spawned.fetch_add(1);
    }
}

void
Executor::eraseQueuedLocked(Job *job)
{
    auto it = std::find(queue_.begin(), queue_.end(), job);
    if (it != queue_.end())
        queue_.erase(it);
}

void
Executor::runJobTasks(Job &job, std::size_t slot)
{
    for (;;) {
        std::size_t task = job.next.fetch_add(1);
        if (task >= job.numTasks)
            return;
        try {
            (*job.fn)(task, slot);
        } catch (const std::exception &error) {
            job.errors[task] = error.what();
            job.failed[task] = 1;
        } catch (...) {
            job.errors[task] = "unknown exception";
            job.failed[task] = 1;
        }
    }
}

void
Executor::workerMain()
{
    t_on_worker_thread = true;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workCv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
        if (stopping_)
            return;  // the destructor is joining the pool.

        Job *job = queue_.front();
        if (job->next.load() >= job->numTasks) {
            // Every task already claimed; nothing left to help with.
            queue_.pop_front();
            continue;
        }
        std::size_t slot = job->participants++;
        ++job->active;
        if (job->participants >= job->width)
            queue_.pop_front();  // dispatch is at full width.

        lock.unlock();
        runJobTasks(*job, slot);
        lock.lock();

        // The submitter owns the Job's storage and may only reclaim it
        // once active hits 0, so this decrement is this thread's last
        // touch of *job.
        if (--job->active == 0)
            doneCv_.notify_all();
    }
}

void
Executor::run(std::size_t width, std::size_t num_tasks, const TaskFn &fn)
{
    if (num_tasks == 0)
        return;
    // Clamp at the configured parallelism too: a wider request would
    // only queue participants the pool will never provide, and the
    // whole point of the shared pool is that no caller oversubscribes.
    width = std::min({resolve(width), num_tasks, target_});

    // Inline path: trivial dispatches, and any dispatch issued from a
    // pool worker (nested parallel section) — fanning out again would
    // oversubscribe the machine and risk pool starvation, and the
    // contract (every task runs, lowest-index failure rethrown, worker
    // id < width) holds on one thread just as well.
    if (width <= 1 || num_tasks == 1 || t_on_worker_thread) {
        std::string first_error;
        bool saw_error = false;
        for (std::size_t task = 0; task < num_tasks; ++task) {
            try {
                fn(task, 0);
            } catch (const std::exception &error) {
                if (!saw_error) {
                    first_error = error.what();
                    saw_error = true;
                }
            } catch (...) {
                if (!saw_error) {
                    first_error = "unknown exception";
                    saw_error = true;
                }
            }
        }
        if (saw_error)
            throw std::runtime_error(first_error);
        return;
    }

    Job job;
    job.fn = &fn;
    job.numTasks = num_tasks;
    job.width = width;
    job.failed.assign(num_tasks, 0);
    job.errors.resize(num_tasks);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ensureWorkersLocked(width - 1);  // the caller is participant 0.
        queue_.push_back(&job);
    }
    // Wake only as many workers as this job can seat — notify_all here
    // would thundering-herd the whole pool onto the mutex on every
    // small serving dispatch.
    for (std::size_t helper = 1; helper < width; ++helper)
        workCv_.notify_one();

    runJobTasks(job, 0);

    {
        std::unique_lock<std::mutex> lock(mutex_);
        eraseQueuedLocked(&job);  // no new helpers may join.
        --job.active;
        doneCv_.wait(lock, [&] { return job.active == 0; });
    }

    for (std::size_t task = 0; task < num_tasks; ++task)
        if (job.failed[task])
            throw std::runtime_error(job.errors[task]);
}

void
Executor::runChunks(std::size_t width, std::size_t count,
                    std::size_t chunk_size, const ChunkFn &fn)
{
    if (count == 0)
        return;
    if (chunk_size == 0)
        throw std::invalid_argument("Executor::runChunks: chunk_size == 0");
    std::size_t num_chunks = (count + chunk_size - 1) / chunk_size;
    run(width, num_chunks, [&](std::size_t chunk, std::size_t worker) {
        std::size_t begin = chunk * chunk_size;
        std::size_t end = std::min(begin + chunk_size, count);
        fn(begin, end, worker);
    });
}

}  // namespace homunculus::runtime
