/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot paths: the
 * vectorized latch-array execution (bits computed per second through the
 * full circuit model), one paper-size page op through a chip, FTL
 * write/GC throughput, the event-engine
 * scheduling rate, and transaction-scheduler dispatch over deep
 * queues.  These measure the *simulator's* host performance,
 * complementing the figure benches that report *simulated* device time.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "flash/chip.hpp"
#include "flash/latch_array.hpp"
#include "parabit/device.hpp"
#include "ssd/event_engine.hpp"
#include "ssd/sched/scheduler.hpp"

namespace {

using namespace parabit;

BitVector
randomBits(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    BitVector v(n);
    for (auto &w : v.words())
        w = rng.next();
    v.maskTail();
    return v;
}

/** Counts log warnings and errors while alive and restores the previous
 *  sink when destroyed.  A run that logged any is failed, so a bench
 *  never reports the speed of a failure path. */
class WarningCounter
{
  public:
    WarningCounter()
        : previous_(setLogSink([this](LogLevel level, const std::string &) {
              if (level >= LogLevel::kWarn)
                  ++count_;
          }))
    {
    }
    ~WarningCounter() { setLogSink(std::move(previous_)); }
    WarningCounter(const WarningCounter &) = delete;
    WarningCounter &operator=(const WarningCounter &) = delete;

    std::uint64_t count() const { return count_; }

  private:
    std::uint64_t count_ = 0;
    LogSink previous_;
};

void
BM_LatchArrayCoLocated(benchmark::State &state)
{
    const auto op = static_cast<flash::BitwiseOp>(state.range(0));
    const std::size_t bits = 8 * 1024 * 8; // one 8 KB page
    const BitVector x = randomBits(bits, 1);
    const BitVector y = randomBits(bits, 2);
    flash::LatchArray la(bits);
    for (auto _ : state) {
        la.execute(flash::coLocatedProgram(op),
                   flash::WordlineData{&x, &y});
        benchmark::DoNotOptimize(la.out().words().data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(BM_LatchArrayCoLocated)
    ->Arg(static_cast<int>(flash::BitwiseOp::kAnd))
    ->Arg(static_cast<int>(flash::BitwiseOp::kXor))
    ->Arg(static_cast<int>(flash::BitwiseOp::kXnor));

void
BM_LatchArrayLocationFree(benchmark::State &state)
{
    const std::size_t bits = 8 * 1024 * 8;
    const BitVector m = randomBits(bits, 3);
    const BitVector n = randomBits(bits, 4);
    for (auto _ : state) {
        BitVector out =
            flash::executeLocationFree(flash::BitwiseOp::kXor, m, n);
        benchmark::DoNotOptimize(out.words().data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(BM_LatchArrayLocationFree);

/**
 * One 8 KB page op through Chip: the wordline lookup, the latch array
 * all chips share and the result copy, which the LatchArray benchmarks
 * leave out.  range(0) is 0 for opCoLocated, 1 for opLocationFree.
 */
void
BM_ChipOpPaperPage(benchmark::State &state)
{
    flash::FlashGeometry g = flash::FlashGeometry::paperSsd();
    g.blocksPerPlane = 1; // the ops touch one block; keep set-up small
    flash::Chip chip(g, true);
    const std::size_t bits = g.pageBits();
    std::uint64_t seed = 7;
    for (std::uint32_t wl = 0; wl < 2; ++wl) {
        for (const bool msb : {false, true}) {
            const BitVector d = randomBits(bits, seed++);
            chip.programPage({0, 0, 0, wl, msb}, &d);
        }
    }
    const bool co_located = state.range(0) == 0;
    for (auto _ : state) {
        BitVector out =
            co_located
                ? chip.opCoLocated(flash::BitwiseOp::kXor, {0, 0, 0, 0, false})
                : chip.opLocationFree(flash::BitwiseOp::kXor,
                                      {0, 0, 0, 0, true},
                                      {0, 0, 0, 1, false});
        benchmark::DoNotOptimize(out.words().data());
    }
    state.SetLabel(co_located ? "co-located" : "location-free");
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(BM_ChipOpPaperPage)->Arg(0)->Arg(1);

/**
 * Metadata-only host writes over half the tiny preset's logical range,
 * GC and wear leveling included.  A log warning fails the run.
 */
void
BM_FtlWritePath(benchmark::State &state)
{
    const WarningCounter warnings;
    ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    cfg.storeData = false;
    core::ParaBitDevice dev(cfg);
    std::uint64_t lpn = 0;
    const std::uint64_t span = dev.ssd().ftl().logicalPages() / 2;
    for (auto _ : state) {
        dev.writeMeta(lpn % span, 1);
        ++lpn;
    }
    if (warnings.count() > 0)
        state.SkipWithError(
            ("log warnings: " + std::to_string(warnings.count())).c_str());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FtlWritePath);

/**
 * One ReAllocate AND through the whole device stack per iteration, all
 * on one device: every op's scratch copies are released when it
 * retires, so the loop never fills the tiny preset.  A log warning or a
 * failed op fails the run.
 */
void
BM_ParaBitOpEndToEnd(benchmark::State &state)
{
    const WarningCounter warnings;
    const ssd::SsdConfig cfg = ssd::SsdConfig::tiny();
    const std::size_t bits = cfg.geometry.pageBits();
    core::ParaBitDevice dev(cfg);
    dev.writeData(0, {randomBits(bits, 5)});
    dev.writeData(100, {randomBits(bits, 6)});
    std::uint64_t failed = 0;
    for (auto _ : state) {
        auto r = dev.bitwise(flash::BitwiseOp::kAnd, 0, 100, 1,
                             core::Mode::kReAllocate);
        benchmark::DoNotOptimize(r.stats.senseOps);
        failed += r.status != core::ExecStatus::kOk;
    }
    if (warnings.count() > 0 || failed > 0)
        state.SkipWithError(("log warnings: " +
                             std::to_string(warnings.count()) +
                             ", failed ops: " + std::to_string(failed))
                                .c_str());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ParaBitOpEndToEnd);

void
BM_EventEngineThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        ssd::EventEngine e;
        int acc = 0;
        for (int i = 0; i < 1000; ++i)
            e.schedule(static_cast<Tick>(i * 7 % 997), [&acc] { ++acc; });
        e.run();
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            1000);
}
BENCHMARK(BM_EventEngineThroughput);

/**
 * Transaction-scheduler dispatch with a deep queue on one die and its
 * channel: each iteration submits range(1) reads to one plane at
 * scattered ready times and drains them, so every arbitration sees up
 * to range(1) pending entries.  range(0) is the SchedPolicyKind: FCFS
 * reads only the queue head, out-of-order scans the whole queue.
 */
void
BM_SchedDispatchDeepQueue(benchmark::State &state)
{
    using namespace ssd::sched;
    SchedConfig cfg;
    cfg.policy = static_cast<SchedPolicyKind>(state.range(0));
    const auto depth = static_cast<int>(state.range(1));
    TransactionScheduler sched(flash::FlashGeometry::tiny(),
                               flash::FlashTiming{}, cfg);
    Rng rng(11);
    DeviceTransaction tx;
    tx.cls = TxClass::kRead;
    tx.arrayTicks = ticks::fromUs(50);
    tx.xferOutTicks = ticks::fromUs(20);
    Tick base = 0;
    for (auto _ : state) {
        for (int i = 0; i < depth; ++i) {
            tx.readyAt = base + rng.below(ticks::fromUs(40) * depth);
            sched.submit(tx);
        }
        base = sched.drain();
        benchmark::DoNotOptimize(base);
    }
    state.SetLabel(policyName(cfg.policy));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            depth);
}
BENCHMARK(BM_SchedDispatchDeepQueue)
    ->ArgsProduct(
        {{static_cast<int>(ssd::sched::SchedPolicyKind::kFcfs),
          static_cast<int>(ssd::sched::SchedPolicyKind::kOutOfOrderDieFirst)},
         {16, 256}});

} // namespace

BENCHMARK_MAIN();
