/**
 * @file
 * Pluggable arbitration policies for the transaction scheduler.
 *
 * A policy answers one question — given the pending phase entries of a
 * single resource (one plane-granular die queue or one channel queue),
 * which entry starts next? — plus whether an arriving entry preempts
 * the array operation currently running on that resource.
 *
 * Cost: the policy reads the resource's queue in place through a
 * PendingQueue, which builds a PendingView only for the entries the
 * policy asks for.  FCFS reads just the head, so its pick is O(1) at
 * any queue depth; the out-of-order policies scan the queue once,
 * O(queue), and allocate nothing.
 *
 * Determinism: a policy sees only the queue and the current tick, and
 * ties always break toward the lowest submission sequence number, so
 * repeated runs pick identical schedules.
 */

#ifndef PARABIT_SSD_SCHED_POLICY_HPP_
#define PARABIT_SSD_SCHED_POLICY_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/units.hpp"
#include "ssd/sched/sched_config.hpp"
#include "ssd/sched/transaction.hpp"

namespace parabit::ssd::sched {

/**
 * What a policy may know about one queued phase entry.  `ready` means
 * every earlier phase of the same transaction has finished and the
 * entry's earliest-start has been reached, i.e. it could start now.
 */
struct PendingView
{
    /** Global submission sequence of the owning transaction. */
    std::uint64_t seq = 0;
    TxClass cls = TxClass::kRead;
    PhaseKind kind = PhaseKind::kArray;
    bool ready = false;
    /** Earliest tick the entry may start (phase chaining + readyAt). */
    Tick earliest = 0;
    /** The entry is the resumed remainder of a suspended operation. */
    bool isResume = false;
    /** Tick at which a parked remainder must outrank reads (resume
     *  entries only; set at the operation's first suspension). */
    Tick forceAt = 0;
};

/** Sentinel: no entry may start now. */
inline constexpr std::size_t kNoPick = static_cast<std::size_t>(-1);

/**
 * One resource's queue as a policy reads it: entries in queue order
 * (submission order, except that a suspended remainder re-queues at
 * the back).  Each operator[] builds that entry's view on demand from
 * the scheduler's state; nothing is copied up front.
 */
class PendingQueue
{
  public:
    virtual std::size_t size() const = 0;
    virtual PendingView operator[](std::size_t i) const = 0;

  protected:
    ~PendingQueue() = default;
};

class SchedulerPolicy
{
  public:
    virtual ~SchedulerPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * Choose the index into @p queue of the entry to start on an idle
     * resource, or kNoPick to leave the resource idle (e.g. FCFS
     * waiting for a not-yet-ready head of line).  @p queue is never
     * empty.  Read only the entries the decision needs: each read
     * builds a view.
     */
    virtual std::size_t pick(const PendingQueue &queue, Tick now) const = 0;

    /**
     * Whether an arriving ready entry of class `incoming` suspends the
     * array operation of class `running` currently occupying the
     * resource.  Only consulted for suspendable running classes.
     */
    virtual bool preempts(TxClass incoming, TxClass running) const = 0;
};

std::unique_ptr<SchedulerPolicy> makePolicy(const SchedConfig &cfg);

} // namespace parabit::ssd::sched

#endif // PARABIT_SSD_SCHED_POLICY_HPP_
