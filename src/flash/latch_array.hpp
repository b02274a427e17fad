/**
 * @file
 * Vectorized (whole-wordline) latch circuit model.
 *
 * Every bitline of a plane has its own copy of the latching circuit, and
 * a sensing pulse operates on all of them in parallel — this is where
 * ParaBit's "bulk" nature comes from.  LatchArray models one circuit per
 * bitline with each node held as a packed BitVector, so a MicroProgram
 * executes on an entire page pair at once.
 *
 * Sensing derives the SO vector word-parallel from the stored page bits
 * using the Gray code of Table 1:
 *
 *   VREAD0: above for every state            -> SO = 1
 *   VREAD1: above unless the cell is E       -> SO = ~(LSB & MSB)
 *   VREAD2: above iff state >= S2            -> SO = ~LSB
 *   VREAD3: above iff the cell is S3         -> SO = ~LSB & MSB
 *
 * An optional noise hook lets the error model flip SO bits after each
 * sensing, which is exactly where real sensing errors enter (and why the
 * paper notes ECC cannot run after ParaBit ops).
 *
 * Every step updates the nodes in place with plain word loops, so an
 * array allocates only when it is built: one array can serve any number
 * of programs back to back, because each program starts with an init
 * step that overwrites every node.
 */

#ifndef PARABIT_FLASH_LATCH_ARRAY_HPP_
#define PARABIT_FLASH_LATCH_ARRAY_HPP_

#include <functional>

#include "common/bitvector.hpp"
#include "flash/op_sequences.hpp"

namespace parabit::flash {

/** The two logical pages stored on one wordline. */
struct WordlineData
{
    const BitVector *lsb = nullptr; ///< LSB page (nullptr reads as all-1)
    const BitVector *msb = nullptr; ///< MSB page (nullptr reads as all-1)
};

/**
 * Hook invoked after each sensing with the freshly derived SO vector and
 * the 1-based index of the sensing within the program; implementations
 * flip bits to model sensing errors.
 */
using SenseNoiseHook = std::function<void(BitVector &so, int sense_index)>;

/** One latch circuit per bitline; executes MicroPrograms on page data. */
class LatchArray
{
  public:
    /** @param width number of bitlines (bits per page). */
    explicit LatchArray(std::size_t width);

    std::size_t width() const { return width_; }

    /**
     * Run @p prog to completion.
     *
     * For co-located programs, @p self supplies both operand pages.
     * For location-free programs, @p wl_m holds operand M (its MSB page)
     * and @p wl_n operand N (its LSB page); @p self is ignored.
     *
     * @param noise optional sensing-error hook.
     *
     * Panics if a sensed page is not width() bits wide.
     */
    void execute(const MicroProgram &prog, const WordlineData &self,
                 const WordlineData &wl_m = {}, const WordlineData &wl_n = {},
                 const SenseNoiseHook &noise = {});

    /** Final content of the output latch (L2's OUT node). */
    const BitVector &out() const { return out_; }

    /** @name Intermediate node observers (mainly for tests). */
    /// @{
    const BitVector &so() const { return so_; }
    const BitVector &a() const { return a_; }
    const BitVector &c() const { return c_; }
    const BitVector &b() const { return b_; }
    /// @}

  private:
    /** SO <- the sensing of @p wl at @p v, inverted if @p inverted. */
    void deriveSo(const WordlineData &wl, VRead v, bool inverted);

    std::size_t width_;
    BitVector so_, a_, c_, b_, out_;
};

/**
 * Convenience: execute @p op functionally on two operand pages using the
 * full circuit model and return the result page.  Co-located semantics:
 * @p x is the LSB operand, @p y the MSB operand.
 */
BitVector executeCoLocated(BitwiseOp op, const BitVector &x,
                           const BitVector &y,
                           const SenseNoiseHook &noise = {});

/**
 * Convenience: location-free execution.  @p m is the operand stored in
 * the MSB page of one wordline, @p n the operand in the LSB page of
 * another; @p m_companion / @p n_companion are the unrelated data sharing
 * those wordlines (defaulted to all-ones = erased-looking).
 */
BitVector executeLocationFree(BitwiseOp op, const BitVector &m,
                              const BitVector &n,
                              const BitVector *m_companion = nullptr,
                              const BitVector *n_companion = nullptr,
                              const SenseNoiseHook &noise = {},
                              LocFreeVariant variant =
                                  LocFreeVariant::kMsbLsb);

} // namespace parabit::flash

#endif // PARABIT_FLASH_LATCH_ARRAY_HPP_
