#include "flash/latch_array.hpp"

#include <cassert>
#include <string>

#include "common/invariant.hpp"
#include "common/logging.hpp"

namespace parabit::flash {

LatchArray::LatchArray(std::size_t width)
    : width_(width), so_(width), a_(width), c_(width), b_(width), out_(width)
{
}

namespace {

constexpr std::uint64_t kOnes = ~std::uint64_t{0};

/** dst[i] = f(i) for every word of @p dst. */
template <typename F>
void
setWords(BitVector &dst, F f)
{
    std::uint64_t *w = dst.words().data();
    const std::size_t n = dst.words().size();
    for (std::size_t i = 0; i < n; ++i)
        w[i] = f(i);
}

} // namespace

void
LatchArray::deriveSo(const WordlineData &wl, VRead v, bool inverted)
{
    // The kernel indexes raw words, so a page of any other width would
    // be read out of bounds.
    for (const BitVector *page : {wl.lsb, wl.msb}) {
        PARABIT_CHECK(!page || page->size() == width_,
                      "LatchArray: sensed page of " +
                          std::to_string(page ? page->size() : 0) +
                          " bits on a " + std::to_string(width_) +
                          "-bitline array");
    }
    // Absent pages read as all-ones (the erased value); operand reads
    // never depend on the companion page, which the unit tests verify.
    // Each case resolves absent pages and the inversion before its word
    // loop, so the loops carry no branches.
    const std::uint64_t *lsb = wl.lsb ? wl.lsb->words().data() : nullptr;
    const std::uint64_t *msb = wl.msb ? wl.msb->words().data() : nullptr;
    const std::uint64_t flip = inverted ? kOnes : 0;
    const auto fill = [&](std::uint64_t w) {
        setWords(so_, [w = w ^ flip](std::size_t) { return w; });
    };

    switch (v) {
      case VRead::kVRead0:
        fill(kOnes);
        break;
      case VRead::kVRead1: // ~(lsb & msb)
        if (lsb && msb) {
            setWords(so_, [&](std::size_t i) {
                return ~(lsb[i] & msb[i]) ^ flip;
            });
        } else if (lsb || msb) {
            const std::uint64_t *page = lsb ? lsb : msb;
            setWords(so_, [&](std::size_t i) { return ~page[i] ^ flip; });
        } else {
            fill(0);
        }
        break;
      case VRead::kVRead2: // ~lsb
        if (lsb)
            setWords(so_, [&](std::size_t i) { return ~lsb[i] ^ flip; });
        else
            fill(0);
        break;
      case VRead::kVRead3: // ~lsb & msb
        if (lsb && msb) {
            setWords(so_, [&](std::size_t i) {
                return (~lsb[i] & msb[i]) ^ flip;
            });
        } else if (lsb) {
            setWords(so_, [&](std::size_t i) { return ~lsb[i] ^ flip; });
        } else {
            fill(0);
        }
        break;
    }
    so_.maskTail();
}

void
LatchArray::execute(const MicroProgram &prog, const WordlineData &self,
                    const WordlineData &wl_m, const WordlineData &wl_n,
                    const SenseNoiseHook &noise)
{
    std::uint64_t *a = a_.words().data();
    std::uint64_t *c = c_.words().data();
    std::uint64_t *b = b_.words().data();
    std::uint64_t *out = out_.words().data();
    const std::size_t n = so_.words().size();

    int sense_index = 0;
    for (const auto &st : prog.steps) {
        switch (st.kind) {
          case MicroStep::Kind::kInitNormal:
            c_.fill(false);
            a_.fill(true);
            out_.fill(false);
            b_.fill(true);
            break;
          case MicroStep::Kind::kInitInverted:
            a_.fill(false);
            c_.fill(true);
            out_.fill(false);
            b_.fill(true);
            break;
          case MicroStep::Kind::kSense: {
            ++sense_index;
            switch (st.wl) {
              case WordlineSel::kSelf:
                deriveSo(self, st.vread, st.soInverted);
                break;
              case WordlineSel::kOperandM:
                deriveSo(wl_m, st.vread, st.soInverted);
                break;
              case WordlineSel::kOperandN:
                deriveSo(wl_n, st.vread, st.soInverted);
                break;
              case WordlineSel::kNone:
                // Re-init sense at VREAD0: always "above".
                deriveSo({}, VRead::kVRead0, st.soInverted);
                break;
            }
            if (noise) {
                noise(so_, sense_index);
                PARABIT_CHECK(so_.size() == width_,
                              "LatchArray: noise hook resized SO");
            }
            // The hook may have replaced SO's storage; read it afresh.
            const std::uint64_t *so = so_.words().data();
            // Tails stay zero: ANDing into a zero tail keeps it zero,
            // and the complemented node is masked after the loop.
            if (st.pulse == LatchPulse::kM1) {
                for (std::size_t i = 0; i < n; ++i) {
                    c[i] &= ~so[i];
                    a[i] = ~c[i];
                }
                a_.maskTail();
            } else if (st.pulse == LatchPulse::kM2) {
                for (std::size_t i = 0; i < n; ++i) {
                    a[i] &= ~so[i];
                    c[i] = ~a[i];
                }
                c_.maskTail();
            } else {
                panic("LatchArray: sense step cannot pulse M3");
            }
            break;
          }
          case MicroStep::Kind::kTransfer:
            for (std::size_t i = 0; i < n; ++i) {
                b[i] &= ~a[i];
                out[i] = ~b[i];
            }
            out_.maskTail();
            break;
        }
    }
}

BitVector
executeCoLocated(BitwiseOp op, const BitVector &x, const BitVector &y,
                 const SenseNoiseHook &noise)
{
    assert(x.size() == y.size());
    LatchArray la(x.size());
    la.execute(coLocatedProgram(op), WordlineData{&x, &y}, {}, {}, noise);
    return la.out();
}

BitVector
executeLocationFree(BitwiseOp op, const BitVector &m, const BitVector &n,
                    const BitVector *m_companion, const BitVector *n_companion,
                    const SenseNoiseHook &noise, LocFreeVariant variant)
{
    assert(m.size() == n.size());
    LatchArray la(m.size());
    // kMsbLsb: operand M occupies the MSB page of its wordline; kLsbLsb:
    // its LSB page.  Operand N always occupies the LSB page of its
    // wordline.  Companion pages hold unrelated data.
    const bool m_in_msb = variant == LocFreeVariant::kMsbLsb;
    WordlineData wl_m{m_in_msb ? m_companion : &m, m_in_msb ? &m : m_companion};
    WordlineData wl_n{&n, n_companion};
    la.execute(locationFreeProgram(op, variant), {}, wl_m, wl_n, noise);
    return la.out();
}

} // namespace parabit::flash
