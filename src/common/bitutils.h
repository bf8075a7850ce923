/**
 * @file
 * Small integer helpers used throughout the address-mapping code.
 */

#ifndef NDPEXT_COMMON_BITUTILS_H
#define NDPEXT_COMMON_BITUTILS_H

#include <bit>
#include <cstdint>

namespace ndpext {

/** True iff v is a power of two (0 is not). */
constexpr bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)); v must be nonzero. */
constexpr std::uint32_t
floorLog2(std::uint64_t v)
{
    return 63 - static_cast<std::uint32_t>(std::countl_zero(v));
}

/** ceil(log2(v)); v must be nonzero. */
constexpr std::uint32_t
ceilLog2(std::uint64_t v)
{
    return v <= 1 ? 0 : floorLog2(v - 1) + 1;
}

/** ceil(a / b). */
constexpr std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** Round v down to a multiple of align (align need not be a power of 2). */
constexpr std::uint64_t
alignDown(std::uint64_t v, std::uint64_t align)
{
    return (v / align) * align;
}

/** Round v up to a multiple of align. */
constexpr std::uint64_t
alignUp(std::uint64_t v, std::uint64_t align)
{
    return ceilDiv(v, align) * align;
}

/**
 * Exact 64-bit division and remainder by a fixed divisor without a
 * hardware divide (Lemire, Kaser and Kurz, "Faster Remainder by Direct
 * Computation", 2019). With M = ceil(2^128 / d), for every 64-bit a:
 * a / d = (M * a) >> 128 and a % d = ((M * a mod 2^128) * d) >> 128,
 * exactly, because 128 >= 64 + ceil(log2 d). M overflows for d == 1,
 * which is special-cased.
 */
class FastDivisor
{
  public:
    FastDivisor() = default;

    explicit FastDivisor(std::uint64_t d)
        : d_(d), m_(d <= 1 ? 0 : ~U128{0} / d + 1)
    {
    }

    std::uint64_t divisor() const { return d_; }

    std::uint64_t
    div(std::uint64_t a) const
    {
        return d_ == 1 ? a : mulHi(m_, a);
    }

    std::uint64_t
    mod(std::uint64_t a) const
    {
        return d_ == 1 ? 0 : mulHi(m_ * a, d_);
    }

  private:
    using U128 = unsigned __int128;

    /** (x * y) >> 128, without the 192-bit product. */
    static std::uint64_t
    mulHi(U128 x, std::uint64_t y)
    {
        const U128 lo = static_cast<U128>(static_cast<std::uint64_t>(x)) * y;
        const U128 hi = (x >> 64) * y;
        return static_cast<std::uint64_t>((hi + (lo >> 64)) >> 64);
    }

    std::uint64_t d_ = 1;
    U128 m_ = 0;
};

} // namespace ndpext

#endif // NDPEXT_COMMON_BITUTILS_H
