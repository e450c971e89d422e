/**
 * @file
 * Fundamental simulation types: simulated time and duration helpers.
 *
 * All simulated time in pagesim is expressed in integer nanoseconds.
 * Using a single integral unit keeps event ordering exact and avoids
 * floating-point drift over long simulations.
 */

#ifndef PAGESIM_SIM_TYPES_HH
#define PAGESIM_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace pagesim
{

/** Simulated time, in nanoseconds since simulation start. */
using SimTime = std::uint64_t;

/** A span of simulated time, in nanoseconds. */
using SimDuration = std::uint64_t;

/** Sentinel for "never" / "no deadline". */
constexpr SimTime kSimTimeMax = std::numeric_limits<SimTime>::max();

/** Construct a duration from nanoseconds. */
constexpr SimDuration
nsecs(std::uint64_t n)
{
    return n;
}

/** Construct a duration from microseconds. */
constexpr SimDuration
usecs(std::uint64_t u)
{
    return u * 1000ull;
}

/** Construct a duration from milliseconds. */
constexpr SimDuration
msecs(std::uint64_t m)
{
    return m * 1000000ull;
}

/** Construct a duration from (integer) seconds. */
constexpr SimDuration
secs(std::uint64_t s)
{
    return s * 1000000000ull;
}

} // namespace pagesim

#endif // PAGESIM_SIM_TYPES_HH
