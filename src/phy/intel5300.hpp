// Intel 5300 phase quirk: the per-band combining exponent.
//
// The paper's implementation notes (§11, footnote 5) that the Intel 5300
// firmware reports the channel phase modulo pi/2 (instead of modulo 2*pi) on
// the 2.4 GHz bands. Chronos neutralises the quirk by running its algorithm
// on h^4 at 2.4 GHz — raising to the fourth power maps all four phase
// ambiguities onto the same value. The simulator models the quirk itself, as
// a random quadrant rotation per packet (sim/link.cpp); this module holds the
// per-band combining exponent the pipeline uses to erase it.
#pragma once

#include "phy/band_plan.hpp"

namespace chronos::phy {

/// The power to which each *direction's* zero-subcarrier value is raised
/// before the two-way product (paper §7 + §11 footnote 5):
///   5 GHz:   1 — combined channel h_fwd * h_rev has its first peak at 2*tau;
///   2.4 GHz: 4 — raising each direction to the 4th power erases the
///            quadrant (pi/2) reporting ambiguity; the combined value is h^8
///            and its NDFT row spins at 4*f on the 2*tau axis.
int per_direction_exponent(const WifiBand& band);

}  // namespace chronos::phy
