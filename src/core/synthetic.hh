/**
 * @file
 * Synthetic committed streams with tunable dataflow statistics, for
 * tests and property sweeps: a CommittedTrace the core can replay
 * without an assembled program behind it.
 */

#ifndef HPA_CORE_SYNTHETIC_HH
#define HPA_CORE_SYNTHETIC_HH

#include <cstdint>

#include "func/trace.hh"

namespace hpa::core
{

/** Statistical knobs for the synthetic stream. */
struct SyntheticParams
{
    uint64_t num_insts = 10000;
    uint64_t seed = 1;
    /** Probability an ALU op has a 2-register-source format. */
    double two_source_frac = 0.30;
    double load_frac = 0.20;
    double store_frac = 0.10;
    double branch_frac = 0.12;
    /** Probability a conditional branch is taken. */
    double taken_frac = 0.45;
    /** Geometric parameter for register-dependence distance. */
    double dep_distance_p = 0.35;
    /** Probability a source is the zero register. */
    double zero_reg_frac = 0.05;
    /** Working-set span of generated load/store addresses (bytes). */
    uint64_t mem_span = 1 << 16;
};

/**
 * Deterministic synthetic committed path of @p params.num_insts
 * records, the last a HALT. Well-formed (consistent nextPc, real
 * register numbers, plausible dependence distances) and a pure
 * function of @p params.
 */
func::CommittedTrace syntheticTrace(const SyntheticParams &params);

} // namespace hpa::core

#endif // HPA_CORE_SYNTHETIC_HH
