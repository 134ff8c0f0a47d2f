/**
 * @file
 * Configuration of the out-of-order core: machine width, window
 * sizes, functional units (Table 1), and the half-price scheme
 * selections evaluated in the paper.
 */

#ifndef HPA_CORE_CONFIG_HH
#define HPA_CORE_CONFIG_HH

#include "bpred/bpred.hh"
#include "mem/hierarchy.hh"

namespace hpa::core
{

/** Wakeup-logic organization (Section 3). */
enum class WakeupModel
{
    /** Two tag comparators per entry, both on the wakeup bus. */
    Conventional,
    /**
     * Sequential wakeup with a last-arriving operand predictor: the
     * predicted-last operand is wired to the fast bus, the other to
     * the slow bus (one cycle later).
     */
    Sequential,
    /**
     * Sequential wakeup without a predictor: the right-hand operand
     * is statically assumed last-arriving.
     */
    SequentialNoPred,
    /**
     * Tag elimination (Ernst & Austin): only the predicted-last
     * operand has a comparator; premature issue is detected by a
     * scoreboard and triggers non-selective rescheduling.
     */
    TagElimination,
    /**
     * Load-delay-tracking wakeup (Diavastos & Carlson): broadcast is
     * replaced by per-producer real-time delay counters of bounded
     * width (`dlt_max_delay`). A producer whose remaining latency
     * fits the counter wakes its consumers exactly as a broadcast
     * would; one that saturates the counter falls back to the
     * completion scoreboard, so its consumers wake only when the
     * value is architecturally complete (back-to-back issue lost).
     */
    LoadDelayTracking,
};

/** Register-file read-port organization (Section 4). */
enum class RegfileModel
{
    /** Two read ports per issue slot (base machine). */
    TwoPort,
    /**
     * One read port per issue slot; a 2-source instruction whose
     * operands both come from the register file reads sequentially:
     * +1 cycle latency and its issue slot blocked for one cycle.
     */
    SequentialAccess,
    /**
     * Conventional 2R/slot register file pipelined over one extra
     * stage (Figure 15, middle bars).
     */
    ExtraStage,
    /**
     * Half the total read ports with a fully connected crossbar and
     * global port arbitration across all issued instructions
     * (Figure 15, right bars).
     */
    HalfPortCrossbar,
    /**
     * Half ports + crossbar augmented with an operand prefetch
     * buffer (Los-style read-port reduction): operands whose values
     * sit in the architectural register file at dispatch are read
     * ahead of issue through a small number of dedicated prefetch
     * ports (width/2 per cycle) and parked in a buffer, so they
     * consume no issue-time read port. Issue-time port demand is
     * arbitrated across the crossbar exactly as HalfPortCrossbar.
     */
    PrefetchBuffer,
};

/** Scheduling-recovery style for load-latency mispredictions. */
enum class RecoveryModel
{
    /** Alpha 21264-style: squash every instruction in the shadow. */
    NonSelective,
    /** Kill-bus style: squash only dependent instructions. */
    Selective,
};

/**
 * Rename-stage source-lookup port organization. The paper's stated
 * future work (Section 6) extends the half-price idea to register
 * renaming: the map table is read once per source operand, so a
 * machine provisioned for two lookups per instruction can halve its
 * rename ports and let the rare 2-source groups take an extra cycle.
 */
enum class RenameModel
{
    /** Two map-table read ports per dispatch slot (base machine). */
    TwoPort,
    /**
     * One map-table read port per dispatch slot; a dispatch group
     * needing more lookups than ports spills into the next cycle.
     */
    HalfPort,
};

/** Full core configuration; defaults give the 4-wide base machine. */
struct CoreConfig
{
    unsigned width = 4;
    unsigned ruu_size = 64;
    unsigned lsq_size = 32;

    /** Fetch..rename depth; inserted into the window this many
     *  cycles after fetch. */
    unsigned front_end_depth = 6;
    /** SCHED->EXE distance (Disp + RF stages + 1). */
    unsigned sched_to_exec = 3;
    /** Cycles of issue squashed on a load-latency misprediction. */
    unsigned replay_shadow = 2;
    /** Scoreboard detection delay for tag elimination. */
    unsigned tagelim_detect_delay = 1;
    /** Enforced minimum branch misprediction refill (Table 1). */
    unsigned min_branch_penalty = 11;

    WakeupModel wakeup = WakeupModel::Conventional;
    RegfileModel regfile = RegfileModel::TwoPort;
    RecoveryModel recovery = RecoveryModel::NonSelective;
    RenameModel rename = RenameModel::TwoPort;

    /** Last-arriving operand predictor entries (Sections 3.2, 5.1). */
    unsigned lap_entries = 1024;

    /**
     * Load-delay-tracking: widest producer delay (cycles) the
     * per-entry counters can represent. A producer whose remaining
     * latency exceeds this saturates the counter and its consumers
     * wake from the completion scoreboard instead (15 = 4-bit
     * counters). Only read by WakeupModel::LoadDelayTracking.
     */
    unsigned dlt_max_delay = 15;

    /**
     * Cycles a produced value stays on the bypass network (Section
     * 4.2 assumes 1; machines with multi-cycle register-file access
     * can provision additional bypass paths and widen this).
     */
    unsigned bypass_window = 1;

    // --- Robustness knobs (see DESIGN.md "Error handling"). ---

    /**
     * No-forward-progress watchdog: if the window is non-empty and no
     * instruction commits for this many cycles, the core throws
     * hpa::Deadlock with a pipeline-state dump. 0 disables.
     */
    uint64_t watchdog_cycles = 100000;

    /**
     * Periodic scheduler cross-validation: every N cycles the
     * incrementally maintained ready/issued/store lists are re-derived
     * from the window by brute force and compared; a mismatch throws
     * hpa::InvariantViolation naming the diverged list. The pass is
     * O(window) — costless when 0 (the default, one compare/cycle).
     */
    uint64_t check_interval = 0;

    // Functional units (Table 1, 4-wide column).
    unsigned num_int_alu = 4;
    unsigned num_fp_alu = 2;
    unsigned num_int_muldiv = 2;
    unsigned num_fp_muldiv = 2;
    unsigned num_mem_ports = 2;

    bpred::BPredConfig bpred;
    mem::HierarchyConfig mem;

    /** Effective RF pipeline depth added by the ExtraStage model. */
    unsigned
    extraRfStages() const
    {
        return regfile == RegfileModel::ExtraStage ? 1 : 0;
    }

    /** SCHED->EXE distance including any extra RF stage. */
    unsigned
    schedToExec() const
    {
        return sched_to_exec + extraRfStages();
    }

    bool
    sequentialWakeup() const
    {
        return wakeup == WakeupModel::Sequential
            || wakeup == WakeupModel::SequentialNoPred;
    }
};

/** The paper's 4-wide base machine (Table 1). */
CoreConfig fourWideConfig();
/** The paper's 8-wide base machine (Table 1). */
CoreConfig eightWideConfig();

} // namespace hpa::core

#endif // HPA_CORE_CONFIG_HH
