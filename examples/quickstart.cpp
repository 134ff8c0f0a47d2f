/**
 * @file
 * Quickstart: assemble an HPA-ISA program, replay its committed
 * trace through the out-of-order timing simulator, and print the key
 * statistics. Build and run:
 *
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "sim/experiment.hh"

int
main()
{
    using namespace hpa;

    // 1. Write a program in HPA-ISA assembly. This one sums an array
    //    and prints the low byte of the sum via OUT.
    const char *program = R"(
        li    r1, 512             ; element count
        la    r2, data            ; base pointer
        clr   r3                  ; sum
loop:   ldq   r4, 0(r2)
        add   r3, r4, r3
        lda   r2, 8(r2)
        sub   r1, #1, r1
        bne   r1, loop
        out   r3
        halt
        .data
        .align 8
data:   .word 1, 2, 3, 4, 5, 6, 7, 8
        .space 4032
)";

    // 2. Assemble it.
    assembler::Program image = assembler::assemble(program);
    std::cout << "assembled " << image.code.size()
              << " instructions, entry at 0x" << std::hex
              << image.entry << std::dec << "\n";

    // 3. Pick a machine: the paper's 4-wide base configuration
    //    (Table 1), then capture the program's committed trace and
    //    replay it through the timing core.
    sim::Machine base = sim::Machine::base(4);
    sim::Simulation s(image, base.cfg);
    s.run();

    std::cout << "console bytes: "
              << unsigned(uint8_t(s.console()[0])) << "\n";
    std::cout << "committed: " << s.core().stats().committed.value()
              << " instructions in " << s.core().cycle()
              << " cycles (IPC " << s.ipc() << ")\n\n";

    // 4. Try a half-price configuration: sequential wakeup +
    //    sequential register access (Section 5.3). The builder
    //    validates the combination and names the machine.
    sim::Machine hp =
        sim::Machine::base(4)
            .wakeup(core::WakeupModel::Sequential)
            .regfile(core::RegfileModel::SequentialAccess);
    std::cout << "machine: " << hp.name << "\n";
    sim::Simulation half(image, hp.cfg);
    half.run();
    std::cout << "half-price IPC: " << half.ipc() << " ("
              << 100.0 * half.ipc() / s.ipc() << "% of base)\n\n";

    // 5. Full statistics report (or statsRegistry().toJson(os) for
    //    the machine-readable "hpa.stats.v1" form).
    half.report(std::cout);
    return 0;
}
