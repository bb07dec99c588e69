#include "rop/recon.hpp"

#include "support/error.hpp"

namespace crs::rop {

FrameRecon recon_vulnerable_frame(const sim::Program& program,
                                  const ReconSpec& spec) {
  sim::Machine machine;
  sim::Kernel kernel(machine);
  kernel.register_binary(spec.path, program);
  kernel.start_with_strings(spec.path, spec.benign_args);

  FrameRecon out;
  out.start_sp = machine.cpu().sp();

  const std::uint64_t entry_pc =
      kernel.resolved_symbol(spec.path, spec.entry_label);
  const std::uint64_t body_pc =
      kernel.resolved_symbol(spec.path, spec.body_label);

  bool saw_entry = false;
  bool saw_body = false;
  auto& cpu = machine.cpu();
  for (std::uint64_t steps = 0;
       steps < spec.max_instructions && !cpu.halted(); ++steps) {
    if (!saw_entry && cpu.pc() == entry_pc) {
      saw_entry = true;
      out.return_slot = cpu.sp();
      out.resume_address = machine.memory().read_u64(cpu.sp());
    }
    if (saw_entry && !saw_body && cpu.pc() == body_pc) {
      saw_body = true;
      out.buffer_address = cpu.sp();
      break;
    }
    cpu.step();
  }
  CRS_ENSURE(saw_entry, "recon: never reached '" + spec.entry_label + "'");
  CRS_ENSURE(saw_body, "recon: never reached '" + spec.body_label + "'");
  CRS_ENSURE(out.return_slot > out.buffer_address,
             "recon: frame layout unexpected");
  out.filler_length = out.return_slot - out.buffer_address;
  return out;
}

}  // namespace crs::rop
