//! Gate-level TP-ISA core generation — the stand-in for the paper's
//! Verilog cores and Design Compiler synthesis (Section 5.2).
//!
//! [`generate`] instantiates a complete TP-ISA core netlist from a
//! [`CoreSpec`]: operand effective-address units, the shared ALU
//! (add/sub, logic, rotate), flags, PC with branch resolution, BAR
//! registers, and the data-memory interface. Deeper pipelines insert the
//! corresponding pipeline register ranks (instruction, operands, result),
//! which is exactly why they lose in printed technologies: each rank is a
//! bank of the most expensive cell in the library.
//!
//! Single-cycle cores are fully functional at gate level:
//! [`GateLevelMachine`] co-simulates the netlist against a software data
//! memory, and the test suite checks it cycle-for-cycle against the ISS
//! ([`crate::sim::Machine`]) on random programs. Multi-stage cores are
//! generated for characterization (area / power / f_max); their timing
//! behaviour is modeled by the ISS's stall model.

use crate::config::CoreConfig;
use crate::isa::Flags;
#[cfg(test)]
use crate::isa::Instruction;
use crate::specific::CoreSpec;
use printed_netlist::{
    lint, words, Engine, NetId, Netlist, NetlistBuilder, NetlistError, Simulator,
};
use printed_pdk::Technology;

/// Field layout of an instruction word under a [`CoreSpec`] (LSB-first
/// offsets into the instruction bus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrLayout {
    /// Bits in operand 2 (immediate / mask / source operand).
    pub op2_bits: usize,
    /// Bits in operand 1 (destination operand / branch target).
    pub op1_bits: usize,
}

impl InstrLayout {
    /// Total instruction width: opcode (4) + control (4) + operands.
    pub fn total_bits(&self) -> usize {
        4 + 4 + self.op1_bits + self.op2_bits
    }
}

/// Generates the gate-level netlist of a TP-ISA core.
///
/// Ports:
/// - inputs `instr` (instruction word), `rdata_a`, `rdata_b` (data memory
///   read data for the two operands),
/// - outputs `pc` (instruction address), `addr_a`, `addr_b` (data memory
///   addresses), `wdata`, `we` (write port), and `flags` (for
///   observability).
///
/// Every netlist is design-rule-checked before it is returned (see
/// [`generate_checked`]); lint errors fail generation.
///
/// # Panics
///
/// Panics if the generated netlist has a [`lint::Severity::Error`]
/// finding — a generator bug, not a caller error.
pub fn generate(spec: &CoreSpec) -> Netlist {
    match generate_checked(spec, Technology::Egfet) {
        Ok(netlist) => netlist,
        Err(report) => panic!("generated core fails DRC:\n{}", report.render_text()),
    }
}

/// Like [`generate`], returning the netlist only if it is free of lint
/// errors in the given technology; otherwise the full [`lint::LintReport`]
/// explains what is wrong. Warnings never fail generation, so only the
/// error rules run unless one fires ([`lint::check_errors`]).
///
/// # Errors
///
/// Returns the lint report if any [`lint::Severity::Error`] finding fires.
pub fn generate_checked(
    spec: &CoreSpec,
    technology: Technology,
) -> Result<Netlist, lint::LintReport> {
    let netlist = build(spec);
    lint::check_errors(&netlist, technology.library())?;
    Ok(netlist)
}

/// [`generate_checked`] that also hands back the lint report it computed
/// (warnings and infos included), so a caller that summarizes lint
/// results does not lint the design a second time.
///
/// # Errors
///
/// Returns the lint report if any [`lint::Severity::Error`] finding fires.
pub fn generate_linted(
    spec: &CoreSpec,
    technology: Technology,
) -> Result<(Netlist, lint::LintReport), lint::LintReport> {
    let netlist = build(spec);
    let report = lint::lint(&netlist, technology.library(), &lint::LintConfig::default());
    if report.has_errors() {
        Err(report)
    } else {
        Ok((netlist, report))
    }
}

/// Builds the raw netlist; [`generate`] / [`generate_checked`] wrap this
/// with the DRC gate.
fn build(spec: &CoreSpec) -> Netlist {
    let w = spec.datawidth;
    let layout = spec.instr_layout();
    let mut b = NetlistBuilder::new(spec.name());

    // --- Ports -----------------------------------------------------------
    let instr = b.input("instr", layout.total_bits());
    let rdata_a_raw = b.input("rdata_a", w);
    let rdata_b_raw = b.input("rdata_b", w);
    let zero = b.const0();
    let one = b.const1();

    // --- Field extraction (LSB first: op2, op1, B, A, C, W, opcode) ------
    let op2 = instr[..layout.op2_bits].to_vec();
    let op1 = instr[layout.op2_bits..layout.op2_bits + layout.op1_bits].to_vec();
    let ctrl_base = layout.op2_bits + layout.op1_bits;
    let bbit = instr[ctrl_base];
    let abit = instr[ctrl_base + 1];
    let cbit = instr[ctrl_base + 2];
    let wbit = instr[ctrl_base + 3];
    let opcode = instr[ctrl_base + 4..ctrl_base + 8].to_vec();

    // --- Decode ----------------------------------------------------------
    let onehot = words::decoder(&mut b, &opcode, one);
    let is_store = onehot[0x8];
    let is_setbar = onehot[0x9];
    let is_br = b.and2(onehot[0xA], bbit);
    let is_rl = onehot[0x6];
    let is_rr = onehot[0x7];
    let mtype_pairs = [onehot[1], onehot[2], onehot[3], onehot[4], onehot[5], onehot[6], onehot[7]];
    let is_mtype = words::or_reduce(&mut b, &mtype_pairs);
    let logic_ops = [onehot[2], onehot[3], onehot[4], onehot[5]];
    let is_logic = words::or_reduce(&mut b, &logic_ops);

    // --- Architectural state (forward-declared) --------------------------
    let pc_q = b.forward_bus(spec.pc_bits);
    // Flags present in this spec, in C, Z, S, V order.
    let flag_masks = spec.present_flags();
    let flag_q: Vec<NetId> = flag_masks.iter().map(|_| b.forward_net()).collect();
    let carry_q = flag_masks.iter().position(|&m| m == Flags::C).map(|i| flag_q[i]).unwrap_or(zero);
    // BAR registers 1..bars (BAR0 is hardwired zero).
    let printed_bars = spec.bars.saturating_sub(1) as usize;
    let bar_q: Vec<Vec<NetId>> = (0..printed_bars).map(|_| b.forward_bus(spec.bar_bits)).collect();

    // --- Effective addresses ---------------------------------------------
    let ea_bits = spec.ea_bits();
    let ea = |b: &mut NetlistBuilder, field: &[NetId]| -> Vec<NetId> {
        let bar_sel_bits = spec.bar_sel_bits();
        let offset = &field[..field.len() - bar_sel_bits];
        let mut offset_ext: Vec<NetId> = offset.to_vec();
        offset_ext.resize(ea_bits, zero);
        if printed_bars == 0 {
            return offset_ext;
        }
        let sel = &field[field.len() - bar_sel_bits..];
        let mut bases: Vec<Vec<NetId>> = Vec::with_capacity(printed_bars + 1);
        bases.push(vec![zero; ea_bits]); // BAR0
        for bar in &bar_q {
            let mut base = bar.clone();
            base.resize(ea_bits, zero);
            bases.push(base);
        }
        let base = words::mux_tree(b, &bases, sel);
        words::ripple_adder(b, &base, &offset_ext, zero).sum
    };
    let ea1 = ea(&mut b, &op1);
    let ea2 = ea(&mut b, &op2);

    // --- Pipeline boundary 1 (fetch/address → execute) --------------------
    // Deeper pipelines latch the instruction, both operands, and the
    // writeback address; this is where multi-stage cores pay their DFF tax.
    let (instr_x, rdata_a, rdata_b, ea1_x) = if spec.pipeline_stages >= 2 {
        (
            words::register(&mut b, &instr, false),
            words::register(&mut b, &rdata_a_raw, false),
            words::register(&mut b, &rdata_b_raw, false),
            words::register(&mut b, &ea1, false),
        )
    } else {
        (instr.clone(), rdata_a_raw.clone(), rdata_b_raw.clone(), ea1.clone())
    };
    // Execute-stage control (re-derived from the latched instruction when
    // pipelined; aliases the fetch-stage signals otherwise).
    let (x_abit, x_cbit, x_op2) = if spec.pipeline_stages >= 2 {
        let ctrl = layout.op2_bits + layout.op1_bits;
        (instr_x[ctrl + 1], instr_x[ctrl + 2], instr_x[..layout.op2_bits].to_vec())
    } else {
        (abit, cbit, op2.clone())
    };

    // --- ALU ---------------------------------------------------------------
    // Add/sub with carry coupling: cin = sub ? (C ? !carry : 1)
    //                                        : (C ? carry : 0).
    let sub = x_abit;
    let carry_n = b.inv(carry_q);
    let cin_add = b.and2(x_cbit, carry_q); // ADC
    let cbit_n = b.inv(x_cbit);
    let sbb_term = b.and2(x_cbit, carry_n);
    let sub_one = b.or2(cbit_n, sbb_term); // SUB:1, SBB:!borrow
    let sub_n = b.inv(sub);
    let cin = b.mux2(cin_add, sub_one, sub, sub_n);
    let addsub = words::add_sub_fast(&mut b, &rdata_a, &rdata_b, sub, cin);
    // Borrow convention: on subtraction C is the *borrow* (= !carry_out).
    let c_addsub = b.xor2(addsub.carry_out, sub);

    let and_w = words::and_word(&mut b, &rdata_a, &rdata_b);
    let or_w = words::or_word(&mut b, &rdata_a, &rdata_b);
    let xor_w = words::xor_word(&mut b, &rdata_a, &rdata_b);
    let not_w = words::not_word(&mut b, &rdata_b);
    let rl = words::rotate_left(&mut b, &rdata_b, x_cbit, carry_q);
    let rr = words::rotate_right(&mut b, &rdata_b, x_cbit, x_abit, carry_q);

    // Result mux indexed directly by the low three opcode bits
    // (ADD=1, AND=2, OR=3, XOR=4, NOT=5, RL=6, RR=7; slot 0 unused).
    let words8: Vec<Vec<NetId>> =
        vec![addsub.sum.clone(), addsub.sum.clone(), and_w, or_w, xor_w, not_w, rl.word, rr.word];
    let result = words::mux_tree(&mut b, &words8, &opcode[..3]);

    // --- Flags --------------------------------------------------------------
    let z_new = words::zero_detect(&mut b, &result);
    let s_new = *result.last().unwrap_or_else(|| unreachable!("datawidth >= 2"));
    let v_new = b.and2(addsub.overflow, onehot[1]);
    // C: rotates report the shifted-out bit, logic ops clear, add/sub
    // report carry/borrow.
    let c_rot = b.mux2(rr.shifted_out, rl.shifted_out, is_rl, is_rr);
    let is_rot = b.or2(is_rl, is_rr);
    let is_rot_n = b.inv(is_rot);
    let c_arith_or_rot = b.mux2(c_addsub, c_rot, is_rot, is_rot_n);
    let is_logic_n = b.inv(is_logic);
    let c_new = b.and2(c_arith_or_rot, is_logic_n);

    let flag_new = |mask: u8| match mask {
        Flags::C => c_new,
        Flags::Z => z_new,
        Flags::S => s_new,
        Flags::V => v_new,
        _ => unreachable!("present_flags yields single-bit masks"),
    };
    let is_mtype_n = b.inv(is_mtype);
    for (i, &mask) in flag_masks.iter().enumerate() {
        let next = flag_new(mask);
        let d = b.mux2(flag_q[i], next, is_mtype, is_mtype_n);
        b.dff_nr_into(d, flag_q[i]);
    }

    // --- Branch resolution and PC ------------------------------------------
    // Mask field: low bits of (executed) operand 2, one per present flag.
    let masked: Vec<NetId> =
        flag_masks.iter().enumerate().map(|(i, _)| b.and2(flag_q[i], x_op2[i])).collect();
    let any_set = if masked.is_empty() { zero } else { words::or_reduce(&mut b, &masked) };
    let taken_if = b.xor2(any_set, x_abit); // A = negate (BRN)
                                            // In pipelined cores the branch executes one stage late, from the
                                            // latched instruction; the decode here uses the executed stage's copy.
    let (x_is_br, x_op1) = if spec.pipeline_stages >= 2 {
        let ctrl = layout.op2_bits + layout.op1_bits;
        let x_opcode = instr_x[ctrl + 4..ctrl + 8].to_vec();
        let x_onehot = words::decoder(&mut b, &x_opcode, one);
        let x_bbit = instr_x[ctrl];
        (
            b.and2(x_onehot[0xA], x_bbit),
            instr_x[layout.op2_bits..layout.op2_bits + layout.op1_bits].to_vec(),
        )
    } else {
        (is_br, op1.clone())
    };
    let taken = b.and2(taken_if, x_is_br);

    let pc_inc = words::incrementer(&mut b, &pc_q, one);
    let mut target: Vec<NetId> = x_op1[..x_op1.len().min(spec.pc_bits)].to_vec();
    target.resize(spec.pc_bits, zero);
    let pc_next = words::mux2_word(&mut b, &pc_inc, &target, taken);
    for (d, q) in pc_next.iter().zip(&pc_q) {
        b.dff_nr_into(*d, *q);
    }

    // --- BAR registers -------------------------------------------------------
    if printed_bars > 0 {
        // SET-BAR selects the BAR by the low bits of operand 1.
        let idx_bits = spec.bar_index_bits();
        let sel = &op1[..idx_bits];
        let bar_onehot = words::decoder(&mut b, sel, is_setbar);
        let mut imm_ext: Vec<NetId> = op2.clone();
        imm_ext.resize(spec.bar_bits, zero);
        imm_ext.truncate(spec.bar_bits);
        for (i, bar) in bar_q.iter().enumerate() {
            let en = bar_onehot[i + 1]; // index 0 is BAR0 (ignored)
            let en_n = b.inv(en);
            for (bit, &q) in bar.iter().enumerate() {
                let d = b.mux2(q, imm_ext[bit], en, en_n);
                b.dff_into(d, q);
            }
        }
    }

    // --- Pipeline boundary 2 (execute → writeback) ---------------------------
    let we_pre = {
        let m_or_s = b.or2(is_mtype, is_store);
        b.and2(wbit, m_or_s)
    };
    let mut imm_ext: Vec<NetId> = op2.clone();
    imm_ext.resize(w.max(layout.op2_bits), zero);
    imm_ext.truncate(w);
    let is_store_n = b.inv(is_store);
    let wdata_pre: Vec<NetId> =
        result.iter().zip(&imm_ext).map(|(&r, &i)| b.mux2(r, i, is_store, is_store_n)).collect();

    let (wdata, we, ea1_out) = if spec.pipeline_stages >= 3 {
        let wdata_r = words::register(&mut b, &wdata_pre, false);
        let we_r = words::register(&mut b, &[we_pre], false)[0];
        let ea1_r = words::register(&mut b, &ea1_x, false);
        (wdata_r, we_r, ea1_r)
    } else {
        (wdata_pre, we_pre, ea1_x.clone())
    };

    // --- Outputs ---------------------------------------------------------------
    b.output("pc", pc_q);
    b.output("addr_a", ea1);
    b.output("addr_b", ea2);
    b.output("wb_addr", ea1_out);
    b.output("wdata", wdata);
    b.output("we", vec![we]);
    b.output("flags", flag_q);

    b.finish().unwrap_or_else(|_| unreachable!("generated core netlists are valid by construction"))
}

/// Generates the netlist for a standard (non-program-specific) core.
pub fn generate_standard(config: &CoreConfig) -> Netlist {
    generate(&CoreSpec::standard(*config))
}

/// Design-rule-checked variant of [`generate_standard`]; see
/// [`generate_checked`].
///
/// # Errors
///
/// Returns the lint report if any [`lint::Severity::Error`] finding fires.
pub fn generate_standard_checked(
    config: &CoreConfig,
    technology: Technology,
) -> Result<Netlist, lint::LintReport> {
    generate_checked(&CoreSpec::standard(*config), technology)
}

/// A gate-level TP-ISA system: the generated single-cycle core netlist
/// co-simulated with a software-modeled instruction ROM and data memory.
/// Used to verify the netlist against the ISS.
#[derive(Debug)]
pub struct GateLevelMachine<'a> {
    sim: Simulator<'a>,
    spec: CoreSpec,
    program: Vec<u64>,
    dmem: Vec<u64>,
    halted: bool,
    /// Memory-interface port nets, resolved once so the per-cycle loop
    /// skips the by-name port lookups (`None` if the netlist lacks the
    /// port — surfaced as [`NetlistError::UnknownPort`] on `step`).
    ports: MachinePorts<'a>,
}

/// Resolved output-port net lists of a generated core (see
/// [`GateLevelMachine::step`] for how each is used per cycle).
#[derive(Debug, Clone, Copy)]
struct MachinePorts<'a> {
    pc: Option<&'a [NetId]>,
    addr_a: Option<&'a [NetId]>,
    addr_b: Option<&'a [NetId]>,
    we: Option<&'a [NetId]>,
    wdata: Option<&'a [NetId]>,
    wb_addr: Option<&'a [NetId]>,
    flags: Option<&'a [NetId]>,
    instr: Option<&'a [NetId]>,
    rdata_a: Option<&'a [NetId]>,
    rdata_b: Option<&'a [NetId]>,
}

impl<'a> MachinePorts<'a> {
    fn resolve(netlist: &'a Netlist) -> Self {
        let output = |name: &str| netlist.output(name).ok();
        let input = |name: &str| netlist.input(name).ok();
        MachinePorts {
            pc: output("pc"),
            addr_a: output("addr_a"),
            addr_b: output("addr_b"),
            we: output("we"),
            wdata: output("wdata"),
            wb_addr: output("wb_addr"),
            flags: output("flags"),
            instr: input("instr"),
            rdata_a: input("rdata_a"),
            rdata_b: input("rdata_b"),
        }
    }
}

impl<'a> GateLevelMachine<'a> {
    /// Wraps a generated single-cycle core netlist.
    ///
    /// `program` holds instruction words already encoded for the spec's
    /// layout; `dmem_words` sizes the data memory.
    ///
    /// # Panics
    ///
    /// Panics if the spec is not single-cycle (multi-stage cores are
    /// characterization-only).
    pub fn new(netlist: &'a Netlist, spec: CoreSpec, program: Vec<u64>, dmem_words: usize) -> Self {
        Self::with_simulator(Simulator::new(netlist), spec, program, dmem_words)
    }

    /// Like [`GateLevelMachine::new`], but with an explicit simulation
    /// [`Engine`] — the hook benchmarks use to replay one kernel under
    /// both the event-driven and the full-sweep engine.
    ///
    /// # Panics
    ///
    /// Panics if the spec is not single-cycle (multi-stage cores are
    /// characterization-only).
    pub fn with_engine(
        netlist: &'a Netlist,
        spec: CoreSpec,
        program: Vec<u64>,
        dmem_words: usize,
        engine: Engine,
    ) -> Self {
        Self::with_simulator(Simulator::with_engine(netlist, engine), spec, program, dmem_words)
    }

    /// Like [`GateLevelMachine::new`], but over a pre-built simulator —
    /// the hook fault campaigns use to run programs on a core with
    /// faults already injected (see [`crate::workload::ProgramWorkload`]).
    ///
    /// # Panics
    ///
    /// Panics if the spec is not single-cycle (multi-stage cores are
    /// characterization-only).
    pub fn with_simulator(
        sim: Simulator<'a>,
        spec: CoreSpec,
        program: Vec<u64>,
        dmem_words: usize,
    ) -> Self {
        assert_eq!(spec.pipeline_stages, 1, "gate-level co-simulation supports single-cycle cores");
        let ports = MachinePorts::resolve(sim.netlist());
        GateLevelMachine { sim, spec, program, dmem: vec![0; dmem_words], halted: false, ports }
    }

    /// Reads a port resolved at construction time, reporting a missing
    /// port exactly as [`Simulator::read_output`] would.
    fn read_port(&self, nets: Option<&[NetId]>, name: &str) -> Result<u64, NetlistError> {
        nets.map(|nets| self.sim.read_bus(nets))
            .ok_or_else(|| NetlistError::UnknownPort(name.to_string()))
    }

    /// Drives a port resolved at construction time, reporting a missing
    /// port exactly as [`Simulator::set_input`] would.
    fn write_port(
        &mut self,
        nets: Option<&'a [NetId]>,
        name: &str,
        value: u64,
    ) -> Result<(), NetlistError> {
        match nets {
            Some(nets) => {
                self.sim.set_bus(nets, value);
                Ok(())
            }
            None => Err(NetlistError::UnknownPort(name.to_string())),
        }
    }

    /// The underlying gate-level simulator.
    pub fn simulator(&self) -> &Simulator<'a> {
        &self.sim
    }

    /// Arms (or disarms with `None`) the simulator's cycle-limit
    /// watchdog: once the underlying simulator has clocked `limit`
    /// cycles, every further [`GateLevelMachine::step`] returns
    /// [`NetlistError::DeadlineExceeded`] instead of hanging — the
    /// typed signal the resilience layer classifies as a hang.
    pub fn set_cycle_limit(&mut self, limit: Option<u64>) {
        self.sim.set_cycle_limit(limit);
    }

    /// The armed watchdog deadline, if any.
    pub fn cycle_limit(&self) -> Option<u64> {
        self.sim.cycle_limit()
    }

    /// Data memory contents.
    pub fn dmem(&self) -> &[u64] {
        &self.dmem
    }

    /// Pre-loads a data memory word.
    pub fn write_dmem(&mut self, addr: usize, value: u64) {
        self.dmem[addr] = value & self.width_mask();
    }

    /// Current PC (gate-level register state).
    pub fn pc(&self) -> u64 {
        self.sim.read_bus(self.ports.pc.unwrap_or_else(|| unreachable!("core exposes pc")))
    }

    /// Current flags, decoded from the netlist's flag register.
    pub fn flags(&self) -> Flags {
        let bits = self
            .sim
            .read_bus(self.ports.flags.unwrap_or_else(|| unreachable!("core exposes flags")));
        // The register holds only the spec's flags, packed in C, Z, S, V
        // order: spread them back to their mask positions.
        let mut packed = 0;
        let mut next = 0;
        for mask in [Flags::C, Flags::Z, Flags::S, Flags::V] {
            if self.spec.flags_mask & mask != 0 {
                if bits >> next & 1 == 1 {
                    packed |= mask;
                }
                next += 1;
            }
        }
        Flags::from_bits(packed)
    }

    /// Whether the halt idiom was detected.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    fn width_mask(&self) -> u64 {
        if self.spec.datawidth == 64 {
            u64::MAX
        } else {
            (1u64 << self.spec.datawidth) - 1
        }
    }

    /// Runs one clock cycle: fetch, execute, memory writeback.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures — [`NetlistError::Unsettled`] if
    /// the logic oscillates (possible under injected faults), or
    /// [`NetlistError::DeadlineExceeded`] once an armed cycle-limit
    /// watchdog ([`GateLevelMachine::set_cycle_limit`]) trips.
    pub fn step(&mut self) -> Result<(), NetlistError> {
        if self.halted {
            return Ok(());
        }
        let pc = self.read_port(self.ports.pc, "pc")? as usize;
        let word = self.program.get(pc).copied().unwrap_or(0);
        self.write_port(self.ports.instr, "instr", word)?;
        self.sim.settle()?;
        // Addresses are combinational on the instruction and BAR state.
        let addr_a = self.read_port(self.ports.addr_a, "addr_a")? as usize;
        let addr_b = self.read_port(self.ports.addr_b, "addr_b")? as usize;
        let ra = self.dmem.get(addr_a).copied().unwrap_or(0);
        let rb = self.dmem.get(addr_b).copied().unwrap_or(0);
        self.write_port(self.ports.rdata_a, "rdata_a", ra)?;
        self.write_port(self.ports.rdata_b, "rdata_b", rb)?;
        self.sim.settle()?;
        let we = self.read_port(self.ports.we, "we")? == 1;
        let wdata = self.read_port(self.ports.wdata, "wdata")?;
        let wb_addr = self.read_port(self.ports.wb_addr, "wb_addr")? as usize;
        self.sim.step()?;
        if we {
            if let Some(slot) = self.dmem.get_mut(wb_addr) {
                *slot = wdata
                    & if self.spec.datawidth == 64 {
                        u64::MAX
                    } else {
                        (1u64 << self.spec.datawidth) - 1
                    };
            }
        }
        // Halt idiom: PC unchanged by an unconditional self-branch.
        if self.pc() as usize == pc {
            self.halted = true;
        }
        Ok(())
    }

    /// Runs until halted or `max_cycles` elapse; returns cycles run.
    ///
    /// # Errors
    ///
    /// Propagates the first simulation failure from any cycle.
    pub fn run(&mut self, max_cycles: u64) -> Result<u64, NetlistError> {
        let mut cycles = 0;
        while !self.halted && cycles < max_cycles {
            self.step()?;
            cycles += 1;
        }
        if printed_obs::enabled() {
            printed_obs::add("core.gatelevel.cycles", cycles);
            self.sim.publish_obs("core.gatelevel.sim");
        }
        Ok(cycles)
    }

    /// Switching statistics of the underlying gate-level simulation.
    pub fn stats(&self) -> &printed_netlist::ActivityStats {
        self.sim.stats()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::sim::Machine;
    use printed_netlist::analysis;
    use printed_pdk::Technology;

    fn encode_program(config: &CoreConfig, prog: &[Instruction]) -> Vec<u64> {
        let enc = config.encoding();
        prog.iter().map(|&i| enc.encode(i).unwrap() as u64).collect()
    }

    #[test]
    fn standard_core_gate_counts_are_plausible() {
        // §5.2: the smallest 8-bit TP-ISA core is 5.2× smaller than the
        // light8080 (1948 gates) → a few hundred gates.
        let nl = generate_standard(&CoreConfig::new(1, 8, 2));
        assert!((200..900).contains(&nl.gate_count()), "p1_8_2 gate count {}", nl.gate_count());
        // Register cost: PC(8) + flags(4) + BAR(8) = 20 sequential cells.
        assert_eq!(nl.sequential_count(), 20);
    }

    #[test]
    fn every_design_point_passes_drc_in_both_technologies() {
        // The acceptance bar for the DRC gate: all 24 sweep points of
        // Figure 7 generate without a single lint error, under both
        // libraries' drive models.
        for technology in [Technology::Egfet, Technology::CntTft] {
            for config in CoreConfig::design_space() {
                let netlist =
                    generate_standard_checked(&config, technology).unwrap_or_else(|report| {
                        panic!("{} ({technology:?}):\n{}", config.name(), report.render_text())
                    });
                assert_eq!(netlist.name(), config.name());
            }
        }
    }

    #[test]
    fn pipelining_adds_registers() {
        let p1 = generate_standard(&CoreConfig::new(1, 8, 2));
        let p2 = generate_standard(&CoreConfig::new(2, 8, 2));
        let p3 = generate_standard(&CoreConfig::new(3, 8, 2));
        assert!(p2.sequential_count() > p1.sequential_count() + 20);
        assert!(p3.sequential_count() > p2.sequential_count());
        // Pipelining never lengthens the critical path — but it cannot cut
        // the flag→ALU→flag feedback loop, which bounds the cycle at every
        // depth (hence Figure 7's modest f_max spread across pipelines,
        // while register area and power grow steeply).
        let lib = Technology::Egfet.library();
        let t1 = analysis::timing(&p1, lib);
        let t3 = analysis::timing(&p3, lib);
        assert!(t3.critical_path <= t1.critical_path);
        let a1 = analysis::characterize(&p1, lib);
        let a3 = analysis::characterize(&p3, lib);
        assert!(a3.area.total > a1.area.total);
        assert!(
            a3.power.total() > a1.power.total(),
            "deeper pipelines burn more power at the same or higher f_max"
        );
    }

    #[test]
    fn wider_cores_are_bigger_and_slower() {
        let lib = Technology::Egfet.library();
        let c8 = analysis::characterize(&generate_standard(&CoreConfig::new(1, 8, 2)), lib);
        let c32 = analysis::characterize(&generate_standard(&CoreConfig::new(1, 32, 2)), lib);
        assert!(c32.area.total > c8.area.total);
        assert!(c32.fmax < c8.fmax);
    }

    #[test]
    fn gate_level_machine_runs_a_program() {
        let config = CoreConfig::new(1, 8, 2);
        let prog = assemble(
            "
                STORE [0], #17
                STORE [1], #25
                ADD [0], [1]
                HALT
            ",
        )
        .unwrap();
        let nl = generate_standard(&config);
        let words = encode_program(&config, &prog.instructions);
        let mut gm = GateLevelMachine::new(&nl, CoreSpec::standard(config), words, 16);
        gm.run(100).unwrap();
        assert!(gm.is_halted());
        assert_eq!(gm.dmem()[0], 42);
        assert!(gm.flags().bits() != 0 || gm.dmem()[0] == 42);
    }

    #[test]
    fn armed_watchdog_turns_a_hung_program_into_a_typed_error() {
        // A program with no HALT spins forever; the cycle-limit watchdog
        // converts that hang into DeadlineExceeded through step().
        let config = CoreConfig::new(1, 8, 2);
        let prog = assemble(
            "
                STORE [0], #1
            spin:
                ADD [0], [0]
                JMP spin
            ",
        )
        .unwrap();
        let nl = generate_standard(&config);
        let words = encode_program(&config, &prog.instructions);
        let mut gm = GateLevelMachine::new(&nl, CoreSpec::standard(config), words, 16);
        gm.set_cycle_limit(Some(5));
        assert_eq!(gm.cycle_limit(), Some(5));
        let err = gm.run(100).unwrap_err();
        match err {
            printed_netlist::NetlistError::DeadlineExceeded { cycles, limit } => {
                assert_eq!(limit, 5);
                assert!(cycles >= 5, "watchdog fired after {cycles} cycles");
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        assert!(!gm.is_halted(), "the program never reached a halt idiom");
    }

    #[test]
    fn gate_level_matches_iss_on_directed_programs() {
        let config = CoreConfig::new(1, 8, 2);
        let src = "
            SETBAR b1, #0x08
            STORE [b1+0], #200
            STORE [b1+1], #100
            ADD   [b1+0], [b1+1]   ; 300 -> 44, carry set
            ADC   [2], [b1+1]      ; 0 + 100 + 1 = 101
            SUB   [2], [b1+1]      ; 1, borrow clear
            CMP   [2], [b1+0]      ; 1 - 44: borrow set
            SBB   [3], [2]         ; 0 - 1 - 1 = 254
            NOT   [4], [3]         ; 1
            RL    [5], [3]         ; rotate
            RRC   [6], [3]
            XOR   [3], [3]         ; zero
            HALT
        ";
        let prog = assemble(src).unwrap();
        let nl = generate_standard(&config);
        let words = encode_program(&config, &prog.instructions);
        let mut gate = GateLevelMachine::new(&nl, CoreSpec::standard(config), words, 32);
        let mut iss = Machine::new(config, prog.instructions.clone(), 32);
        gate.run(1000).unwrap();
        iss.run(1000).unwrap();
        assert!(gate.is_halted() && iss.is_halted());
        for addr in 0..32 {
            assert_eq!(gate.dmem()[addr], iss.dmem().read(addr).unwrap(), "dmem[{addr}] diverged");
        }
        assert_eq!(gate.flags(), iss.flags());
    }

    #[test]
    fn four_bar_core_resolves_addresses() {
        let config = CoreConfig::new(1, 8, 4);
        let src = "
            SETBAR b1, #0x10
            SETBAR b2, #0x20
            SETBAR b3, #0x30
            STORE [b1+1], #11
            STORE [b2+2], #22
            STORE [b3+3], #33
            HALT
        ";
        let prog = assemble(src).unwrap();
        let nl = generate_standard(&config);
        let words = encode_program(&config, &prog.instructions);
        let mut gate = GateLevelMachine::new(&nl, CoreSpec::standard(config), words, 64);
        gate.run(100).unwrap();
        assert_eq!(gate.dmem()[0x11], 11);
        assert_eq!(gate.dmem()[0x22], 22);
        assert_eq!(gate.dmem()[0x33], 33);
    }
}
