//! Bitsliced gate-level co-simulation: 64 faulty cores per word.
//!
//! [`BitMachine`] is the word-wide counterpart of
//! [`crate::generator::GateLevelMachine`]: one
//! [`printed_netlist::BitSimulator`] carries 64 lanes of the same core
//! netlist (lane 0 fault-free, lanes 1.. with faults pre-injected), and
//! the software side of the co-simulation — instruction ROM lookup, data
//! memory, halt detection — stays word-wide too, so no cycle transposes
//! a bus into 64 per-lane values:
//!
//! - data memory is stored as lane words, `dmem[addr * width + bit]`;
//! - the ROM fetch, both data-memory reads and the writeback run once
//!   per *distinct* pc/address value among the live lanes. A value class
//!   is found by reading the lowest unclassified lane's value and
//!   AND-matching it against the bus words, so a cycle costs
//!   O(distinct values × bus width) word operations — and faulty lanes
//!   mostly follow the golden lane's pc and addresses;
//! - halt detection is one XOR per pc bit: the lanes whose pc words did
//!   not move.
//!
//! The scalar machine's rules hold per lane: an out-of-range pc fetches
//! 0, an out-of-range address reads 0 and drops its write, a write needs
//! `we == 1` exactly, and a lane writes nothing once halted.
//!
//! Per-lane divergence is handled exactly like the scalar machine run
//! in [`crate::workload::ProgramWorkload`]:
//!
//! - a lane whose PC survives a cycle unchanged has hit the halt idiom;
//!   its architectural observation (dmem, PC, flags, TMR detect flag) is
//!   gathered out of the lane words at that moment and the lane is
//!   retired — later word cycles keep clocking its gates, but nothing
//!   reads them again, and its writebacks are suppressed;
//! - a lane that oscillates (the bitsliced analogue of
//!   [`printed_netlist::NetlistError::Unsettled`]) becomes
//!   [`LaneOutcome::Wedged`];
//! - a watchdog trip ends the word: retired lanes keep their
//!   observations, live lanes become [`LaneOutcome::TimedOut`].

use crate::isa::Flags;
use crate::specific::CoreSpec;
use printed_netlist::bitsim::lane_value;
use printed_netlist::fault::{LaneOutcome, Observation};
use printed_netlist::{BitSimulator, NetId, NetlistError, TMR_ERROR_PORT};

const LANES: usize = BitSimulator::LANES;

/// Word-wide co-simulated core: one lane per fault instance.
pub(crate) struct BitMachine<'a> {
    sim: BitSimulator<'a>,
    program: Vec<u64>,
    /// Data memory as lane words: `dmem[addr * width + bit]` holds bit
    /// `bit` of word `addr` for every lane.
    dmem: Vec<u64>,
    dmem_words: usize,
    /// Data width in bits (the dmem word stride).
    width: usize,
    /// Flag-register bit order, for decoding a lane's flags.
    flags: Vec<u8>,
    /// Lanes that have hit the halt idiom.
    halted: u64,
    ports: BitPorts<'a>,
    detect: Option<&'a [NetId]>,
}

/// Memory-interface port nets resolved once (the bitsliced analogue of
/// the scalar machine's `MachinePorts`).
#[derive(Clone, Copy)]
struct BitPorts<'a> {
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

/// A resolved port, or the error the scalar machine reports for it: a
/// missing port is [`NetlistError::UnknownPort`], and a bus wider than
/// 64 bits is [`NetlistError::WidthMismatch`].
fn port<'a>(nets: Option<&'a [NetId]>, name: &str) -> Result<&'a [NetId], NetlistError> {
    let nets = nets.ok_or_else(|| NetlistError::UnknownPort(name.to_string()))?;
    if nets.len() > LANES {
        return Err(NetlistError::WidthMismatch {
            context: "bit_machine",
            left: nets.len(),
            right: 64,
        });
    }
    Ok(nets)
}

/// Calls `f(value, class)` once per distinct bus value among `lanes`,
/// where `class` is the mask of those lanes holding `value`: the lowest
/// unclassified lane's value is read out of the words, and the lanes
/// sharing it are found by AND-matching each bit word.
fn for_each_value(bus: &[u64], lanes: u64, mut f: impl FnMut(u64, u64)) {
    let mut rest = lanes;
    while rest != 0 {
        let lane = rest.trailing_zeros();
        let mut value = 0u64;
        let mut class = rest;
        for (bit, &word) in bus.iter().enumerate() {
            if word >> lane & 1 == 1 {
                value |= 1 << bit;
                class &= word;
            } else {
                class &= !word;
            }
        }
        rest &= !class;
        f(value, class);
    }
}

/// Sets the bits of `value` in the `class` lanes of `words`.
fn scatter(words: &mut [u64], value: u64, class: u64) {
    for (bit, word) in words.iter_mut().enumerate() {
        if value >> bit & 1 == 1 {
            *word |= class;
        }
    }
}

/// Lane-word offset of dmem word `addr` in a `words × width` memory,
/// `None` out of range.
fn word_base(addr: u64, words: usize, width: usize) -> Option<usize> {
    usize::try_from(addr).ok().filter(|&a| a < words).map(|a| a * width)
}

impl<'a> BitMachine<'a> {
    /// Wraps a bitsliced simulator over a generated single-cycle core.
    ///
    /// # Panics
    ///
    /// Panics if the spec is not single-cycle, like the scalar machine.
    pub(crate) fn new(
        sim: BitSimulator<'a>,
        spec: &CoreSpec,
        program: Vec<u64>,
        dmem_words: usize,
    ) -> Self {
        assert_eq!(spec.pipeline_stages, 1, "gate-level co-simulation supports single-cycle cores");
        let netlist = sim.netlist();
        let output = |name: &str| netlist.output(name).ok();
        let input = |name: &str| netlist.input(name).ok();
        let ports = BitPorts {
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
        };
        let detect = netlist.output(TMR_ERROR_PORT).ok();
        BitMachine {
            sim,
            program,
            dmem: vec![0; dmem_words * spec.datawidth],
            dmem_words,
            width: spec.datawidth,
            flags: spec.present_flags(),
            halted: 0,
            ports,
            detect,
        }
    }

    /// Pre-loads a data memory word into every lane.
    pub(crate) fn write_dmem(&mut self, addr: usize, value: u64) {
        let base = addr * self.width;
        for (bit, word) in self.dmem[base..base + self.width].iter_mut().enumerate() {
            *word = if value >> bit & 1 == 1 { u64::MAX } else { 0 };
        }
    }

    /// Drives `rdata` with the dmem words the `live` lanes address.
    fn load(&mut self, addr: &'a [NetId], rdata: &'a [NetId], live: u64) {
        let mut at = [0u64; LANES];
        self.sim.read_bus_words(addr, &mut at);
        let mut data = [0u64; LANES];
        // Data bits past the dmem width read 0, as the scalar masked
        // word does.
        let bits = rdata.len().min(self.width);
        for_each_value(&at[..addr.len()], live, |value, class| {
            if let Some(base) = word_base(value, self.dmem_words, self.width) {
                for (word, &stored) in data[..bits].iter_mut().zip(&self.dmem[base..]) {
                    *word |= class & stored;
                }
            }
        });
        self.sim.set_bus_words(rdata, &data[..rdata.len()]);
    }

    /// One clock cycle of every lane: fetch, execute, memory writeback —
    /// the word-wide mirror of the scalar machine's `step`, with
    /// writeback and halt detection suppressed for already-halted lanes.
    /// Lanes outside `live` see zero instruction and read data; nothing
    /// reads them again.
    fn cycle(&mut self) -> Result<(), NetlistError> {
        let live = self.sim.occupied() & !self.halted;
        let pc_nets = port(self.ports.pc, "pc")?;
        let instr_nets = port(self.ports.instr, "instr")?;
        let mut pc = [0u64; LANES];
        self.sim.read_bus_words(pc_nets, &mut pc);
        let pc = &pc[..pc_nets.len()];
        let mut instr = [0u64; LANES];
        for_each_value(pc, live, |value, class| {
            let word = usize::try_from(value).ok().and_then(|pc| self.program.get(pc));
            scatter(&mut instr[..instr_nets.len()], word.copied().unwrap_or(0), class);
        });
        self.sim.set_bus_words(instr_nets, &instr[..instr_nets.len()]);
        self.sim.settle();
        // Addresses are combinational on the instruction and BAR state.
        let (addr_a, addr_b) =
            (port(self.ports.addr_a, "addr_a")?, port(self.ports.addr_b, "addr_b")?);
        let rdata_a = port(self.ports.rdata_a, "rdata_a")?;
        let rdata_b = port(self.ports.rdata_b, "rdata_b")?;
        self.load(addr_a, rdata_a, live);
        self.load(addr_b, rdata_b, live);
        self.sim.settle();
        let we_nets = port(self.ports.we, "we")?;
        let wdata_nets = port(self.ports.wdata, "wdata")?;
        let wb_nets = port(self.ports.wb_addr, "wb_addr")?;
        let (mut we, mut wdata, mut wb_addr) = ([0u64; LANES], [0u64; LANES], [0u64; LANES]);
        self.sim.read_bus_words(we_nets, &mut we);
        self.sim.read_bus_words(wdata_nets, &mut wdata);
        self.sim.read_bus_words(wb_nets, &mut wb_addr);
        self.sim.step()?;
        // Live lanes whose write enable reads exactly 1: bit 0 set,
        // every higher bit clear.
        let writes = match we[..we_nets.len()].split_first() {
            Some((&low, high)) => high.iter().fold(live & low, |lanes, &word| lanes & !word),
            None => 0,
        };
        let (words, width) = (self.dmem_words, self.width);
        for_each_value(&wb_addr[..wb_nets.len()], writes, |value, class| {
            if let Some(base) = word_base(value, words, width) {
                // Bits past the wdata bus are 0, as the scalar masked
                // word is.
                for (bit, slot) in self.dmem[base..base + width].iter_mut().enumerate() {
                    let data = if bit < wdata_nets.len() { wdata[bit] } else { 0 };
                    *slot = (*slot & !class) | (data & class);
                }
            }
        });
        // Halt idiom per lane: PC unchanged by an unconditional
        // self-branch.
        let mut after = [0u64; LANES];
        self.sim.read_bus_words(pc_nets, &mut after);
        let moved =
            pc.iter().zip(&after).fold(0, |moved, (before, after)| moved | (before ^ after));
        self.halted |= live & !moved;
        Ok(())
    }

    /// Decodes one lane's raw flag-register bits exactly as the scalar
    /// machine's `flags` accessor does.
    fn decode_flags(&self, bits: u64) -> Flags {
        let mut flags = Flags::default();
        for (i, mask) in self.flags.iter().enumerate() {
            let set = bits >> i & 1 == 1;
            match *mask {
                Flags::C => flags.c = set,
                Flags::Z => flags.z = set,
                Flags::S => flags.s = set,
                Flags::V => flags.v = set,
                _ => {}
            }
        }
        flags
    }

    /// One lane's architectural observation, gathered out of the lane
    /// words: data memory, PC, flags — the same signature the scalar
    /// workload computes.
    fn capture(
        &self,
        lane: usize,
        completed: bool,
        cycles: u64,
        detected: bool,
    ) -> Result<Observation, NetlistError> {
        let pc = self.sim.read_lane(port(self.ports.pc, "pc")?, lane);
        let flags = self.sim.read_lane(port(self.ports.flags, "flags")?, lane);
        let mut signature = Vec::with_capacity(self.dmem_words + 2);
        signature.extend(
            self.dmem.chunks_exact(self.width).map(|word| lane_value(word.iter().copied(), lane)),
        );
        signature.push(pc);
        signature.push(self.decode_flags(flags).bits() as u64);
        Ok(Observation { signature, completed, cycles, detected })
    }

    /// Runs every lane to its own halt (or the shared budget/watchdog)
    /// and returns per-lane outcomes in lane order.
    pub(crate) fn observe(mut self, cycle_budget: u64) -> Result<Vec<LaneOutcome>, NetlistError> {
        let lanes = self.sim.lane_count();
        let occupied = self.sim.occupied();
        let mut outcomes: Vec<Option<LaneOutcome>> = vec![None; lanes];
        let mut detected = 0u64;
        let mut cycles = 0;
        // Lanes still running: occupied, not halted, not wedged.
        let mut active = occupied;
        while active != 0 && cycles < cycle_budget {
            match self.cycle() {
                Ok(()) => {}
                Err(NetlistError::DeadlineExceeded { .. }) => {
                    // The word hit the watchdog: retired lanes keep
                    // their observations, wedged lanes report as such,
                    // everything still live timed out together.
                    let dead = self.sim.dead_lanes();
                    for (lane, outcome) in outcomes.iter_mut().enumerate() {
                        if outcome.is_none() {
                            *outcome = Some(if dead >> lane & 1 == 1 {
                                LaneOutcome::Wedged
                            } else {
                                LaneOutcome::TimedOut
                            });
                        }
                    }
                    return Ok(outcomes
                        .into_iter()
                        .map(|o| o.unwrap_or(LaneOutcome::TimedOut))
                        .collect());
                }
                Err(e) => return Err(e),
            }
            cycles += 1;
            if let Some(nets) = self.detect {
                detected |= self.sim.read_bus_any(nets) & active;
            }
            let newly_dead = self.sim.dead_lanes() & active;
            let newly_halted = self.halted & active & !newly_dead;
            if newly_dead | newly_halted != 0 {
                for (lane, outcome) in outcomes.iter_mut().enumerate() {
                    if newly_dead >> lane & 1 == 1 {
                        *outcome = Some(LaneOutcome::Wedged);
                    } else if newly_halted >> lane & 1 == 1 {
                        let detected = detected >> lane & 1 == 1;
                        *outcome =
                            Some(LaneOutcome::Done(self.capture(lane, true, cycles, detected)?));
                    }
                }
                active &= !(newly_dead | newly_halted);
            }
        }
        // Budget exhausted: live lanes report their state as-is, not
        // completed — exactly the scalar workload's budget path.
        for (lane, outcome) in outcomes.iter_mut().enumerate() {
            if active >> lane & 1 == 1 {
                let detected = detected >> lane & 1 == 1;
                *outcome = Some(LaneOutcome::Done(self.capture(lane, false, cycles, detected)?));
            }
        }
        Ok(outcomes.into_iter().map(|o| o.unwrap_or(LaneOutcome::TimedOut)).collect())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::generator::generate_standard;
    use printed_netlist::fault::{Fault, FaultKind};
    use printed_netlist::GateId;

    /// A retired lane's memory is frozen: later word cycles keep
    /// clocking its gates, but its writebacks are dropped — even with
    /// its write enable stuck at 1 — while the live lane keeps writing.
    #[test]
    fn halted_lanes_write_nothing() {
        let config = CoreConfig::new(1, 8, 2);
        let netlist = generate_standard(&config);
        let spec = CoreSpec::standard(config);
        let program = crate::asm::assemble("loop:\nADD [0], [1]\nJMP loop\n").unwrap();
        let enc = config.encoding();
        let words = program.instructions.iter().map(|&i| enc.encode(i).unwrap() as u64).collect();
        let we = netlist.output("we").unwrap()[0];
        let we_gate = netlist.gates().iter().position(|g| g.output == we).unwrap();
        let mut sim = BitSimulator::new(&netlist);
        sim.inject_fault(Fault { gate: GateId::from_index(we_gate), kind: FaultKind::StuckAt1 });
        let mut machine = BitMachine::new(sim, &spec, words, 4);
        for addr in 0..4 {
            machine.write_dmem(addr, 0x5A);
        }
        machine.halted = 0b10;
        for _ in 0..6 {
            machine.cycle().unwrap();
        }
        let word = |addr: usize, lane| {
            let width = machine.width;
            lane_value(machine.dmem[addr * width..(addr + 1) * width].iter().copied(), lane)
        };
        assert_eq!(word(0, 0), (0x5A * 4) & 0xFF, "the live lane adds once per loop iteration");
        for addr in 0..4 {
            assert_eq!(word(addr, 1), 0x5A, "the halted lane writes nothing (word {addr})");
        }
    }
}
