//! Bitsliced gate-level co-simulation: 64 cores per word.
//!
//! [`BitMachine`] is the word-wide counterpart of
//! [`crate::generator::GateLevelMachine`]: one
//! [`printed_netlist::BitSimulator`] carries up to 64 lanes of the same
//! core netlist, and each lane follows the co-simulation protocol of
//! [`crate::cosim`]. The software side stays word-wide too, so no cycle
//! transposes a bus into 64 per-lane values.
//!
//! Every lane runs one of the word's programs; a program is a lane
//! mask, an encoded ROM and a data-memory size. The two users differ
//! only in how they fill the word:
//!
//! - a fault campaign ([`crate::workload::ProgramWorkload`]) runs one
//!   program on every lane: lane 0 fault-free as the golden reference,
//!   lanes 1.. with faults pre-injected;
//! - [`LockstepWord`] runs up to 64 programs fault-free, one per lane,
//!   so the ISS-vs-gate-level check clocks every kernel in one word.
//!   Lane 0 is golden only in a campaign.
//!
//! How the protocol's rules run over lane words:
//!
//! - data memory is stored as lane words, `dmem[addr * width + bit]`,
//!   sized for the largest program; each lane's memory is its own
//!   program's size, so an address past a small program's memory reads
//!   0 and drops its write in that program's lanes while a larger
//!   program's lanes use it;
//! - the ROM fetch runs once per distinct (program, pc) value among the
//!   live lanes, the data-memory reads and the writeback once per
//!   distinct address, and the write-enable rule once per distinct
//!   enable value. A value class is found by reading the lowest
//!   unclassified lane's value and AND-matching it against the bus
//!   words, so a cycle costs O(distinct values × bus width) word
//!   operations — and faulty lanes mostly follow the golden lane's pc
//!   and addresses. A one-program word runs exactly one fetch loop;
//! - halt detection is one XOR per pc bit: the lanes whose pc words did
//!   not move.
//!
//! Per-lane outcomes in a campaign mirror the scalar
//! [`crate::GateLevelMachine::observe`]:
//!
//! - a halted lane's observation is gathered out of the lane words at
//!   that moment and the lane is retired — later word cycles keep
//!   clocking its gates, but nothing reads them again;
//! - a lane that oscillates (the bitsliced analogue of
//!   [`printed_netlist::NetlistError::Unsettled`]) becomes
//!   [`LaneOutcome::Wedged`];
//! - a lane still live when its cycle budget runs out reports its state
//!   as-is, not completed — the scalar machine's budget path. Lane 0
//!   runs under the campaign's budget, the faulty lanes under
//!   [`printed_netlist::fault::faulty_budget`] of the cycle lane 0
//!   ended on.

use crate::config::CoreConfig;
use crate::cosim::{self, PortMap};
use crate::isa::Flags;
use crate::kernels::KernelProgram;
use crate::specific::{CoreSpec, NarrowEncoding};
use printed_netlist::bitsim::lane_value;
use printed_netlist::fault::{faulty_budget, LaneOutcome, Observation};
use printed_netlist::{BitSimulator, NetId, Netlist, NetlistError};

const LANES: usize = BitSimulator::LANES;

/// One program of a word: the lanes running it, its encoded instruction
/// ROM, and its data-memory size.
pub(crate) struct LaneProgram {
    pub(crate) lanes: u64,
    pub(crate) rom: Vec<u64>,
    pub(crate) dmem_words: usize,
}

/// Word-wide co-simulated core: one lane per core instance, each
/// running one of the word's programs.
pub(crate) struct BitMachine<'a> {
    sim: BitSimulator<'a>,
    ports: PortMap<'a>,
    programs: Vec<LaneProgram>,
    /// Data memory as lane words: `dmem[addr * width + bit]` holds bit
    /// `bit` of word `addr` for every lane, sized for the largest
    /// program.
    dmem: Vec<u64>,
    /// Per dmem word, the lanes whose program has it in range.
    in_range: Vec<u64>,
    /// Lanes that have hit the halt idiom (or were retired).
    halted: u64,
    /// The dmem words the last cycle wrote, each with its writing lanes.
    writes: Vec<(usize, u64)>,
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

/// Dmem word `addr` and the lanes of `class` whose program has it in
/// range; `None` when no such lane does.
fn locate(in_range: &[u64], addr: u64, class: u64) -> Option<(usize, u64)> {
    let addr = cosim::word_at(addr, in_range.len())?;
    let class = class & in_range[addr];
    (class != 0).then_some((addr, class))
}

impl<'a> BitMachine<'a> {
    /// Wraps a bitsliced simulator over a generated single-cycle core;
    /// each lane runs the program whose mask holds it.
    ///
    /// # Errors
    ///
    /// As [`PortMap::resolve`], exactly as the scalar machine reports it.
    ///
    /// # Panics
    ///
    /// Panics if the spec is not single-cycle, like the scalar machine.
    pub(crate) fn new(
        sim: BitSimulator<'a>,
        spec: &CoreSpec,
        programs: Vec<LaneProgram>,
    ) -> Result<Self, NetlistError> {
        let ports = PortMap::resolve(sim.netlist(), spec)?;
        let words = programs.iter().map(|p| p.dmem_words).max().unwrap_or(0);
        let in_range = (0..words)
            .map(|addr| {
                programs.iter().filter(|p| addr < p.dmem_words).fold(0, |lanes, p| lanes | p.lanes)
            })
            .collect();
        Ok(BitMachine {
            sim,
            ports,
            programs,
            dmem: vec![0; words * ports.width],
            in_range,
            halted: 0,
            writes: Vec::new(),
        })
    }

    /// Pre-loads a data memory word into `lanes`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is past the largest program's memory.
    pub(crate) fn write_dmem(&mut self, lanes: u64, addr: usize, value: u64) {
        let width = self.ports.width;
        for (bit, word) in self.dmem[addr * width..][..width].iter_mut().enumerate() {
            *word = *word & !lanes | if value >> bit & 1 == 1 { lanes } else { 0 };
        }
    }

    /// Drives `rdata` with the dmem words the `live` lanes address.
    fn load(&mut self, addr: &[NetId], rdata: &[NetId], live: u64) {
        let width = self.ports.width;
        let mut at = [0u64; LANES];
        self.sim.read_bus_words(addr, &mut at);
        let mut data = [0u64; LANES];
        // Data bits past the dmem width read 0, as the scalar masked
        // word does.
        let bits = rdata.len().min(width);
        for_each_value(&at[..addr.len()], live, |value, class| {
            if let Some((addr, class)) = locate(&self.in_range, value, class) {
                let stored = &self.dmem[addr * width..];
                for (word, &stored) in data[..bits].iter_mut().zip(stored) {
                    *word |= class & stored;
                }
            }
        });
        self.sim.set_bus_words(rdata, &data[..rdata.len()]);
    }

    /// One clock cycle of every lane, in the phases of [`crate::cosim`],
    /// each rule run once per value class. Lanes outside `live` (halted
    /// or retired) see zero instruction and read data and write nothing.
    fn cycle(&mut self) {
        let live = self.sim.occupied() & !self.halted;
        let ports = self.ports;
        let mut pc = [0u64; LANES];
        self.sim.read_bus_words(ports.pc, &mut pc);
        let pc = &pc[..ports.pc.len()];
        let mut instr = [0u64; LANES];
        let instr = &mut instr[..ports.instr.len()];
        for program in &self.programs {
            for_each_value(pc, live & program.lanes, |value, class| {
                scatter(instr, cosim::fetch(&program.rom, value), class);
            });
        }
        self.sim.set_bus_words(ports.instr, instr);
        self.sim.settle();
        self.load(ports.addr_a, ports.rdata_a, live);
        self.load(ports.addr_b, ports.rdata_b, live);
        self.sim.settle();
        let (mut we, mut wdata, mut wb_addr) = ([0u64; LANES], [0u64; LANES], [0u64; LANES]);
        self.sim.read_bus_words(ports.we, &mut we);
        self.sim.read_bus_words(ports.wdata, &mut wdata);
        self.sim.read_bus_words(ports.wb_addr, &mut wb_addr);
        self.sim.step();
        let mut writing = 0;
        for_each_value(&we[..ports.we.len()], live, |value, class| {
            if cosim::writes(value) {
                writing |= class;
            }
        });
        let (in_range, width) = (&self.in_range, ports.width);
        let (dmem, writes) = (&mut self.dmem, &mut self.writes);
        writes.clear();
        for_each_value(&wb_addr[..ports.wb_addr.len()], writing, |value, class| {
            if let Some((addr, class)) = locate(in_range, value, class) {
                // Bits past the wdata bus are 0, as the scalar masked
                // word is.
                for (bit, slot) in dmem[addr * width..][..width].iter_mut().enumerate() {
                    let data = if bit < ports.wdata.len() { wdata[bit] } else { 0 };
                    *slot = (*slot & !class) | (data & class);
                }
                writes.push((addr, class));
            }
        });
        let mut after = [0u64; LANES];
        self.sim.read_bus_words(ports.pc, &mut after);
        let moved =
            pc.iter().zip(&after).fold(0, |moved, (before, after)| moved | (before ^ after));
        self.halted |= live & !moved;
    }

    /// One lane's dmem word `addr`, `None` past its program's memory.
    fn dmem_word(&self, lane: usize, addr: usize) -> Option<u64> {
        (self.in_range.get(addr)? >> lane & 1 == 1).then(|| {
            let width = self.ports.width;
            lane_value(self.dmem[addr * width..][..width].iter().copied(), lane)
        })
    }

    /// One lane's architectural observation, gathered out of the lane
    /// words: the signature of [`crate::cosim`], as the scalar machine's
    /// `observe` signs it.
    fn capture(&self, lane: usize, completed: bool, cycles: u64, detected: bool) -> Observation {
        // The words in range for a lane all come first.
        let words = self.in_range.iter().take_while(|&&lanes| lanes >> lane & 1 == 1).count();
        let width = self.ports.width;
        let dmem = self.dmem[..words * width]
            .chunks_exact(width)
            .map(|word| lane_value(word.iter().copied(), lane));
        let pc = self.sim.read_lane(self.ports.pc, lane);
        let signature = self.ports.signature(dmem, pc, self.sim.read_lane(self.ports.flags, lane));
        Observation { signature, completed, cycles, detected }
    }

    /// Runs every lane to its own halt or budget and returns per-lane
    /// outcomes in lane order. Lane 0, the golden lane, runs under
    /// `cycle_budget`; once it ends on cycle `g`, the faulty lanes still
    /// running stop at [`faulty_budget`]`(cycle_budget, g)`, the budget
    /// the scalar fallback gives a faulty run.
    pub(crate) fn observe(mut self, cycle_budget: u64) -> Vec<LaneOutcome> {
        let lanes = self.sim.lane_count();
        let occupied = self.sim.occupied();
        let mut outcomes: Vec<Option<LaneOutcome>> = vec![None; lanes];
        let mut detected = 0u64;
        let mut cycles = 0;
        // Lanes still running: occupied, not halted, not wedged.
        let mut active = occupied;
        let mut limit = cycle_budget;
        while active != 0 && cycles < limit {
            self.cycle();
            cycles += 1;
            if let Some(nets) = self.ports.detect {
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
                            Some(LaneOutcome::Done(self.capture(lane, true, cycles, detected)));
                    }
                }
                active &= !(newly_dead | newly_halted);
                if (newly_dead | newly_halted) & 1 == 1 {
                    limit = faulty_budget(cycle_budget, cycles);
                }
            }
        }
        // Budget exhausted: live lanes report their state as-is, not
        // completed — exactly the scalar machine's budget path.
        for (lane, outcome) in outcomes.iter_mut().enumerate() {
            if active >> lane & 1 == 1 {
                let detected = detected >> lane & 1 == 1;
                *outcome = Some(LaneOutcome::Done(self.capture(lane, false, cycles, detected)));
            }
        }
        // Every occupied lane ended one of the three ways above.
        outcomes.into_iter().flatten().collect()
    }
}

/// A word of fault-free gate-level cores for ISS-vs-gate-level
/// lockstep: lane `i` runs `programs[i]` on one core netlist, and every
/// [`LockstepWord::step`] clocks all of them at once.
///
/// It is the word-wide counterpart of one
/// [`crate::generator::GateLevelMachine`] per program, and each lane
/// follows the protocol of [`crate::cosim`], with an address past the
/// lane's own program memory reading 0 and dropping its write. A halted
/// or [retired](LockstepWord::retire) lane stops fetching and writing,
/// but its gates keep clocking with the word, so its pc and flags mean
/// something only up to the step it stopped.
///
/// ```
/// use printed_core::kernels::{self, Kernel};
/// use printed_core::{generate_standard, CoreConfig, LockstepWord};
///
/// let config = CoreConfig::new(1, 8, 2);
/// let netlist = generate_standard(&config);
/// let programs = [
///     kernels::generate(Kernel::Mult, 8, 8).map_err(|e| e.to_string())?,
///     kernels::generate(Kernel::Div, 8, 8).map_err(|e| e.to_string())?,
/// ];
/// let mut word = LockstepWord::new(&netlist, config, &programs).map_err(|e| e.to_string())?;
/// while word.halted() != word.lanes() {
///     word.step();
/// }
/// for (lane, program) in programs.iter().enumerate() {
///     let (base, len) = program.result;
///     for (i, &expected) in program.expected.iter().enumerate().take(len) {
///         assert_eq!(word.dmem_word(lane, usize::from(base) + i), Some(expected));
///     }
/// }
/// # Ok::<(), String>(())
/// ```
pub struct LockstepWord<'a> {
    machine: BitMachine<'a>,
    /// Lanes holding a program.
    lanes: u64,
}

impl<'a> LockstepWord<'a> {
    /// Programs one word runs, one per lane.
    pub const MAX_PROGRAMS: usize = LANES;

    /// A word over `netlist` (`config`'s standard core, as
    /// [`crate::generate_standard`] builds it) running `programs[i]` in
    /// lane `i`, each program's inputs loaded into its own lane. A
    /// program that does not encode for `config` holds no lane: its bit
    /// stays clear in [`LockstepWord::lanes`], and the lane never runs.
    ///
    /// # Errors
    ///
    /// [`NetlistError::UnknownPort`] or [`NetlistError::WidthMismatch`]
    /// if the netlist lacks a memory-interface port of [`crate::cosim`]
    /// or has one wider than 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`LockstepWord::MAX_PROGRAMS`]
    /// programs, the config is not single-cycle, or an input lies past
    /// its program's data memory.
    pub fn new(
        netlist: &'a Netlist,
        config: CoreConfig,
        programs: &[KernelProgram],
    ) -> Result<Self, NetlistError> {
        assert!(
            programs.len() <= LANES,
            "a word runs at most {LANES} programs, not {}",
            programs.len()
        );
        let spec = CoreSpec::standard(config);
        let encoding = NarrowEncoding::new(spec.clone());
        let lane_programs: Vec<LaneProgram> = programs
            .iter()
            .enumerate()
            .filter_map(|(lane, program)| {
                let rom = encoding.encode_program(&program.instructions).ok()?;
                Some(LaneProgram { lanes: 1 << lane, rom, dmem_words: program.dmem_words })
            })
            .collect();
        let lanes = lane_programs.iter().fold(0, |lanes, p| lanes | p.lanes);
        let mut sim = BitSimulator::new(netlist);
        sim.occupy_lanes(programs.len());
        let mut machine = BitMachine::new(sim, &spec, lane_programs)?;
        // Lanes without a program never fetch.
        machine.halted = !lanes;
        for (lane, program) in programs.iter().enumerate() {
            for &(addr, value) in &program.inputs {
                let addr = usize::from(addr);
                assert!(addr < program.dmem_words, "input word {addr} lies past {}", program.name);
                if lanes >> lane & 1 == 1 {
                    machine.write_dmem(1 << lane, addr, value);
                }
            }
        }
        Ok(LockstepWord { machine, lanes })
    }

    /// The lanes holding a program: bit `i` for `programs[i]`.
    pub fn lanes(&self) -> u64 {
        self.lanes
    }

    /// Clocks every lane once; the lanes that are neither halted nor
    /// retired fetch, read and write back, as one
    /// [`crate::generator::GateLevelMachine::step`] each. A lane whose
    /// logic oscillates shows in [`LockstepWord::dead`] instead of
    /// failing the word.
    pub fn step(&mut self) {
        self.machine.cycle();
    }

    /// Stops `lanes` fetching, reading and writing from the next step
    /// on; they read as halted from then on.
    pub fn retire(&mut self, lanes: u64) {
        self.machine.halted |= lanes & self.lanes;
    }

    /// Lanes that hit the halt idiom, and lanes retired by
    /// [`LockstepWord::retire`].
    pub fn halted(&self) -> u64 {
        self.machine.halted & self.lanes
    }

    /// Lanes whose logic oscillated (the scalar machine's
    /// [`NetlistError::Unsettled`], per lane).
    pub fn dead(&self) -> u64 {
        self.machine.sim.dead_lanes() & self.lanes
    }

    /// `lane`'s program counter.
    pub fn pc(&self, lane: usize) -> u64 {
        self.machine.sim.read_lane(self.machine.ports.pc, lane)
    }

    /// `lane`'s flags, decoded as
    /// [`crate::generator::GateLevelMachine::flags`] decodes them.
    pub fn flags(&self, lane: usize) -> Flags {
        let ports = &self.machine.ports;
        ports.flags(self.machine.sim.read_lane(ports.flags, lane))
    }

    /// `lane`'s data-memory word `addr`, `None` past its program's
    /// memory.
    pub fn dmem_word(&self, lane: usize, addr: usize) -> Option<u64> {
        self.machine.dmem_word(lane, addr)
    }

    /// The data-memory words the last step wrote, each with the mask of
    /// lanes that wrote it. Writes past a lane's memory are dropped and
    /// not listed.
    pub fn writes(&self) -> &[(usize, u64)] {
        &self.machine.writes
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::generator::generate_standard;
    use crate::kernels::Kernel;
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
        let words =
            NarrowEncoding::new(spec.clone()).encode_program(&program.instructions).unwrap();
        let we = netlist.output(cosim::WE).unwrap()[0];
        let we_gate = netlist.gates().iter().position(|g| g.output == we).unwrap();
        let mut sim = BitSimulator::new(&netlist);
        sim.inject_fault(Fault { gate: GateId::from_index(we_gate), kind: FaultKind::StuckAt1 });
        let program = LaneProgram { lanes: u64::MAX, rom: words, dmem_words: 4 };
        let mut machine = BitMachine::new(sim, &spec, vec![program]).unwrap();
        for addr in 0..4 {
            machine.write_dmem(u64::MAX, addr, 0x5A);
        }
        machine.halted = 0b10;
        for _ in 0..6 {
            machine.cycle();
        }
        let word = |addr: usize, lane| {
            let width = machine.ports.width;
            lane_value(machine.dmem[addr * width..(addr + 1) * width].iter().copied(), lane)
        };
        assert_eq!(word(0, 0), (0x5A * 4) & 0xFF, "the live lane adds once per loop iteration");
        for addr in 0..4 {
            assert_eq!(word(addr, 1), 0x5A, "the halted lane writes nothing (word {addr})");
        }
    }

    /// Each lane's memory is its own program's size: in a word mixing an
    /// 8-word and a 16-word program, word 10 reads 0 and drops its write
    /// in the 8-word program's lanes only. A word-wide bound (the
    /// largest program's) would let the small lanes store 5 and add it.
    #[test]
    fn each_lane_is_bounded_by_its_own_program_memory() {
        let config = CoreConfig::new(1, 8, 2);
        let netlist = generate_standard(&config);
        let asm = crate::asm::assemble("STORE [10], #5\nADD [0], [10]\nHALT\n").unwrap();
        let program = |dmem_words| KernelProgram {
            name: format!("bound{dmem_words}"),
            kernel: Kernel::Mult,
            core_width: 8,
            data_width: 8,
            instructions: asm.instructions.clone(),
            dmem_words,
            inputs: vec![(0, 7)],
            result: (0, 1),
            expected: Vec::new(),
        };
        let programs = [program(8), program(16), program(8), program(16)];
        let mut word = LockstepWord::new(&netlist, config, &programs).unwrap();
        while word.halted() != word.lanes() {
            word.step();
        }
        let stored = |lane| lane_value(word.machine.dmem[10 * 8..11 * 8].iter().copied(), lane);
        for lane in [0, 2] {
            assert_eq!(word.dmem_word(lane, 0), Some(7), "word 10 reads 0 in lane {lane}");
            assert_eq!(word.dmem_word(lane, 10), None, "word 10 is past lane {lane}'s memory");
            assert_eq!(stored(lane), 0, "lane {lane} drops its write to word 10");
        }
        for lane in [1, 3] {
            assert_eq!(word.dmem_word(lane, 0), Some(12), "lane {lane} adds the stored 5");
            assert_eq!(word.dmem_word(lane, 10), Some(5), "lane {lane} stores word 10");
        }
    }
}
