//! The gate-level co-simulation protocol: how a generated core talks to
//! its software instruction ROM and data memory.
//!
//! [`crate::generate`] names the memory-interface ports with the
//! constants below, and both co-simulating machines — the scalar
//! [`crate::GateLevelMachine`] and the word-wide bitsliced machine
//! behind [`crate::LockstepWord`] and fault campaigns — drive them by the
//! same rules. A machine resolves the ports once, when it is built, and
//! then runs the same phases every cycle, each with its own bus access
//! (one `u64`, or value classes over 64 lane words):
//!
//! 1. **Fetch.** Drive [`INSTR`] with the ROM word at [`PC`]; a pc past
//!    the ROM fetches 0. Settle.
//! 2. **Read.** Drive [`RDATA_A`] and [`RDATA_B`] with the data-memory
//!    words at [`ADDR_A`] and [`ADDR_B`]; an address past the data memory
//!    reads 0. Settle.
//! 3. **Clock.** Sample [`WE`], [`WDATA`] and [`WB_ADDR`], then clock the
//!    core.
//! 4. **Write back.** A write needs [`WE`] to read exactly 1; it stores
//!    [`WDATA`] masked to the datawidth at [`WB_ADDR`], and an address
//!    past the data memory drops it.
//! 5. **Halt.** A core whose pc did not move in the cycle has hit the
//!    halt idiom (an unconditional self-branch). A halted core fetches,
//!    reads and writes nothing more.
//!
//! The optional TMR detect port ([`TMR_ERROR_PORT`]) is ORed into a
//! run's `detected` bit after every cycle. A run's architectural
//! signature is the data memory, then the pc, then the flags: any
//! difference from the golden run's is data corruption.

use crate::isa::Flags;
use crate::specific::CoreSpec;
use printed_netlist::{NetId, Netlist, NetlistError, TMR_ERROR_PORT};

/// Input: the instruction word the ROM returns for [`PC`].
pub const INSTR: &str = "instr";
/// Input: the data-memory word at [`ADDR_A`] (operand 1).
pub const RDATA_A: &str = "rdata_a";
/// Input: the data-memory word at [`ADDR_B`] (operand 2).
pub const RDATA_B: &str = "rdata_b";
/// Output: the program counter, the instruction ROM address.
pub const PC: &str = "pc";
/// Output: the data-memory address of operand 1.
pub const ADDR_A: &str = "addr_a";
/// Output: the data-memory address of operand 2.
pub const ADDR_B: &str = "addr_b";
/// Output: the data-memory address a write goes to.
pub const WB_ADDR: &str = "wb_addr";
/// Output: the data a write stores.
pub const WDATA: &str = "wdata";
/// Output: the write enable; a write happens when it reads exactly 1.
pub const WE: &str = "we";
/// Output: the flag register, the spec's flags in C, Z, S, V order.
pub const FLAGS: &str = "flags";

/// A core's memory-interface port nets, resolved once per machine, with
/// the spec's datawidth and flags.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortMap<'a> {
    pub(crate) instr: &'a [NetId],
    pub(crate) rdata_a: &'a [NetId],
    pub(crate) rdata_b: &'a [NetId],
    pub(crate) pc: &'a [NetId],
    pub(crate) addr_a: &'a [NetId],
    pub(crate) addr_b: &'a [NetId],
    pub(crate) wb_addr: &'a [NetId],
    pub(crate) wdata: &'a [NetId],
    pub(crate) we: &'a [NetId],
    pub(crate) flags: &'a [NetId],
    /// The TMR detect port, on hardened cores only.
    pub(crate) detect: Option<&'a [NetId]>,
    /// Bits in a data-memory word.
    pub(crate) width: usize,
    /// The flags present in the spec (a mask over [`Flags`] bits).
    flags_mask: u8,
}

impl<'a> PortMap<'a> {
    /// Resolves the memory interface of `netlist`, a core generated for
    /// `spec`: [`NetlistError::UnknownPort`] for the first missing port
    /// (in the order above), [`NetlistError::WidthMismatch`] for one
    /// wider than 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if the spec is not single-cycle (multi-stage cores are
    /// characterization-only).
    pub(crate) fn resolve(netlist: &'a Netlist, spec: &CoreSpec) -> Result<Self, NetlistError> {
        assert_eq!(spec.pipeline_stages, 1, "gate-level co-simulation supports single-cycle cores");
        let fits = |nets: &'a [NetId]| match nets.len() {
            left @ 65.. => Err(NetlistError::WidthMismatch { context: "cosim", left, right: 64 }),
            _ => Ok(nets),
        };
        let input = |name| netlist.input(name).and_then(fits);
        let output = |name| netlist.output(name).and_then(fits);
        Ok(PortMap {
            instr: input(INSTR)?,
            rdata_a: input(RDATA_A)?,
            rdata_b: input(RDATA_B)?,
            pc: output(PC)?,
            addr_a: output(ADDR_A)?,
            addr_b: output(ADDR_B)?,
            wb_addr: output(WB_ADDR)?,
            wdata: output(WDATA)?,
            we: output(WE)?,
            flags: output(FLAGS)?,
            detect: netlist.output(TMR_ERROR_PORT).ok().map(fits).transpose()?,
            width: spec.datawidth,
            flags_mask: spec.flags_mask,
        })
    }

    /// Masks a written word to the datawidth.
    pub(crate) fn mask(&self, value: u64) -> u64 {
        value & (u64::MAX >> (64 - self.width))
    }

    /// Unpacks the flag register's bits: the spec's flags, in C, Z, S,
    /// V order, back at their [`Flags`] positions.
    pub(crate) fn flags(&self, bits: u64) -> Flags {
        let present = [Flags::C, Flags::Z, Flags::S, Flags::V].into_iter();
        let present = present.filter(|&mask| self.flags_mask & mask != 0);
        let set = present.enumerate().filter(|&(i, _)| bits >> i & 1 == 1);
        Flags::from_bits(set.fold(0, |packed, (_, mask)| packed | mask))
    }

    /// A run's architectural signature: the data memory, the pc, then
    /// the flag register's bits as [`PortMap::flags`] unpacks them.
    pub(crate) fn signature(
        &self,
        dmem: impl Iterator<Item = u64>,
        pc: u64,
        bits: u64,
    ) -> Vec<u64> {
        dmem.chain([pc, u64::from(self.flags(bits).bits())]).collect()
    }
}

/// The ROM word at `pc`; a pc past the ROM fetches 0.
pub(crate) fn fetch(rom: &[u64], pc: u64) -> u64 {
    usize::try_from(pc).ok().and_then(|pc| rom.get(pc)).copied().unwrap_or(0)
}

/// The word `addr` names in a data memory of `words` words; `None` past
/// it, where a read returns 0 and a write is dropped.
pub(crate) fn word_at(addr: u64, words: usize) -> Option<usize> {
    usize::try_from(addr).ok().filter(|&addr| addr < words)
}

/// Whether a write enable value writes: it must read exactly 1.
pub(crate) fn writes(we: u64) -> bool {
    we == 1
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::bitmachine::{BitMachine, LaneProgram};
    use crate::config::CoreConfig;
    use crate::generator::{generate_standard, GateLevelMachine};
    use printed_netlist::{BitSimulator, NetlistBuilder};

    /// `spec`'s core with one port rebuilt: `drop` is left out, and
    /// `widen` gets 65 bits.
    fn core_without(spec: &CoreSpec, drop: Option<&str>, widen: Option<&str>) -> Netlist {
        let core = crate::generate(spec);
        let mut b = NetlistBuilder::new("cosim_ports");
        let zero = b.const0();
        let width = |name: &str, nets: &[NetId]| if Some(name) == widen { 65 } else { nets.len() };
        for (name, nets) in core.input_ports() {
            if Some(name.as_str()) != drop {
                b.input(name.clone(), width(name, nets));
            }
        }
        for (name, nets) in core.output_ports() {
            if Some(name.as_str()) != drop {
                b.output(name.clone(), vec![zero; width(name, nets)]);
            }
        }
        b.finish().unwrap()
    }

    /// Both machines report a netlist without the core's interface by
    /// the same typed error, at construction and without a panic.
    #[test]
    fn both_machines_reject_a_broken_interface_alike() {
        let spec = CoreSpec::standard(CoreConfig::new(1, 8, 2));
        let wide = NetlistError::WidthMismatch { context: "cosim", left: 65, right: 64 };
        for (netlist, expected) in [
            (core_without(&spec, Some(WB_ADDR), None), NetlistError::UnknownPort(WB_ADDR.into())),
            (core_without(&spec, None, Some(WDATA)), wide.clone()),
            (core_without(&spec, None, Some(RDATA_B)), wide),
        ] {
            let scalar = GateLevelMachine::new(&netlist, spec.clone(), vec![0], 4).unwrap_err();
            let program = LaneProgram { lanes: 1, rom: vec![0], dmem_words: 4 };
            let word = BitMachine::new(BitSimulator::new(&netlist), &spec, vec![program]);
            assert_eq!(scalar, expected);
            assert_eq!(word.err(), Some(expected));
        }
        // The generated core itself resolves.
        let netlist = generate_standard(&CoreConfig::new(1, 8, 2));
        assert!(PortMap::resolve(&netlist, &spec).is_ok_and(|ports| ports.detect.is_none()));
    }

    #[test]
    fn flags_unpack_only_the_specs_flags() {
        let netlist = generate_standard(&CoreConfig::new(1, 8, 2));
        let mut spec = CoreSpec::standard(CoreConfig::new(1, 8, 2));
        let all = PortMap::resolve(&netlist, &spec).unwrap();
        assert_eq!(all.flags(0b1010), Flags::from_bits(0b1010));
        spec.flags_mask = Flags::Z | Flags::V;
        let zv = PortMap::resolve(&netlist, &spec).unwrap();
        assert_eq!(zv.flags(0b01), Flags::from_bits(Flags::Z));
        assert_eq!(zv.flags(0b10), Flags::from_bits(Flags::V));
        assert_eq!(
            zv.signature([7, 9].into_iter(), 3, 0b11),
            vec![7, 9, 3, u64::from(Flags::Z | Flags::V)]
        );
    }

    #[test]
    fn the_per_cycle_rules() {
        assert_eq!(fetch(&[5, 6], 1), 6);
        assert_eq!(fetch(&[5, 6], 2), 0, "a pc past the ROM fetches 0");
        assert_eq!(fetch(&[5, 6], u64::MAX), 0);
        assert!(writes(1));
        assert!(!writes(0) && !writes(3), "a write needs we == 1 exactly");
        assert_eq!(word_at(3, 4), Some(3));
        assert_eq!(word_at(4, 4), None, "an address past the data memory");
        assert_eq!(word_at(u64::MAX, 4), None);
        let netlist = generate_standard(&CoreConfig::new(1, 4, 2));
        let ports = PortMap::resolve(&netlist, &CoreSpec::standard(CoreConfig::new(1, 4, 2)));
        assert_eq!(ports.unwrap().mask(0x1F5), 0x5);
    }
}
