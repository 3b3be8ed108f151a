//! # printed-core
//!
//! The primary contribution of *Printed Microprocessors* (ISCA 2020):
//! TP-ISA — the Tiny Printed ISA — and its core design space.
//!
//! - [`isa`]: the instruction set of Figure 6 (encoding, decoding,
//!   reference semantics),
//! - [`asm`]: a two-pass assembler for writing kernels,
//! - [`config`]: the Section 5.2 design-space axes (pipeline depth,
//!   datawidth, BAR count),
//! - [`sim`]: the cycle-accounting instruction-set simulator,
//! - [`generator`]: gate-level core generation over the printed standard
//!   cell libraries (the stand-in for Verilog + Design Compiler),
//! - [`cosim`]: the protocol by which a generated core is co-simulated
//!   with a software instruction ROM and data memory,
//! - [`specific`]: the Section 7 program-specific ISA analysis and
//!   narrowed instruction encodings.
//!
//! ```
//! use printed_core::{asm::assemble, CoreConfig, Machine};
//!
//! let prog = assemble("
//!     STORE [0], #41
//!     STORE [1], #1
//!     ADD   [0], [1]
//!     HALT
//! ").map_err(|e| e.to_string())?;
//! let mut m = Machine::new(CoreConfig::default(), prog.instructions, 16);
//! m.run(1000).map_err(|e| e.to_string())?;
//! assert_eq!(m.dmem().read(0).unwrap(), 42);
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod asm;
mod bitmachine;
pub mod config;
pub mod cosim;
pub mod generator;
pub mod isa;
pub mod kernels;
pub mod sim;
pub mod specific;
pub mod workload;

pub use bitmachine::LockstepWord;
pub use config::CoreConfig;
pub use generator::{
    generate, generate_checked, generate_linted, generate_standard, GateLevelMachine, LintedCore,
};
pub use isa::{AluOp, Encoding, Flags, Instruction, IsaError, Operand};
pub use sim::{ExecError, Machine, RunSummary, StepOutcome};
pub use specific::{analyze, CoreSpec, NarrowEncoding, ProgramAnalysis};
pub use workload::ProgramWorkload;
