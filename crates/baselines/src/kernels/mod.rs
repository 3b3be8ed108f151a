//! Benchmark kernels for the baseline CPUs (Table 5 / Section 8).
//!
//! Each benchmark is hand-written for each baseline ISA (the paper used
//! sdcc for Z80/light8080, msp430-gcc, and zpu-gcc; we write equivalent
//! assembly directly, which is smaller than compiled code — the Table 5
//! *ratios* across ISAs are what carry over). The Z80 and light8080 share
//! the same 8080-subset images, exactly as Table 5's identical footprints
//! indicate.
//!
//! Benchmark widths follow Section 8's baseline discussion: 8-bit
//! multiply/divide/CRC8/decision-tree, 16-bit inSort/intAvg/tHold.
//!
//! Every generated program is run against a golden model in the tests; a
//! kernel that produces a wrong result is a bug, not a benchmark.

pub mod k8080;
pub mod kmsp430;
pub mod kz80opt;
pub mod kzpu;

use crate::inventory::BaselineCpu;
use std::fmt;

/// The seven benchmarks (named as in the paper's tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Bench {
    /// 8-bit multiply.
    Mult,
    /// 8-bit divide.
    Div,
    /// 16-bit insertion/bubble sort of 16 elements.
    InSort,
    /// 16-bit average of 16 elements.
    IntAvg,
    /// 16-bit threshold count over 16 elements.
    THold,
    /// CRC-8 over 16 bytes.
    Crc8,
    /// 8-bit decision tree.
    DTree,
}

impl Bench {
    /// All benchmarks in paper order.
    pub const ALL: [Bench; 7] = [
        Bench::Mult,
        Bench::Div,
        Bench::InSort,
        Bench::IntAvg,
        Bench::THold,
        Bench::Crc8,
        Bench::DTree,
    ];

    /// Paper name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Mult => "mult",
            Bench::Div => "div",
            Bench::InSort => "inSort",
            Bench::IntAvg => "intAvg",
            Bench::THold => "tHold",
            Bench::Crc8 => "crc8",
            Bench::DTree => "dTree",
        }
    }
}

impl fmt::Display for Bench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of executing one benchmark on one baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineRun {
    /// Benchmark.
    pub bench: Bench,
    /// CPU it ran on.
    pub cpu: BaselineCpu,
    /// Program image size in bytes (the Table 5 footprint).
    pub program_bytes: usize,
    /// Cycles (T-states / machine states) consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
}

impl BaselineRun {
    /// Cycles per instruction observed.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instructions.max(1) as f64
    }
}

/// Shared benchmark inputs — identical across all ISAs so results are
/// directly comparable.
pub mod data {
    /// 8-bit multiply operands.
    pub const MULT_A: u8 = 183;
    /// Multiplier.
    pub const MULT_B: u8 = 92;
    /// Expected 16-bit product.
    pub const MULT_EXPECTED: u16 = (MULT_A as u16).wrapping_mul(MULT_B as u16);

    /// Dividend.
    pub const DIV_A: u8 = 229;
    /// Divisor.
    pub const DIV_B: u8 = 26;
    /// Expected quotient.
    pub const DIV_Q: u8 = DIV_A / DIV_B;
    /// Expected remainder.
    pub const DIV_R: u8 = DIV_A % DIV_B;

    /// The 16-element 16-bit array for inSort / intAvg / tHold.
    pub const ARRAY16: [u16; 16] = [
        0x3A21, 0x9B04, 0x1234, 0xFFE0, 0x0007, 0x8001, 0x4C4C, 0x2B9A, 0xD00D, 0x0B10, 0x7777,
        0x5AA5, 0xC3C3, 0x00FF, 0x9000, 0x1F1F,
    ];

    /// Threshold for tHold.
    pub const THOLD_T: u16 = 0x8000;

    /// The sorted array (golden).
    pub fn sorted() -> [u16; 16] {
        let mut a = ARRAY16;
        a.sort_unstable();
        a
    }

    /// Average (golden).
    pub fn average() -> u16 {
        (ARRAY16.iter().map(|&v| v as u32).sum::<u32>() / 16) as u16
    }

    /// Threshold count (golden).
    pub fn thold_count() -> u8 {
        ARRAY16.iter().filter(|&&v| v >= THOLD_T).count() as u8
    }

    /// The 16-byte CRC message.
    pub const CRC_MSG: [u8; 16] = [
        0x31, 0x80, 0x07, 0xFE, 0x55, 0xAA, 0x10, 0x9C, 0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03,
        0x04,
    ];

    /// Reference CRC-8 (poly 0x07, init 0).
    pub fn crc8(message: &[u8]) -> u8 {
        let mut crc = 0u8;
        for &byte in message {
            crc ^= byte;
            for _ in 0..8 {
                crc = if crc & 0x80 != 0 { (crc << 1) ^ 0x07 } else { crc << 1 };
            }
        }
        crc
    }

    /// Decision-tree inputs (four 8-bit sensor samples).
    pub const DTREE_X: [u8; 4] = [0x42, 0xC8, 0x19, 0x77];
}

/// A shared synthetic decision tree so every ISA's dTree kernel encodes
/// the same classifier.
pub mod tree {
    /// Internal nodes of a full depth-`DEPTH` binary tree, in pre-order.
    #[derive(Debug, Clone)]
    pub enum Node {
        /// Internal node: feature index, threshold, children.
        Internal {
            /// Which of the four inputs to test.
            feature: usize,
            /// Comparison threshold.
            threshold: u8,
            /// Taken when `x[feature] < threshold`.
            left: Box<Node>,
            /// Taken otherwise.
            right: Box<Node>,
        },
        /// Leaf with a class id.
        Leaf {
            /// Class identifier.
            class: u8,
        },
    }

    /// Tree depth (31 internal nodes, 32 leaves).
    pub const DEPTH: usize = 5;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn build_at(state: &mut u64, depth: usize, next_class: &mut u8) -> Node {
        if depth == DEPTH {
            let class = *next_class;
            *next_class += 1;
            return Node::Leaf { class };
        }
        let threshold = ((xorshift(state) & 0xFF) as u8).clamp(16, 240);
        Node::Internal {
            feature: depth % 4,
            threshold,
            left: Box::new(build_at(state, depth + 1, next_class)),
            right: Box::new(build_at(state, depth + 1, next_class)),
        }
    }

    /// Builds the canonical benchmark tree.
    pub fn build() -> Node {
        let mut state = 0xB45E_1335_D00D_u64;
        let mut next_class = 0;
        build_at(&mut state, 0, &mut next_class)
    }

    /// Evaluates the tree (golden model).
    pub fn eval(node: &Node, x: &[u8; 4]) -> u8 {
        match node {
            Node::Leaf { class } => *class,
            Node::Internal { feature, threshold, left, right } => {
                if x[*feature] < *threshold {
                    eval(left, x)
                } else {
                    eval(right, x)
                }
            }
        }
    }
}

/// Runs a benchmark on a baseline CPU, verifying the result against the
/// golden model.
///
/// # Panics
///
/// Panics if the kernel produces a wrong result or fails to halt — both
/// indicate bugs in this crate, not user error.
pub fn run(bench: Bench, cpu: BaselineCpu) -> BaselineRun {
    match cpu {
        BaselineCpu::Light8080 => k8080::run(bench, false),
        BaselineCpu::Z80 => k8080::run(bench, true),
        BaselineCpu::ZpuSmall => kzpu::run(bench),
        BaselineCpu::OpenMsp430 => kmsp430::run(bench),
    }
}

/// Program image size in bytes for a benchmark on a CPU (the Table 5
/// instruction-memory footprint) without running it.
pub fn program_bytes(bench: Bench, cpu: BaselineCpu) -> usize {
    match cpu {
        // Identical images, as in Table 5.
        BaselineCpu::Light8080 | BaselineCpu::Z80 => k8080::image(bench).len(),
        BaselineCpu::ZpuSmall => kzpu::image(bench).len(),
        BaselineCpu::OpenMsp430 => kmsp430::image(bench).len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_values_are_consistent() {
        assert_eq!(data::MULT_EXPECTED, 16836);
        assert_eq!(data::DIV_Q, 8);
        assert_eq!(data::DIV_R, 21);
        assert_eq!(data::sorted()[0], 0x0007);
        assert_eq!(data::sorted()[15], 0xFFE0);
        assert!(data::thold_count() > 0 && data::thold_count() < 16);
        assert_eq!(data::crc8(b"123456789"), 0xF4);
    }

    #[test]
    fn tree_is_deterministic() {
        let a = tree::build();
        let b = tree::build();
        assert_eq!(tree::eval(&a, &data::DTREE_X), tree::eval(&b, &data::DTREE_X));
    }

    #[test]
    fn every_benchmark_runs_on_every_cpu() {
        for bench in Bench::ALL {
            for cpu in BaselineCpu::ALL {
                let run = run(bench, cpu);
                assert!(run.cycles > 0, "{bench} on {}", cpu.name());
                assert!(run.program_bytes > 0);
                let (lo, hi) = cpu.cpi_range();
                // Observed CPI should be broadly consistent with Table 4.
                assert!(
                    run.cpi() >= lo as f64 * 0.5 && run.cpi() <= hi as f64 * 1.5,
                    "{bench} on {}: CPI {:.1} outside [{lo},{hi}]",
                    cpu.name(),
                    run.cpi()
                );
            }
        }
    }

    #[test]
    fn z80_and_light8080_share_images() {
        for bench in Bench::ALL {
            assert_eq!(
                program_bytes(bench, BaselineCpu::Z80),
                program_bytes(bench, BaselineCpu::Light8080),
                "{bench}"
            );
        }
    }

    #[test]
    fn zpu_programs_are_the_largest_for_compute_kernels() {
        // Table 5's shape: stack code bloats (mult/div on ZPU vs Z80).
        for bench in [Bench::Mult, Bench::Div] {
            let zpu = program_bytes(bench, BaselineCpu::ZpuSmall);
            let z80 = program_bytes(bench, BaselineCpu::Z80);
            assert!(zpu > z80, "{bench}: ZPU {zpu} <= Z80 {z80}");
        }
    }

    #[test]
    fn z80_is_faster_than_light8080_on_the_same_image() {
        // Table 4: Z80 CPI 3–23 vs light8080 5–30.
        for bench in [Bench::Mult, Bench::Crc8, Bench::IntAvg] {
            let z80 = run(bench, BaselineCpu::Z80);
            let l8080 = run(bench, BaselineCpu::Light8080);
            assert!(z80.cycles <= l8080.cycles, "{bench}");
        }
    }
}
