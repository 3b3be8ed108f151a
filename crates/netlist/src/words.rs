//! Word-level structural generators.
//!
//! These compose the single-gate primitives of
//! [`crate::builder::NetlistBuilder`] into the datapath
//! blocks a printed microprocessor needs: ripple-carry adder/subtractors,
//! bitwise logic, rotators, muxes, decoders, zero/sign detection, and
//! DFF register banks. They are the Rust stand-in for RTL + synthesis:
//! each function instantiates exactly the cells a technology-mapped
//! implementation would use, so area/power/delay roll-ups are faithful to
//! the printed cell library.
//!
//! All buses are LSB-first `&[NetId]` slices.

use crate::builder::NetlistBuilder;
use crate::ir::NetId;

/// Result of an adder/subtractor: the sum bits plus the flag nets the
/// TP-ISA flags register consumes.
#[derive(Debug, Clone)]
pub struct AdderOutputs {
    /// Sum/difference bits, LSB first.
    pub sum: Vec<NetId>,
    /// Carry out of the MSB (borrow' for subtraction).
    pub carry_out: NetId,
    /// Signed overflow (carry into MSB XOR carry out of MSB).
    pub overflow: NetId,
}

/// Ripple-carry adder: `sum = a + b + cin`.
///
/// # Panics
///
/// Panics if `a` and `b` have different widths or are empty.
pub fn ripple_adder(
    b: &mut NetlistBuilder,
    a_bus: &[NetId],
    b_bus: &[NetId],
    cin: NetId,
) -> AdderOutputs {
    assert_eq!(a_bus.len(), b_bus.len(), "adder operand widths differ");
    assert!(!a_bus.is_empty(), "adder width must be nonzero");
    let mut carry = cin;
    let mut carry_into_msb = cin;
    let mut sum = Vec::with_capacity(a_bus.len());
    for (i, (&abit, &bbit)) in a_bus.iter().zip(b_bus).enumerate() {
        if i == a_bus.len() - 1 {
            carry_into_msb = carry;
        }
        let (s, c) = b.full_adder(abit, bbit, carry);
        sum.push(s);
        carry = c;
    }
    let overflow = b.xor2(carry_into_msb, carry);
    AdderOutputs { sum, carry_out: carry, overflow }
}

/// Ripple-carry adder/subtractor: computes `a + b + cin` when `sub = 0`
/// and `a - b - !cin`… more precisely `a + (b ^ sub) + cin`, the standard
/// shared-datapath construction. For subtraction drive `sub = 1` and
/// `cin = 1` (or `cin = !borrow` for subtract-with-borrow).
///
/// # Panics
///
/// Panics if operand widths differ or are zero.
pub fn add_sub(
    b: &mut NetlistBuilder,
    a_bus: &[NetId],
    b_bus: &[NetId],
    sub: NetId,
    cin: NetId,
) -> AdderOutputs {
    assert_eq!(a_bus.len(), b_bus.len(), "add/sub operand widths differ");
    let b_xored: Vec<NetId> = b_bus.iter().map(|&bit| b.xor2(bit, sub)).collect();
    ripple_adder(b, a_bus, &b_xored, cin)
}

/// Carry-select adder: blocks of `block_size` bits computed twice (for
/// carry-in 0 and 1) and muxed by the incoming block carry. This is what
/// a synthesis tool maps wide additions to when the ripple chain would
/// dominate the clock: the critical path drops from `O(n)` to
/// `O(block + n/block)` at ~1.8× adder area.
///
/// # Panics
///
/// Panics if operand widths differ, are empty, or `block_size` is zero.
pub fn carry_select_adder(
    b: &mut NetlistBuilder,
    a_bus: &[NetId],
    b_bus: &[NetId],
    cin: NetId,
    block_size: usize,
) -> AdderOutputs {
    assert_eq!(a_bus.len(), b_bus.len(), "adder operand widths differ");
    assert!(!a_bus.is_empty(), "adder width must be nonzero");
    assert!(block_size > 0, "block size must be nonzero");
    let n = a_bus.len();
    if n <= block_size {
        return ripple_adder(b, a_bus, b_bus, cin);
    }

    let zero = b.const0();
    let one = b.const1();
    let mut sum = Vec::with_capacity(n);
    let mut carry = cin;
    let mut overflow = None;

    let mut start = 0;
    while start < n {
        let end = (start + block_size).min(n);
        let a_blk = &a_bus[start..end];
        let b_blk = &b_bus[start..end];
        if start == 0 {
            let r = ripple_adder(b, a_blk, b_blk, carry);
            sum.extend(r.sum);
            carry = r.carry_out;
            overflow = Some(r.overflow);
        } else {
            let r0 = ripple_adder(b, a_blk, b_blk, zero);
            let r1 = ripple_adder(b, a_blk, b_blk, one);
            let sel_n = b.inv(carry);
            for (&s0, &s1) in r0.sum.iter().zip(&r1.sum) {
                sum.push(b.mux2(s0, s1, carry, sel_n));
            }
            let v = b.mux2(r0.overflow, r1.overflow, carry, sel_n);
            overflow = Some(v);
            carry = b.mux2(r0.carry_out, r1.carry_out, carry, sel_n);
        }
        start = end;
    }

    AdderOutputs {
        sum,
        carry_out: carry,
        overflow: overflow.unwrap_or_else(|| unreachable!("at least one block")),
    }
}

/// Adder/subtractor with width-appropriate structure: ripple-carry up to
/// 8 bits, carry-select (8-bit blocks) beyond — mirroring how synthesis
/// maps narrow vs wide datapaths.
pub fn add_sub_fast(
    b: &mut NetlistBuilder,
    a_bus: &[NetId],
    b_bus: &[NetId],
    sub: NetId,
    cin: NetId,
) -> AdderOutputs {
    assert_eq!(a_bus.len(), b_bus.len(), "add/sub operand widths differ");
    let b_xored: Vec<NetId> = b_bus.iter().map(|&bit| b.xor2(bit, sub)).collect();
    carry_select_adder(b, a_bus, &b_xored, cin, 8)
}

/// Incrementer (`a + 1` when `en = 1`, else `a`): a chain of half adders.
/// Used for the program counter, where a full adder per bit would be waste.
pub fn incrementer(b: &mut NetlistBuilder, a_bus: &[NetId], en: NetId) -> Vec<NetId> {
    let mut carry = en;
    let mut out = Vec::with_capacity(a_bus.len());
    for &bit in a_bus {
        let (s, c) = b.half_adder(bit, carry);
        out.push(s);
        carry = c;
    }
    out
}

/// Bitwise AND of two buses.
pub fn and_word(b: &mut NetlistBuilder, a_bus: &[NetId], b_bus: &[NetId]) -> Vec<NetId> {
    zip_word(b, a_bus, b_bus, NetlistBuilder::and2)
}

/// Bitwise OR of two buses.
pub fn or_word(b: &mut NetlistBuilder, a_bus: &[NetId], b_bus: &[NetId]) -> Vec<NetId> {
    zip_word(b, a_bus, b_bus, NetlistBuilder::or2)
}

/// Bitwise XOR of two buses.
pub fn xor_word(b: &mut NetlistBuilder, a_bus: &[NetId], b_bus: &[NetId]) -> Vec<NetId> {
    zip_word(b, a_bus, b_bus, NetlistBuilder::xor2)
}

/// Bitwise NOT of a bus.
pub fn not_word(b: &mut NetlistBuilder, a_bus: &[NetId]) -> Vec<NetId> {
    a_bus.iter().map(|&bit| b.inv(bit)).collect()
}

fn zip_word(
    b: &mut NetlistBuilder,
    a_bus: &[NetId],
    b_bus: &[NetId],
    op: fn(&mut NetlistBuilder, NetId, NetId) -> NetId,
) -> Vec<NetId> {
    assert_eq!(a_bus.len(), b_bus.len(), "bitwise operand widths differ");
    a_bus.iter().zip(b_bus).map(|(&x, &y)| op(b, x, y)).collect()
}

/// Word-wide 2-to-1 mux (`sel ? b : a`). The select inverter is shared
/// across all bits, as a technology mapper would.
pub fn mux2_word(
    b: &mut NetlistBuilder,
    a_bus: &[NetId],
    b_bus: &[NetId],
    sel: NetId,
) -> Vec<NetId> {
    assert_eq!(a_bus.len(), b_bus.len(), "mux operand widths differ");
    let sel_n = b.inv(sel);
    a_bus.iter().zip(b_bus).map(|(&x, &y)| b.mux2(x, y, sel, sel_n)).collect()
}

/// Mux tree selecting one of `words.len()` equal-width words by binary
/// select bits (LSB first). Pads with the first word if the count is not a
/// power of two.
///
/// # Panics
///
/// Panics if `words` is empty, widths differ, or `sel` has too few bits.
pub fn mux_tree(b: &mut NetlistBuilder, words: &[Vec<NetId>], sel: &[NetId]) -> Vec<NetId> {
    assert!(!words.is_empty(), "mux tree needs at least one word");
    let width = words[0].len();
    for w in words {
        assert_eq!(w.len(), width, "mux tree word widths differ");
    }
    let needed = usize::BITS as usize - (words.len() - 1).leading_zeros() as usize;
    let needed = if words.len() == 1 { 0 } else { needed };
    assert!(sel.len() >= needed, "mux tree select too narrow: {} < {needed}", sel.len());

    let mut layer: Vec<Vec<NetId>> = words.to_vec();
    for &s in sel.iter().take(needed) {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        let mut iter = layer.chunks(2);
        let sel_n = b.inv(s);
        for chunk in &mut iter {
            if chunk.len() == 2 {
                let merged: Vec<NetId> =
                    chunk[0].iter().zip(&chunk[1]).map(|(&x, &y)| b.mux2(x, y, s, sel_n)).collect();
                next.push(merged);
            } else {
                next.push(chunk[0].clone());
            }
        }
        layer = next;
    }
    layer.into_iter().next().unwrap_or_else(|| unreachable!("mux tree reduces to one word"))
}

/// `n`-to-`2^n` one-hot decoder with enable. AND chains are mapped to
/// NAND + INV pairs, the energy-optimal choice in the printed libraries.
pub fn decoder(b: &mut NetlistBuilder, sel: &[NetId], en: NetId) -> Vec<NetId> {
    let n = sel.len();
    let inverted: Vec<NetId> = sel.iter().map(|&s| b.inv(s)).collect();
    (0..1usize << n)
        .map(|code| {
            let mut acc = en;
            for (bit, (&s, &sn)) in sel.iter().zip(&inverted).enumerate() {
                let lit = if code >> bit & 1 == 1 { s } else { sn };
                let nand = b.nand2(acc, lit);
                acc = b.inv(nand);
            }
            acc
        })
        .collect()
}

/// NOR-reduction: returns a net that is 1 iff every bit of the bus is 0.
/// Implemented as an OR tree followed by an inverter.
pub fn zero_detect(b: &mut NetlistBuilder, bus: &[NetId]) -> NetId {
    assert!(!bus.is_empty(), "zero detect of empty bus");
    let any = or_reduce(b, bus);
    b.inv(any)
}

/// OR-reduction of a bus (1 iff any bit is 1), as a balanced tree.
pub fn or_reduce(b: &mut NetlistBuilder, bus: &[NetId]) -> NetId {
    reduce(b, bus, NetlistBuilder::or2)
}

/// AND-reduction of a bus (1 iff all bits are 1), as a balanced tree.
pub fn and_reduce(b: &mut NetlistBuilder, bus: &[NetId]) -> NetId {
    reduce(b, bus, NetlistBuilder::and2)
}

fn reduce(
    b: &mut NetlistBuilder,
    bus: &[NetId],
    op: fn(&mut NetlistBuilder, NetId, NetId) -> NetId,
) -> NetId {
    assert!(!bus.is_empty(), "reduction of empty bus");
    let mut layer: Vec<NetId> = bus.to_vec();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for chunk in layer.chunks(2) {
            next.push(if chunk.len() == 2 { op(b, chunk[0], chunk[1]) } else { chunk[0] });
        }
        layer = next;
    }
    layer[0]
}

/// Rotate outputs: the rotated word plus the bit that wrapped (the carry
/// the TP-ISA `RLC`/`RRC` rotate-through-carry variants capture).
#[derive(Debug, Clone)]
pub struct RotateOutputs {
    /// Rotated word.
    pub word: Vec<NetId>,
    /// The bit shifted out of the word.
    pub shifted_out: NetId,
}

/// Rotate left by one. `through` selects rotate-through-carry: when 1 the
/// vacated LSB takes `carry_in`, when 0 it takes the old MSB.
pub fn rotate_left(
    b: &mut NetlistBuilder,
    bus: &[NetId],
    through: NetId,
    carry_in: NetId,
) -> RotateOutputs {
    assert!(!bus.is_empty(), "rotate of empty bus");
    let msb = *bus.last().unwrap_or_else(|| unreachable!("asserted nonempty above"));
    let through_n = b.inv(through);
    let lsb_in = b.mux2(msb, carry_in, through, through_n);
    let mut word = Vec::with_capacity(bus.len());
    word.push(lsb_in);
    word.extend_from_slice(&bus[..bus.len() - 1]);
    RotateOutputs { word, shifted_out: msb }
}

/// Rotate right by one. `through` selects rotate-through-carry; when
/// `arithmetic` is 1 the vacated MSB takes the old MSB (the TP-ISA `RRA`
/// arithmetic shift) instead.
pub fn rotate_right(
    b: &mut NetlistBuilder,
    bus: &[NetId],
    through: NetId,
    arithmetic: NetId,
    carry_in: NetId,
) -> RotateOutputs {
    assert!(!bus.is_empty(), "rotate of empty bus");
    let lsb = bus[0];
    let msb = *bus.last().unwrap_or_else(|| unreachable!("asserted nonempty above"));
    let through_n = b.inv(through);
    let arithmetic_n = b.inv(arithmetic);
    // MSB-in priority: arithmetic ? old MSB : (through ? carry : old LSB).
    let rotated_in = b.mux2(lsb, carry_in, through, through_n);
    let msb_in = b.mux2(rotated_in, msb, arithmetic, arithmetic_n);
    let mut word = Vec::with_capacity(bus.len());
    word.extend_from_slice(&bus[1..]);
    word.push(msb_in);
    RotateOutputs { word, shifted_out: lsb }
}

/// Population count: a tree of bit-counting adders. The paper sizes this
/// at "26 and 63 cells for 8-bit and 32-bit population counts" to justify
/// leaving it out of TP-ISA (§5.1); this generator reproduces those
/// magnitudes (see the tests).
pub fn popcount(b: &mut NetlistBuilder, bus: &[NetId]) -> Vec<NetId> {
    assert!(!bus.is_empty(), "popcount of empty bus");
    // Carry-save (3:2 compressor) tree: full adders compress three bits
    // of one weight into one bit of that weight plus one of the next —
    // the minimal-cell construction (4 FA + 3 HA = 26 cells at 8 bits,
    // matching the paper's figure).
    let mut columns: Vec<Vec<NetId>> = vec![bus.to_vec()];
    let mut weight = 0;
    while weight < columns.len() {
        while columns[weight].len() > 1 {
            if columns[weight].len() >= 3 {
                let x = columns[weight].pop().unwrap_or_else(|| unreachable!("len >= 3"));
                let y = columns[weight].pop().unwrap_or_else(|| unreachable!("len >= 3"));
                let z = columns[weight].pop().unwrap_or_else(|| unreachable!("len >= 3"));
                let (s, c) = b.full_adder(x, y, z);
                columns[weight].insert(0, s);
                if columns.len() == weight + 1 {
                    columns.push(Vec::new());
                }
                columns[weight + 1].push(c);
            } else {
                let x = columns[weight].pop().unwrap_or_else(|| unreachable!("len == 2"));
                let y = columns[weight].pop().unwrap_or_else(|| unreachable!("len == 2"));
                let (s, c) = b.half_adder(x, y);
                columns[weight].push(s);
                if columns.len() == weight + 1 {
                    columns.push(Vec::new());
                }
                columns[weight + 1].push(c);
            }
        }
        weight += 1;
    }
    columns
        .into_iter()
        .map(|col| {
            col.into_iter().next().unwrap_or_else(|| unreachable!("each weight reduces to one bit"))
        })
        .collect()
}

/// Barrel shifter (logical right shift by a variable amount): one mux
/// layer per shift bit. The paper sizes this at "152 cells and 1109 cells
/// for 8-bit and 32-bit respectively" to justify rotate-only TP-ISA
/// (§5.1); this generator reproduces those magnitudes (see the tests).
pub fn barrel_shift_right(b: &mut NetlistBuilder, bus: &[NetId], amount: &[NetId]) -> Vec<NetId> {
    assert!(!bus.is_empty(), "barrel shift of empty bus");
    let zero = b.const0();
    let mut current = bus.to_vec();
    for (stage, &sel) in amount.iter().enumerate() {
        let shift = 1usize << stage;
        let sel_n = b.inv(sel);
        current = (0..current.len())
            .map(|i| {
                let shifted = current.get(i + shift).copied().unwrap_or(zero);
                b.mux2(current[i], shifted, sel, sel_n)
            })
            .collect();
    }
    current
}

/// A bank of D flip-flops; returns the Q bus. `with_reset` selects the
/// larger DFFNR cell (asynchronous reset), which the paper charges
/// separately (Table 2).
pub fn register(b: &mut NetlistBuilder, d_bus: &[NetId], with_reset: bool) -> Vec<NetId> {
    d_bus.iter().map(|&d| if with_reset { b.dff_nr(d) } else { b.dff(d) }).collect()
}

/// A register with a write-enable implemented as a recirculating mux in
/// front of each DFF: `q' = en ? d : q`.
pub fn register_en(
    b: &mut NetlistBuilder,
    d_bus: &[NetId],
    en: NetId,
    with_reset: bool,
) -> Vec<NetId> {
    let en_n = b.inv(en);
    d_bus
        .iter()
        .map(|&d| {
            let q = b.forward_net();
            let next = b.mux2(q, d, en, en_n);
            if with_reset {
                b.dff_nr_into(next, q);
            } else {
                b.dff_into(next, q);
            }
            q
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    fn eval_comb(nl: &crate::ir::Netlist, inputs: &[(&str, u64)], output: &str) -> u64 {
        let mut sim = Simulator::new(nl);
        for (name, value) in inputs {
            sim.set_input(name, *value).unwrap();
        }
        sim.settle().unwrap();
        sim.read_output(output).unwrap()
    }

    #[test]
    fn ripple_adder_adds() {
        let mut b = NetlistBuilder::new("add8");
        let a = b.input("a", 8);
        let x = b.input("b", 8);
        let zero = b.const0();
        let out = ripple_adder(&mut b, &a, &x, zero);
        b.output("sum", out.sum);
        b.output("cout", vec![out.carry_out]);
        let nl = b.finish().unwrap();
        assert_eq!(eval_comb(&nl, &[("a", 17), ("b", 25)], "sum"), 42);
        assert_eq!(eval_comb(&nl, &[("a", 200), ("b", 100)], "sum"), 300 & 0xff);
        assert_eq!(eval_comb(&nl, &[("a", 200), ("b", 100)], "cout"), 1);
    }

    #[test]
    fn add_sub_subtracts() {
        let mut b = NetlistBuilder::new("addsub8");
        let a = b.input("a", 8);
        let x = b.input("b", 8);
        let sub = b.input_bit("sub");
        let cin = b.input_bit("cin");
        let out = add_sub(&mut b, &a, &x, sub, cin);
        b.output("sum", out.sum);
        b.output("cout", vec![out.carry_out]);
        b.output("ovf", vec![out.overflow]);
        let nl = b.finish().unwrap();
        // 42 - 17 = 25 (sub=1, cin=1).
        assert_eq!(eval_comb(&nl, &[("a", 42), ("b", 17), ("sub", 1), ("cin", 1)], "sum"), 25);
        // carry_out = 1 means no borrow.
        assert_eq!(eval_comb(&nl, &[("a", 42), ("b", 17), ("sub", 1), ("cin", 1)], "cout"), 1);
        // 100 - (-28) overflows signed 8-bit: 100 + 28 = 128.
        assert_eq!(
            eval_comb(
                &nl,
                &[("a", 100), ("b", (-28i8 as u8) as u64), ("sub", 1), ("cin", 1)],
                "ovf"
            ),
            1
        );
    }

    #[test]
    fn carry_select_adder_matches_ripple() {
        let mut b = NetlistBuilder::new("csel16");
        let a = b.input("a", 16);
        let x = b.input("b", 16);
        let cin = b.input_bit("cin");
        let out = carry_select_adder(&mut b, &a, &x, cin, 4);
        b.output("sum", out.sum);
        b.output("cout", vec![out.carry_out]);
        b.output("ovf", vec![out.overflow]);
        let nl = b.finish().unwrap();
        for (av, bv, cv) in [
            (0u64, 0u64, 0u64),
            (0xFFFF, 1, 0),
            (0x1234, 0x4321, 1),
            (0x7FFF, 0x0001, 0), // signed overflow
            (0x8000, 0x8000, 0), // carry + overflow
            (0xABCD, 0x9876, 1),
        ] {
            let got = eval_comb(&nl, &[("a", av), ("b", bv), ("cin", cv)], "sum");
            let full = av + bv + cv;
            assert_eq!(got, full & 0xFFFF, "{av:#x}+{bv:#x}+{cv}");
            let cout = eval_comb(&nl, &[("a", av), ("b", bv), ("cin", cv)], "cout");
            assert_eq!(cout, (full >> 16) & 1);
            let ovf = eval_comb(&nl, &[("a", av), ("b", bv), ("cin", cv)], "ovf");
            let sa = (av as u16) as i16 as i32;
            let sb = (bv as u16) as i16 as i32;
            let expected_v = !(-32768..=32767).contains(&(sa + sb + cv as i32));
            assert_eq!(ovf == 1, expected_v, "overflow for {av:#x}+{bv:#x}+{cv}");
        }
    }

    #[test]
    fn carry_select_is_faster_but_bigger_than_ripple() {
        use crate::analysis;
        use printed_pdk::Technology;
        let build = |select: bool| {
            let mut b = NetlistBuilder::new("add32");
            let a = b.input("a", 32);
            let x = b.input("b", 32);
            let cin = b.const0();
            let out = if select {
                carry_select_adder(&mut b, &a, &x, cin, 8)
            } else {
                ripple_adder(&mut b, &a, &x, cin)
            };
            b.output("sum", out.sum);
            b.finish().unwrap()
        };
        let lib = Technology::Egfet.library();
        let sel = analysis::characterize(&build(true), lib);
        let rip = analysis::characterize(&build(false), lib);
        assert!(sel.fmax > rip.fmax, "carry-select must be faster");
        assert!(sel.area.total > rip.area.total, "…at an area cost");
    }

    #[test]
    fn incrementer_increments() {
        let mut b = NetlistBuilder::new("inc4");
        let a = b.input("a", 4);
        let en = b.input_bit("en");
        let out = incrementer(&mut b, &a, en);
        b.output("y", out);
        let nl = b.finish().unwrap();
        assert_eq!(eval_comb(&nl, &[("a", 7), ("en", 1)], "y"), 8);
        assert_eq!(eval_comb(&nl, &[("a", 7), ("en", 0)], "y"), 7);
        assert_eq!(eval_comb(&nl, &[("a", 15), ("en", 1)], "y"), 0); // wraps
    }

    #[test]
    fn mux_tree_selects_each_word() {
        let mut b = NetlistBuilder::new("mux4x8");
        let words: Vec<Vec<_>> = (0..4).map(|i| b.input(format!("w{i}"), 8)).collect();
        let sel = b.input("sel", 2);
        let y = mux_tree(&mut b, &words, &sel);
        b.output("y", y);
        let nl = b.finish().unwrap();
        for pick in 0..4u64 {
            let got = eval_comb(
                &nl,
                &[("w0", 10), ("w1", 20), ("w2", 30), ("w3", 40), ("sel", pick)],
                "y",
            );
            assert_eq!(got, (pick + 1) * 10);
        }
    }

    #[test]
    fn decoder_is_one_hot() {
        let mut b = NetlistBuilder::new("dec3");
        let sel = b.input("sel", 3);
        let en = b.input_bit("en");
        let outs = decoder(&mut b, &sel, en);
        b.output("y", outs);
        let nl = b.finish().unwrap();
        for code in 0..8u64 {
            assert_eq!(eval_comb(&nl, &[("sel", code), ("en", 1)], "y"), 1 << code);
            assert_eq!(eval_comb(&nl, &[("sel", code), ("en", 0)], "y"), 0);
        }
    }

    #[test]
    fn zero_detect_and_reductions() {
        let mut b = NetlistBuilder::new("reduce");
        let a = b.input("a", 8);
        let z = zero_detect(&mut b, &a);
        let any = or_reduce(&mut b, &a);
        let all = and_reduce(&mut b, &a);
        b.output("z", vec![z]);
        b.output("any", vec![any]);
        b.output("all", vec![all]);
        let nl = b.finish().unwrap();
        assert_eq!(eval_comb(&nl, &[("a", 0)], "z"), 1);
        assert_eq!(eval_comb(&nl, &[("a", 64)], "z"), 0);
        assert_eq!(eval_comb(&nl, &[("a", 0)], "any"), 0);
        assert_eq!(eval_comb(&nl, &[("a", 2)], "any"), 1);
        assert_eq!(eval_comb(&nl, &[("a", 255)], "all"), 1);
        assert_eq!(eval_comb(&nl, &[("a", 254)], "all"), 0);
    }

    #[test]
    fn rotates_match_reference() {
        let mut b = NetlistBuilder::new("rot8");
        let a = b.input("a", 8);
        let through = b.input_bit("through");
        let arith = b.input_bit("arith");
        let cin = b.input_bit("cin");
        let rl = rotate_left(&mut b, &a, through, cin);
        let rr = rotate_right(&mut b, &a, through, arith, cin);
        b.output("rl", rl.word);
        b.output("rl_out", vec![rl.shifted_out]);
        b.output("rr", rr.word);
        b.output("rr_out", vec![rr.shifted_out]);
        let nl = b.finish().unwrap();

        let v = 0b1011_0010u64;
        // Plain rotate left: MSB wraps to LSB.
        assert_eq!(
            eval_comb(&nl, &[("a", v), ("through", 0), ("arith", 0), ("cin", 0)], "rl"),
            0b0110_0101
        );
        // Rotate left through carry: carry enters LSB.
        assert_eq!(
            eval_comb(&nl, &[("a", v), ("through", 1), ("arith", 0), ("cin", 1)], "rl"),
            0b0110_0101
        );
        assert_eq!(
            eval_comb(&nl, &[("a", v), ("through", 1), ("arith", 0), ("cin", 0)], "rl"),
            0b0110_0100
        );
        // Plain rotate right: LSB wraps to MSB.
        assert_eq!(
            eval_comb(&nl, &[("a", v), ("through", 0), ("arith", 0), ("cin", 0)], "rr"),
            0b0101_1001
        );
        // Arithmetic right: MSB replicated.
        assert_eq!(
            eval_comb(&nl, &[("a", v), ("through", 0), ("arith", 1), ("cin", 0)], "rr"),
            0b1101_1001
        );
        // Shifted-out bits.
        assert_eq!(
            eval_comb(&nl, &[("a", v), ("through", 0), ("arith", 0), ("cin", 0)], "rl_out"),
            1
        );
        assert_eq!(
            eval_comb(&nl, &[("a", v), ("through", 0), ("arith", 0), ("cin", 0)], "rr_out"),
            0
        );
    }

    #[test]
    fn popcount_counts_bits() {
        let mut b = NetlistBuilder::new("pop8");
        let a = b.input("a", 8);
        let count = popcount(&mut b, &a);
        b.output("count", count);
        let nl = b.finish().unwrap();
        for v in [0u64, 1, 0xFF, 0xA5, 0x80, 0x7E] {
            assert_eq!(
                eval_comb(&nl, &[("a", v)], "count"),
                v.count_ones() as u64,
                "popcount({v:#x})"
            );
        }
    }

    #[test]
    fn popcount_cell_counts_match_section_5_1() {
        // §5.1: "26 and 63 cells for 8-bit and 32-bit population counts".
        // The compressor-tree construction hits the 8-bit figure exactly.
        let count_cells = |width: usize| {
            let mut b = NetlistBuilder::new("pop");
            let a = b.input("a", width);
            let count = popcount(&mut b, &a);
            b.output("count", count);
            b.finish().unwrap().gate_count()
        };
        assert_eq!(count_cells(8), 26, "8-bit popcount cell count");
        // The paper's 32-bit figure (63) is sub-linear in input bits,
        // which no standalone popcount can achieve (it must count
        // compressor blocks or share the ALU adder); our full 32-bit
        // tree lands at ~2.2x that, same magnitude.
        let got32 = count_cells(32);
        assert!(
            (63..=180).contains(&got32),
            "32-bit popcount: {got32} cells (published block count: 63)"
        );
    }

    #[test]
    fn barrel_shifter_shifts() {
        let mut b = NetlistBuilder::new("bs8");
        let a = b.input("a", 8);
        let amt = b.input("amt", 3);
        let y = barrel_shift_right(&mut b, &a, &amt);
        b.output("y", y);
        let nl = b.finish().unwrap();
        for (v, s) in [(0xFFu64, 3u64), (0x80, 7), (0xA5, 0), (0xA5, 4)] {
            assert_eq!(eval_comb(&nl, &[("a", v), ("amt", s)], "y"), v >> s, "{v:#x} >> {s}");
        }
    }

    #[test]
    fn barrel_shifter_cell_counts_match_section_5_1() {
        // §5.1: "152 cells and 1109 cells for 8-bit and 32-bit" barrel
        // shifters. Ours are single-direction (the paper's support both
        // directions), so expect roughly half — same magnitude.
        for (width, amt_bits, published) in [(8usize, 3usize, 152usize), (32, 5, 1109)] {
            let mut b = NetlistBuilder::new("bs");
            let a = b.input("a", width);
            let amt = b.input("amt", amt_bits);
            let y = barrel_shift_right(&mut b, &a, &amt);
            b.output("y", y);
            let nl = b.finish().unwrap();
            let got = nl.gate_count();
            assert!(
                got * 2 >= published / 2 && got <= published,
                "{width}-bit barrel shifter: {got} cells vs published {published} (bidirectional)"
            );
        }
    }

    #[test]
    fn register_en_holds_and_loads() {
        let mut b = NetlistBuilder::new("regen");
        let d = b.input("d", 4);
        let en = b.input_bit("en");
        let q = register_en(&mut b, &d, en, false);
        b.output("q", q);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        sim.set_input("d", 9).unwrap();
        sim.set_input("en", 1).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.read_output("q").unwrap(), 9);
        sim.set_input("d", 3).unwrap();
        sim.set_input("en", 0).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.read_output("q").unwrap(), 9, "hold while disabled");
        sim.set_input("en", 1).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.read_output("q").unwrap(), 3, "load when enabled");
    }
}
