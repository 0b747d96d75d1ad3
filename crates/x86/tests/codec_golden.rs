//! Byte goldens for the x86 codec, recorded from the hand-written GPR/system
//! encoder that the shared opcode table replaced:
//!
//! 1. the hex encoding of every round-trip corpus line and of every
//!    instruction-table suite variant's code and init assembly (the e5 byte
//!    path), read from `golden/codec_bytes.tsv`;
//! 2. a decode golden for the non-canonical forms the decoder accepts but
//!    the encoder never emits;
//! 3. a generated sweep of every GPR/system mnemonic over register, memory
//!    and immediate operands at every width, width-mismatched shapes
//!    included: every form must either round-trip or be an `EncodeError`,
//!    and an FNV-1a digest pins the bytes of the forms that round-tripped
//!    before the table existed.

use nanobench_x86::asm::parse_asm;
use nanobench_x86::corpus::ROUNDTRIP_CORPUS;
use nanobench_x86::encode::{decode_program, encode_program, EncodeError};
use nanobench_x86::inst::{Instruction, Mnemonic};
use nanobench_x86::operand::{MemRef, Operand};
use nanobench_x86::reg::{Gpr, GprPart, Width};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn encode_text(text: &str) -> Result<Vec<u8>, EncodeError> {
    let insts = parse_asm(text).unwrap_or_else(|e| panic!("`{text}` must parse: {e}"));
    encode_program(&insts).map(|(bytes, _)| bytes)
}

/// `asm<TAB>hex` lines: every corpus line, then every distinct code and
/// init string of the instruction-table suite.
const GOLDEN: &str = include_str!("golden/codec_bytes.tsv");

fn golden_rows() -> Vec<(&'static str, &'static str)> {
    GOLDEN
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| l.split_once('\t').expect("asm<TAB>hex"))
        .collect()
}

#[test]
fn corpus_and_suite_encode_to_their_recorded_bytes() {
    let rows = golden_rows();
    for text in ROUNDTRIP_CORPUS {
        assert!(
            rows.iter().any(|(asm, _)| asm == text),
            "corpus line `{text}` has no recorded bytes"
        );
    }
    for (text, want) in rows {
        let got = encode_text(text).unwrap_or_else(|e| panic!("`{text}` must encode: {e}"));
        assert_eq!(hex(&got), want, "`{text}`");
    }
}

/// Non-canonical encodings the decoder accepts: the long `81` immediate
/// for an imm8 value, the `MR` direction of a reg-reg move or ALU op, the
/// `C1 /n 1` shift count, `B8+r` without REX.W (and with REX.W for a small
/// value), short branches, and redundant prefixes.
const DECODE_GOLDEN: &[(&str, &str)] = &[
    ("4881c001000000", "add rax, 1"),
    ("81e9ff000000", "sub ecx, 0xff"),
    ("6681c30100", "add bx, 1"),
    ("4889d8", "mov rax, rbx"),
    ("88c8", "mov al, cl"),
    ("4801d8", "add rax, rbx"),
    ("4531c8", "xor r8d, r9d"),
    ("d1e0", "shl eax, 1"),
    ("48c1e001", "shl rax, 1"),
    ("d0e8", "shr al, 1"),
    ("c0e801", "shr al, 1"),
    ("b805000000", "mov eax, 5"),
    ("66b90300", "mov cx, 3"),
    ("48b80500000000000000", "mov rax, 5"),
    ("41bf00000080", "mov r15d, -0x80000000"),
    ("ebfe", "l: jmp l"),
    ("740090", "jz l; l: nop"),
    ("75fe", "l: jnz l"),
    ("720090", "jc l; l: nop"),
    ("73fe", "l: jnc l"),
    ("0f820000000090", "jc l; l: nop"),
    ("0f83faffffff", "l: jnc l"),
    ("0f840000000090", "jz l; l: nop"),
    ("0f85faffffff", "l: jnz l"),
    ("e90000000090", "jmp l; l: nop"),
    ("e8fbffffff", "l: call l"),
    ("6690", "nop"),
    ("66f390", "pause"),
    ("480fa2", "cpuid"),
    ("66f20f38f1c3", "crc32 eax, ebx"),
    ("f3660fb8c3", "popcnt ax, bx"),
    ("66f30fbcc3", "tzcnt ax, bx"),
    ("f3660fae38", "clflushopt [rax]"),
    ("660faef8", "sfence"),
    ("480fc7f0", "rdrand rax"),
    ("8d4308", "lea eax, [rbx+8]"),
    ("668d4308", "lea ax, [rbx+8]"),
];

#[test]
fn decode_only_forms_decode_to_their_recorded_text() {
    for (code, text) in DECODE_GOLDEN {
        let bytes: Vec<u8> = (0..code.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&code[i..i + 2], 16).unwrap())
            .collect();
        let got = decode_program(&bytes).unwrap_or_else(|e| panic!("{code}: {e}"));
        assert_eq!(
            got,
            parse_asm(text).unwrap(),
            "{code} must decode to `{text}`"
        );
    }
}

// ---------------------------------------------------------------------------
// Forms the hand-written encoder got wrong
// ---------------------------------------------------------------------------

fn round_trip(text: &str) -> Vec<u8> {
    let bytes = encode_text(text).unwrap_or_else(|e| panic!("`{text}` must encode: {e}"));
    assert_eq!(
        decode_program(&bytes).unwrap(),
        parse_asm(text).unwrap(),
        "`{text}` must round-trip"
    );
    bytes
}

#[test]
fn word_test_immediates_are_imm16() {
    assert_eq!(hex(&round_trip("test ax, 1")), "66f7c00100");
    assert_eq!(hex(&round_trip("test ax, -2")), "66f7c0feff");
    assert_eq!(
        hex(&round_trip("test word ptr [r14+8], 300")),
        "6641f746082c01"
    );
}

#[test]
fn one_operand_byte_imul_is_f6() {
    assert_eq!(hex(&round_trip("imul al")), "f6e8");
    assert_eq!(hex(&round_trip("imul byte ptr [r14]")), "41f62e");
}

#[test]
fn lea_with_a_narrow_destination_round_trips() {
    assert_eq!(hex(&round_trip("lea eax, [rbx+8]")), "8d4308");
    assert_eq!(hex(&round_trip("lea ax, [rbx+8]")), "668d4308");
}

#[test]
fn sil_family_byte_registers_always_get_a_rex_prefix() {
    assert_eq!(hex(&round_trip("inc sil")), "40fec6");
    assert_eq!(hex(&round_trip("movzx eax, sil")), "400fb6c6");
    assert_eq!(hex(&round_trip("shl dil, 3")), "40c0e703");
}

#[test]
fn shapes_no_row_encodes_are_errors_not_other_bytes() {
    for text in [
        "popcnt sil, rsi",
        "xchg sil, rsi",
        "setz qword ptr [r14]",
        "mov eax, rbx",
        "movzx eax, ebx",
        "lea eax, dword ptr [rbx]",
        "clflush byte ptr [r14]",
        "push eax",
        "nop rax",
    ] {
        assert!(
            matches!(encode_text(text), Err(EncodeError::InvalidOperands(_))),
            "`{text}` must be InvalidOperands, got {:?}",
            encode_text(text)
        );
    }
    for text in [
        "add byte ptr [r14+8], 300",
        "mov al, 0x80",
        "add ax, 0x8000",
        "shl rax, -1",
        "and eax, 0x80000000",
    ] {
        assert!(
            matches!(encode_text(text), Err(EncodeError::OutOfRange(_))),
            "`{text}` must be OutOfRange, got {:?}",
            encode_text(text)
        );
    }
}

// ---------------------------------------------------------------------------
// The generated sweep
// ---------------------------------------------------------------------------

/// Every GPR/system mnemonic the codec knows, plus the magic markers.
#[rustfmt::skip]
const GPR_MNEMONICS: &[Mnemonic] = {
    use Mnemonic::*;
    &[
        Mov, Movzx, Movsx, Lea, Xchg, Push, Pop, Bswap, Cmovz, Cmovnz, Setz, Setnz, Add, Adc,
        Sub, Sbb, And, Or, Xor, Cmp, Test, Inc, Dec, Neg, Not, Imul, Mul, Idiv, Div, Shl, Shr,
        Sar, Rol, Ror, Popcnt, Lzcnt, Tzcnt, Bsf, Bsr, Crc32, Xadd, Ret, Nop, Pause, Lfence,
        Mfence, Sfence, Cpuid, Rdtsc, Rdtscp, Rdpmc, Rdmsr, Wrmsr, Wbinvd, Invd, Invlpg, Cli,
        Sti, Hlt, Swapgs, MovCr3, Clflush, Clflushopt, Prefetcht0, Prefetcht1, Prefetcht2,
        Prefetchnta, Rdrand, Rdseed, NbPause, NbResume,
    ]
};

/// Branches take a label: `@0` is the branch itself, `@1` the program end.
const BRANCHES: &[Mnemonic] = {
    use Mnemonic::*;
    &[Jmp, Call, Jz, Jnz, Jc, Jnc]
};

const WIDTHS: [Width; 4] = [Width::B, Width::W, Width::D, Width::Q];

/// Immediates straddling every field boundary (imm8, imm16, imm32, u8).
#[rustfmt::skip]
const IMMS: [i64; 15] = [
    1, -1, 0x7f, 0x80, 0xff, -0x80, -0x81, 0x7fff, 0x8000, 0xffff, -0x8000, 0x7fff_ffff,
    0x8000_0000, -0x8000_0000, 0x1_2345_6789,
];

/// The operand pool: `sil`-family and REX-extended registers at every
/// width, one `[r14+8]` memory operand at every width, and the immediates.
fn operand_pool() -> Vec<Operand> {
    let mut pool = Vec::new();
    for width in WIDTHS {
        for reg in [Gpr::Rsi, Gpr::R9] {
            pool.push(Operand::Gpr(GprPart { reg, width }));
        }
    }
    for width in WIDTHS {
        pool.push(Operand::Mem(MemRef::base_disp(Gpr::R14, 8, width)));
    }
    pool.extend(IMMS.iter().map(|&v| Operand::Imm(v)));
    pool
}

/// Every sweep form, in a fixed order: each mnemonic with zero, one and two
/// operands drawn from the pool (branches also from the two labels).
fn sweep() -> Vec<Instruction> {
    let pool = operand_pool();
    let mut with_labels = pool.clone();
    with_labels.extend([Operand::Label(0), Operand::Label(1)]);
    let mut out = Vec::new();
    for (mnemonics, ops) in [(GPR_MNEMONICS, &pool), (BRANCHES, &with_labels)] {
        for &m in mnemonics {
            out.push(Instruction::new(m));
            for a in ops.iter() {
                out.push(Instruction::unary(m, *a));
            }
            for a in ops.iter() {
                for b in ops.iter() {
                    out.push(Instruction::binary(m, *a, *b));
                }
            }
        }
    }
    out
}

enum Outcome {
    RoundTrips(Vec<u8>),
    Rejected,
    /// Encoded, but decodes to something else (or not at all).
    Wrong,
}

fn outcome(inst: &Instruction) -> Outcome {
    let program = std::slice::from_ref(inst);
    match encode_program(program) {
        Err(_) => Outcome::Rejected,
        Ok((bytes, _)) => match decode_program(&bytes) {
            Ok(back) if back == program => Outcome::RoundTrips(bytes),
            _ => Outcome::Wrong,
        },
    }
}

fn byte_reg_without_rex(op: &Operand) -> bool {
    matches!(op, Operand::Gpr(g) if g.width == Width::B && (4..8).contains(&g.reg.number()))
}

/// Forms whose bytes the table encoder changed on purpose, left out of the
/// digest (the byte-exact tests below pin each class):
/// * word-width `test` with an immediate carries an imm16, not an imm32;
/// * one-operand byte `imul` is `F6 /5`, not `F7 /5`;
/// * `lea` decodes its memory operand as qword, so a narrower one is
///   rejected and an unsized one with a 16/32-bit destination round-trips;
/// * a `spl`/`bpl`/`sil`/`dil` operand always gets a REX prefix. The
///   hand-written encoder forced one only for `mov`, the ALU ops, `setcc`
///   and `test` with a register source, so elsewhere its bytes named
///   `ah`/`ch`/`dh`/`bh` unless another REX bit was set.
fn changed_on_purpose(inst: &Instruction) -> bool {
    use Mnemonic::*;
    let ops = &inst.operands;
    let first_width = ops.first().and_then(Operand::width);
    let high = |r: Gpr| r.number() > 7;
    let other_rex = ops.iter().any(|op| match op {
        Operand::Gpr(g) => high(g.reg) || g.width == Width::Q,
        Operand::Mem(m) => m.base.is_some_and(high) || m.index.is_some_and(|(i, _)| high(i)),
        _ => false,
    });
    let rex_forced = matches!(
        inst.mnemonic,
        Mov | Add | Or | Adc | Sbb | And | Sub | Xor | Cmp | Setz | Setnz
    ) || (inst.mnemonic == Test && matches!(ops.get(1), Some(Operand::Gpr(_))));
    match inst.mnemonic {
        Test if first_width == Some(Width::W) && matches!(ops.get(1), Some(Operand::Imm(_))) => {
            true
        }
        Imul if first_width == Some(Width::B) && ops.len() == 1 => true,
        Lea => ops.iter().any(|op| op.width() != Some(Width::Q)),
        _ => ops.iter().any(byte_reg_without_rex) && !rex_forced && !other_rex,
    }
}

/// FNV-1a over `(length, bytes)` of every form that round-trips and is not
/// [`changed_on_purpose`], with the count of such forms.
fn sweep_digest() -> (u64, usize) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut n = 0;
    for inst in sweep() {
        if changed_on_purpose(&inst) {
            continue;
        }
        if let Outcome::RoundTrips(bytes) = outcome(&inst) {
            n += 1;
            for b in std::iter::once(bytes.len() as u8).chain(bytes) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (h, n)
}

#[test]
fn every_swept_form_round_trips_or_is_rejected() {
    let wrong: Vec<String> = sweep()
        .iter()
        .filter(|inst| matches!(outcome(inst), Outcome::Wrong))
        .map(|inst| inst.to_string())
        .collect();
    assert!(
        wrong.is_empty(),
        "{} forms encode to bytes that decode differently: {:?}",
        wrong.len(),
        &wrong[..wrong.len().min(2000)]
    );
}

#[test]
fn swept_bytes_match_the_recorded_digest() {
    assert_eq!(sweep_digest(), (SWEEP_DIGEST, SWEEP_DIGEST_FORMS));
}

/// Recorded from the hand-written encoder: 2,102 of the 58,973 swept forms
/// round-tripped there outside the classes in [`changed_on_purpose`].
const SWEEP_DIGEST: u64 = 0x54e1_f3d3_87bb_5090;
const SWEEP_DIGEST_FORMS: usize = 2102;
