//! x86-64 machine-code encoder and decoder for the instruction subset that
//! nanoBench's generated code and the paper's microbenchmarks use.
//!
//! nanoBench accepts microbenchmarks "by the name of a binary file containing
//! x86 machine code" (§III-E) and implements the pause/resume-counting
//! feature by scanning the code for *magic byte sequences* and replacing them
//! with counter-read code (§III-I, §IV-B). Both require real byte-level
//! encoding, which this module provides (REX/ModRM/SIB, the common ALU and
//! move forms, fences, counter reads, the privileged instructions, and the
//! SSE/AVX subset the simulator models).
//!
//! # One opcode table
//!
//! Every encodable form is one row of a single table: mnemonic, escape map,
//! mandatory prefix, opcode, and an operand form that carries the ModRM
//! `/ext` or `+r` register, the operand-width rule and the immediate size.
//! The encoder and the decoder both dispatch on the row's form, so each
//! opcode is written once and `decode(encode(p)) == p` holds by
//! construction.
//!
//! * **Encoding** takes the first row of the mnemonic whose form accepts
//!   the operands — their kinds, their widths and the immediate's range —
//!   so row order fixes the canonical bytes (`83 /0 ib` before `81 /0 id`,
//!   `8B /r` before `89 /r` for a register move, rel32 before rel8). A
//!   shape no row accepts is an [`EncodeError`], never other bytes.
//! * **Decoding** looks a row up by a unique key: VEX or legacy, map,
//!   opcode (`+r` rows match its top five bits), mandatory prefix, a pinned
//!   VEX.W/L, and the ModRM `/ext`, register-or-memory bit or fixed byte
//!   where the form has them. For GPR rows `66` is the operand-size prefix,
//!   and a row whose mandatory prefix is present beats the prefix-less row
//!   of the same key (`F3 0F BC` is `tzcnt`, `0F BC` is `bsf`). The
//!   non-canonical encodings the encoder never emits stay decodable: `81`
//!   with an imm8 value, `89 /r` between registers, `C1 /n 1`, `B8+r` below
//!   qword, and the rel8 branches.
//!
//! # Vector encoding support matrix
//!
//! | Form | Encoding | Status |
//! |---|---|---|
//! | legacy SSE packed/scalar (`addps`, `mulsd`, `pxor`, ...) | `66`/`F2`/`F3` + `0F`/`0F 38`/`0F 3A` maps | encode + decode |
//! | SSE moves (`movaps`, `movdqu`, `movd`/`movq`, ...) | load and store opcodes, REX.W for `movq r64` | encode + decode |
//! | AVX 2/3-operand (`vaddps`, `vfmadd231ps`, ...) | 2- and 3-byte VEX (`vvvv`, `L`, `pp`, `mmmmm`, `W`) | encode + decode |
//! | `vperm2f128`/`vinsertf128`/`vextractf128` | VEX.L1 + imm8 | encode + decode |
//! | `vzeroupper`/`vzeroall` | VEX.L0/L1 `0F 77` | encode + decode |
//! | `xmm16`–`xmm31`, `zmm` registers | EVEX | asm/simulator only — [`EncodeError::Unsupported`] |
//! | `vgatherdps` | VSIB memory operand | asm/simulator only — [`EncodeError::Unsupported`] |
//!
//! Unsupported forms are never silently mis-encoded; they yield
//! [`EncodeError::Unsupported`] (or [`EncodeError::InvalidOperands`] for
//! architecturally impossible operand mixes such as legacy SSE on `ymm`).

use crate::inst::{Instruction, Mnemonic};
use crate::operand::{MemRef, Operand};
use crate::reg::{Gpr, GprPart, VecClass, VecReg, Width};
use std::error::Error;
use std::fmt;

/// Magic byte sequence that pauses performance counting (§III-I).
///
/// Chosen to be a valid long-NOP whose displacement spells `NBP\0`, so a
/// program containing it remains executable even if not post-processed.
pub const MAGIC_PAUSE: [u8; 8] = [0x0F, 0x1F, 0x84, 0x00, 0x4E, 0x42, 0x50, 0x00];

/// Magic byte sequence that resumes performance counting (§III-I).
pub const MAGIC_RESUME: [u8; 8] = [0x0F, 0x1F, 0x84, 0x00, 0x4E, 0x42, 0x52, 0x00];

/// An error produced while encoding instructions to machine code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The instruction form has no encoder support (never silently
    /// mis-encoded; see the module docs).
    Unsupported(String),
    /// The operand combination is architecturally invalid.
    InvalidOperands(String),
    /// A displacement or immediate does not fit its encoding field.
    OutOfRange(String),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::Unsupported(s) => write!(f, "unsupported encoding for `{s}`"),
            EncodeError::InvalidOperands(s) => write!(f, "invalid operands for `{s}`"),
            EncodeError::OutOfRange(s) => write!(f, "value out of range in `{s}`"),
        }
    }
}

impl Error for EncodeError {}

/// An error produced while decoding machine code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decode error at offset {:#x}: {}",
            self.offset, self.message
        )
    }
}

impl Error for DecodeError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Enc {
    prefix66: bool,
    prefix_f2: bool,
    prefix_f3: bool,
    rex_w: bool,
    rex_r: bool,
    rex_x: bool,
    rex_b: bool,
    force_rex: bool,
    opcode: Vec<u8>,
    modrm: Option<u8>,
    sib: Option<u8>,
    disp: Vec<u8>,
    imm: Vec<u8>,
}

impl Enc {
    fn emit(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        if self.prefix_f3 {
            out.push(0xF3);
        }
        if self.prefix_f2 {
            out.push(0xF2);
        }
        if self.prefix66 {
            out.push(0x66);
        }
        let rex = 0x40
            | ((self.rex_w as u8) << 3)
            | ((self.rex_r as u8) << 2)
            | ((self.rex_x as u8) << 1)
            | (self.rex_b as u8);
        if rex != 0x40 || self.force_rex {
            out.push(rex);
        }
        out.extend_from_slice(&self.opcode);
        if let Some(m) = self.modrm {
            out.push(m);
        }
        if let Some(s) = self.sib {
            out.push(s);
        }
        out.extend_from_slice(&self.disp);
        out.extend_from_slice(&self.imm);
        out
    }

    fn set_width(&mut self, width: Width) {
        match width {
            Width::W => self.prefix66 = true,
            Width::Q => self.rex_w = true,
            _ => {}
        }
    }

    /// Sets the ModRM `reg` field (or opcode extension) and the r/m side.
    fn set_modrm(&mut self, reg_field: u8, rm: &Rm) -> Result<(), EncodeError> {
        self.rex_r = reg_field > 7;
        let reg_bits = reg_field & 7;
        match rm {
            Rm::Reg(r) => {
                self.rex_b = *r > 7;
                self.modrm = Some(0xC0 | (reg_bits << 3) | (r & 7));
            }
            Rm::Mem(m) => {
                self.encode_mem(reg_bits, m)?;
            }
        }
        Ok(())
    }

    fn encode_mem(&mut self, reg_bits: u8, m: &MemRef) -> Result<(), EncodeError> {
        let disp = m.disp;
        match (m.base, m.index) {
            (None, None) => {
                // Absolute [disp32] via SIB with no base/index.
                let d32 =
                    i32::try_from(disp).map_err(|_| EncodeError::OutOfRange(format!("{m}")))?;
                self.modrm = Some((reg_bits << 3) | 0x04);
                self.sib = Some(0x25);
                self.disp.extend_from_slice(&d32.to_le_bytes());
            }
            (Some(base), None) => {
                let bn = base.number();
                self.rex_b = bn > 7;
                let needs_sib = (bn & 7) == 4; // RSP/R12
                let (mode, disp_bytes) = disp_mode(disp, (bn & 7) == 5)?;
                if needs_sib {
                    self.modrm = Some((mode << 6) | (reg_bits << 3) | 0x04);
                    self.sib = Some(0x20 | (bn & 7)); // index = none (100)
                } else {
                    self.modrm = Some((mode << 6) | (reg_bits << 3) | (bn & 7));
                }
                self.disp.extend_from_slice(&disp_bytes);
            }
            (base, Some((index, scale))) => {
                if index == Gpr::Rsp {
                    return Err(EncodeError::InvalidOperands(
                        "rsp cannot be an index register".to_string(),
                    ));
                }
                let scale_bits = match scale {
                    1 => 0u8,
                    2 => 1,
                    4 => 2,
                    8 => 3,
                    _ => {
                        return Err(EncodeError::InvalidOperands(format!(
                            "scale {scale} is not 1/2/4/8"
                        )))
                    }
                };
                let xn = index.number();
                self.rex_x = xn > 7;
                match base {
                    None => {
                        let d32 = i32::try_from(disp)
                            .map_err(|_| EncodeError::OutOfRange(format!("{m}")))?;
                        self.modrm = Some((reg_bits << 3) | 0x04);
                        self.sib = Some((scale_bits << 6) | ((xn & 7) << 3) | 0x05);
                        self.disp.extend_from_slice(&d32.to_le_bytes());
                    }
                    Some(b) => {
                        let bn = b.number();
                        self.rex_b = bn > 7;
                        let (mode, disp_bytes) = disp_mode(disp, (bn & 7) == 5)?;
                        self.modrm = Some((mode << 6) | (reg_bits << 3) | 0x04);
                        self.sib = Some((scale_bits << 6) | ((xn & 7) << 3) | (bn & 7));
                        self.disp.extend_from_slice(&disp_bytes);
                    }
                }
            }
        }
        Ok(())
    }
}

fn disp_mode(disp: i64, base_is_bp: bool) -> Result<(u8, Vec<u8>), EncodeError> {
    if disp == 0 && !base_is_bp {
        Ok((0, Vec::new()))
    } else if let Ok(d8) = i8::try_from(disp) {
        Ok((1, vec![d8 as u8]))
    } else if let Ok(d32) = i32::try_from(disp) {
        Ok((2, d32.to_le_bytes().to_vec()))
    } else {
        Err(EncodeError::OutOfRange(format!("displacement {disp:#x}")))
    }
}

enum Rm {
    Reg(u8),
    Mem(MemRef),
}

fn rm_of(op: &Operand) -> Option<(Rm, Width)> {
    match op {
        Operand::Gpr(g) => Some((Rm::Reg(g.reg.number()), g.width)),
        Operand::Mem(m) => Some((Rm::Mem(*m), m.width)),
        _ => None,
    }
}

/// `spl`/`bpl`/`sil`/`dil` need a REX prefix; without one the same register
/// numbers name `ah`/`ch`/`dh`/`bh`.
fn needs_rex_for_byte(op: &Operand) -> bool {
    matches!(op, Operand::Gpr(g) if g.width == Width::B && (4..8).contains(&g.reg.number()))
}

// ---------------------------------------------------------------------------
// The opcode table: one row per encodable form drives both the encoder and
// the decoder (§III-E)
// ---------------------------------------------------------------------------

/// Escape-map numbers: the one-byte map, then the VEX `mmmmm` field values.
const MAP_NONE: u8 = 0;
const MAP_0F: u8 = 1;
const MAP_0F38: u8 = 2;
const MAP_0F3A: u8 = 3;

/// Mandatory-prefix numbers, identical to the VEX `pp` field values.
const PP_NONE: u8 = 0;
const PP_66: u8 = 1;
const PP_F3: u8 = 2;
const PP_F2: u8 = 3;

/// Operand-width rule of a GPR row. Word and qword operands are signalled
/// by `66` and REX.W, except in [`Wr::Q`] rows, which are 64-bit by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wr {
    /// Byte operands (the even opcode of a byte/full pair).
    B,
    /// 16-, 32- or 64-bit operands.
    Wdq,
    /// 32- or 64-bit operands.
    Dq,
    /// 64-bit operands without REX.W (`push`, `mov cr3`).
    Q,
}

impl Wr {
    fn allows(self, w: Width) -> bool {
        match self {
            Wr::B => w == Width::B,
            Wr::Wdq => w != Width::B,
            Wr::Dq => matches!(w, Width::D | Width::Q),
            Wr::Q => w == Width::Q,
        }
    }

    /// The operand width a decoded instruction has, given the width the
    /// `66`/REX.W prefixes select.
    fn decoded(self, opsize: Width) -> Width {
        match self {
            Wr::B => Width::B,
            Wr::Wdq => opsize,
            Wr::Dq if opsize == Width::Q => Width::Q,
            Wr::Dq => Width::D,
            Wr::Q => Width::Q,
        }
    }
}

/// Immediate-operand size of a GPR row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Imm {
    /// Sign-extended imm8 (`83 /n ib`).
    S8,
    /// Operand-sized but at most imm32, sign-extended (`ib`/`iw`/`id`).
    Z,
    /// Operand-sized up to imm64 (`B8+r io`).
    V,
    /// Unsigned imm8 shift count.
    U8,
    /// The implicit count 1 of `D0`/`D1`: no immediate bytes.
    One,
}

impl Imm {
    fn len(self, w: Width) -> usize {
        match self {
            Imm::S8 | Imm::U8 => 1,
            Imm::Z => usize::from(w.bytes()).min(4),
            Imm::V => usize::from(w.bytes()),
            Imm::One => 0,
        }
    }

    /// The immediate's little-endian bytes, or `None` if `v` does not fit.
    fn encode(self, v: i64, w: Width) -> Option<Vec<u8>> {
        let n = self.len(w);
        let fits = match self {
            Imm::U8 => (0..=0xFF).contains(&v),
            Imm::One => v == 1,
            _ => fits_signed(v, n),
        };
        fits.then(|| v.to_le_bytes()[..n].to_vec())
    }

    fn decode(self, d: &mut Decoder, w: Width) -> Result<i64, DecodeError> {
        match self {
            Imm::U8 => d.u8().map(i64::from),
            Imm::One => Ok(1),
            _ => d.int(self.len(w)),
        }
    }
}

/// Whether `v` survives truncation to `n` bytes and sign extension.
fn fits_signed(v: i64, n: usize) -> bool {
    let shift = 64 - 8 * n as u32;
    (v << shift) >> shift == v
}

/// Source operand of a [`Form::GRm`] row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// A register or memory operand of the destination's width.
    Same,
    /// A register or memory operand of this width (`movzx`/`movsx`).
    Narrow(Width),
    /// A memory operand used only as an address (`lea`); it carries the
    /// assembler's unsized default, qword.
    Addr,
}

/// Operand form of a table row. The GPR forms follow the SDM's operand
/// encodings (`RM`, `MR`, `M`, `O`, `D`, `ZO`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    // -- GPR and system forms ------------------------------------------------
    /// No operands; the bool is the required VEX.L (`vzeroupper`/`vzeroall`).
    Bare(bool),
    /// No operands; the opcode is followed by this fixed ModRM byte
    /// (`lfence` is `0F AE E8`).
    Fixed(u8),
    /// `reg <- r/m` (`RM`).
    GRm(Wr, Src),
    /// `r/m <- reg` (`MR`), both of one width.
    GMr(Wr),
    /// `r/m` with opcode extension `/ext`, optionally with an immediate
    /// (`M`, `MI`).
    GM(Wr, u8, Option<Imm>),
    /// A register-only `/ext` form (`rdrand`, `mov cr3`).
    GReg(Wr, u8),
    /// A memory-only `/ext` form taking an address (`clflush`, `prefetch*`).
    Mem(u8),
    /// Register in the opcode's low three bits, optionally with an
    /// immediate (`O`, `OI`).
    O(Wr, Option<Imm>),
    /// Branch to a label with a signed displacement of this many bytes
    /// (`D`).
    Rel(usize),
    // -- vector forms --------------------------------------------------------
    /// `dst(vec) <- r/m(vec|mem)`; VEX.L from the destination class.
    Rm,
    /// [`Form::Rm`] plus a trailing imm8.
    RmImm,
    /// Store direction: `r/m(vec|mem) <- reg(vec)`.
    Mr,
    /// VEX three-operand: `dst(reg) <- src1(vvvv), src2(r/m)`.
    Rvm,
    /// [`Form::Rvm`] plus a trailing imm8 (`vperm2f128`, L1 only).
    RvmImm,
    /// `dst(vec, reg field) <- r/m(gpr|mem)`; REX/VEX.W per GPR width.
    VecRm,
    /// `r/m(gpr|mem) <- src(vec, reg field)`.
    RmVec,
    /// `dst(gpr, reg field) <- r/m(vec|mem)` (`pmovmskb`, `cvtsd2si`).
    GprVec,
    /// Shift-by-immediate group: vec register in r/m, extension in reg field.
    ShiftImm(u8),
    /// `vbroadcastss`: destination class from L, source is xmm or memory.
    BcastRm,
    /// `vinsertf128 ymm, ymm, xmm/m128, imm8` (L1 only).
    InsertImm,
    /// `vextractf128 xmm/m128, ymm, imm8` (L1 only).
    ExtractImm,
}

impl Form {
    /// Vector forms select on the exact mandatory prefix; GPR forms read
    /// `66` as the operand size and ignore prefixes they do not require.
    fn is_vector(self) -> bool {
        !matches!(
            self,
            Form::Bare(_)
                | Form::Fixed(_)
                | Form::GRm(..)
                | Form::GMr(_)
                | Form::GM(..)
                | Form::GReg(..)
                | Form::Mem(_)
                | Form::O(..)
                | Form::Rel(_)
        )
    }

    /// Whether the ModRM byte `b` fits this form's `/ext`, register-or-memory
    /// requirement or fixed value.
    fn accepts_modrm(self, b: u8) -> bool {
        let (ext, is_reg) = ((b >> 3) & 7, b >> 6 == 3);
        match self {
            Form::Fixed(x) => b == x,
            Form::GM(_, e, _) => ext == e,
            Form::GReg(_, e) | Form::ShiftImm(e) => ext == e && is_reg,
            Form::Mem(e) => ext == e && !is_reg,
            Form::GRm(_, Src::Addr) => !is_reg,
            _ => true,
        }
    }
}

/// One encodable instruction form. `w: Some(_)` pins REX/VEX.W (it
/// disambiguates `movd`/`movq` and the FMA ps/pd pairs); `None` derives W
/// from the operands.
struct Op {
    m: Mnemonic,
    vex: bool,
    map: u8,
    pp: u8,
    op: u8,
    w: Option<bool>,
    form: Form,
}

/// A one-byte-map opcode without a mandatory prefix.
const fn one(m: Mnemonic, op: u8, form: Form) -> Op {
    sse(m, MAP_NONE, PP_NONE, op, form)
}

/// A `0F`-map opcode without a mandatory prefix.
const fn two(m: Mnemonic, op: u8, form: Form) -> Op {
    sse(m, MAP_0F, PP_NONE, op, form)
}

/// A legacy (non-VEX) opcode in any map, with a mandatory prefix.
const fn sse(m: Mnemonic, map: u8, pp: u8, op: u8, form: Form) -> Op {
    Op {
        m,
        vex: false,
        map,
        pp,
        op,
        w: None,
        form,
    }
}

const fn ssew(m: Mnemonic, map: u8, pp: u8, op: u8, w: bool, form: Form) -> Op {
    Op {
        w: Some(w),
        ..sse(m, map, pp, op, form)
    }
}

const fn vex(m: Mnemonic, map: u8, pp: u8, op: u8, form: Form) -> Op {
    Op {
        vex: true,
        ..sse(m, map, pp, op, form)
    }
}

const fn vexw(m: Mnemonic, map: u8, pp: u8, op: u8, w: bool, form: Form) -> Op {
    Op {
        w: Some(w),
        ..vex(m, map, pp, op, form)
    }
}

/// The opcode table (see the module docs for the encoder's first-match
/// rule and the decoder's key).
#[rustfmt::skip]
const OPS: &[Op] = {
    use Form::*;
    use Imm::*;
    use Mnemonic::*;
    use Src::*;
    use Wr::*;
    &[
    // -- data movement -------------------------------------------------------
    one(Mov, 0x8A, GRm(B, Same)),
    one(Mov, 0x8B, GRm(Wdq, Same)),
    one(Mov, 0x88, GMr(B)),
    one(Mov, 0x89, GMr(Wdq)),
    one(Mov, 0xC6, GM(B, 0, Some(Z))),
    one(Mov, 0xC7, GM(Wdq, 0, Some(Z))),
    one(Mov, 0xB8, O(Wdq, Some(V))), // movabs; below qword C7 wins
    two(Movzx, 0xB6, GRm(Wdq, Narrow(Width::B))),
    two(Movzx, 0xB7, GRm(Wdq, Narrow(Width::W))),
    two(Movsx, 0xBE, GRm(Wdq, Narrow(Width::B))),
    two(Movsx, 0xBF, GRm(Wdq, Narrow(Width::W))),
    one(Lea, 0x8D, GRm(Wdq, Addr)),
    one(Xchg, 0x86, GMr(B)),
    one(Xchg, 0x87, GMr(Wdq)),
    two(Xadd, 0xC0, GMr(B)),
    two(Xadd, 0xC1, GMr(Wdq)),
    one(Push, 0x50, O(Q, None)),
    one(Pop, 0x58, O(Q, None)),
    two(Bswap, 0xC8, O(Wdq, None)),
    two(Cmovz, 0x44, GRm(Wdq, Same)),
    two(Cmovnz, 0x45, GRm(Wdq, Same)),
    two(Setz, 0x94, GM(B, 0, None)),
    two(Setnz, 0x95, GM(B, 0, None)),
    // -- integer ALU: RM, MR, then MI with the sign-extended imm8 first -------
    one(Add, 0x02, GRm(B, Same)),
    one(Add, 0x03, GRm(Wdq, Same)),
    one(Add, 0x00, GMr(B)),
    one(Add, 0x01, GMr(Wdq)),
    one(Add, 0x80, GM(B, 0, Some(Z))),
    one(Add, 0x83, GM(Wdq, 0, Some(S8))),
    one(Add, 0x81, GM(Wdq, 0, Some(Z))),
    one(Or, 0x0A, GRm(B, Same)),
    one(Or, 0x0B, GRm(Wdq, Same)),
    one(Or, 0x08, GMr(B)),
    one(Or, 0x09, GMr(Wdq)),
    one(Or, 0x80, GM(B, 1, Some(Z))),
    one(Or, 0x83, GM(Wdq, 1, Some(S8))),
    one(Or, 0x81, GM(Wdq, 1, Some(Z))),
    one(Adc, 0x12, GRm(B, Same)),
    one(Adc, 0x13, GRm(Wdq, Same)),
    one(Adc, 0x10, GMr(B)),
    one(Adc, 0x11, GMr(Wdq)),
    one(Adc, 0x80, GM(B, 2, Some(Z))),
    one(Adc, 0x83, GM(Wdq, 2, Some(S8))),
    one(Adc, 0x81, GM(Wdq, 2, Some(Z))),
    one(Sbb, 0x1A, GRm(B, Same)),
    one(Sbb, 0x1B, GRm(Wdq, Same)),
    one(Sbb, 0x18, GMr(B)),
    one(Sbb, 0x19, GMr(Wdq)),
    one(Sbb, 0x80, GM(B, 3, Some(Z))),
    one(Sbb, 0x83, GM(Wdq, 3, Some(S8))),
    one(Sbb, 0x81, GM(Wdq, 3, Some(Z))),
    one(And, 0x22, GRm(B, Same)),
    one(And, 0x23, GRm(Wdq, Same)),
    one(And, 0x20, GMr(B)),
    one(And, 0x21, GMr(Wdq)),
    one(And, 0x80, GM(B, 4, Some(Z))),
    one(And, 0x83, GM(Wdq, 4, Some(S8))),
    one(And, 0x81, GM(Wdq, 4, Some(Z))),
    one(Sub, 0x2A, GRm(B, Same)),
    one(Sub, 0x2B, GRm(Wdq, Same)),
    one(Sub, 0x28, GMr(B)),
    one(Sub, 0x29, GMr(Wdq)),
    one(Sub, 0x80, GM(B, 5, Some(Z))),
    one(Sub, 0x83, GM(Wdq, 5, Some(S8))),
    one(Sub, 0x81, GM(Wdq, 5, Some(Z))),
    one(Xor, 0x32, GRm(B, Same)),
    one(Xor, 0x33, GRm(Wdq, Same)),
    one(Xor, 0x30, GMr(B)),
    one(Xor, 0x31, GMr(Wdq)),
    one(Xor, 0x80, GM(B, 6, Some(Z))),
    one(Xor, 0x83, GM(Wdq, 6, Some(S8))),
    one(Xor, 0x81, GM(Wdq, 6, Some(Z))),
    one(Cmp, 0x3A, GRm(B, Same)),
    one(Cmp, 0x3B, GRm(Wdq, Same)),
    one(Cmp, 0x38, GMr(B)),
    one(Cmp, 0x39, GMr(Wdq)),
    one(Cmp, 0x80, GM(B, 7, Some(Z))),
    one(Cmp, 0x83, GM(Wdq, 7, Some(S8))),
    one(Cmp, 0x81, GM(Wdq, 7, Some(Z))),
    one(Test, 0x84, GMr(B)),
    one(Test, 0x85, GMr(Wdq)),
    one(Test, 0xF6, GM(B, 0, Some(Z))),
    one(Test, 0xF7, GM(Wdq, 0, Some(Z))),
    one(Inc, 0xFE, GM(B, 0, None)),
    one(Inc, 0xFF, GM(Wdq, 0, None)),
    one(Dec, 0xFE, GM(B, 1, None)),
    one(Dec, 0xFF, GM(Wdq, 1, None)),
    one(Not, 0xF6, GM(B, 2, None)),
    one(Not, 0xF7, GM(Wdq, 2, None)),
    one(Neg, 0xF6, GM(B, 3, None)),
    one(Neg, 0xF7, GM(Wdq, 3, None)),
    one(Mul, 0xF6, GM(B, 4, None)),
    one(Mul, 0xF7, GM(Wdq, 4, None)),
    one(Imul, 0xF6, GM(B, 5, None)),
    one(Imul, 0xF7, GM(Wdq, 5, None)),
    two(Imul, 0xAF, GRm(Wdq, Same)),
    one(Div, 0xF6, GM(B, 6, None)),
    one(Div, 0xF7, GM(Wdq, 6, None)),
    one(Idiv, 0xF6, GM(B, 7, None)),
    one(Idiv, 0xF7, GM(Wdq, 7, None)),
    // -- shifts and rotates: the implicit count 1 first ------------------------
    one(Rol, 0xD0, GM(B, 0, Some(One))),
    one(Rol, 0xD1, GM(Wdq, 0, Some(One))),
    one(Rol, 0xC0, GM(B, 0, Some(U8))),
    one(Rol, 0xC1, GM(Wdq, 0, Some(U8))),
    one(Ror, 0xD0, GM(B, 1, Some(One))),
    one(Ror, 0xD1, GM(Wdq, 1, Some(One))),
    one(Ror, 0xC0, GM(B, 1, Some(U8))),
    one(Ror, 0xC1, GM(Wdq, 1, Some(U8))),
    one(Shl, 0xD0, GM(B, 4, Some(One))),
    one(Shl, 0xD1, GM(Wdq, 4, Some(One))),
    one(Shl, 0xC0, GM(B, 4, Some(U8))),
    one(Shl, 0xC1, GM(Wdq, 4, Some(U8))),
    one(Shr, 0xD0, GM(B, 5, Some(One))),
    one(Shr, 0xD1, GM(Wdq, 5, Some(One))),
    one(Shr, 0xC0, GM(B, 5, Some(U8))),
    one(Shr, 0xC1, GM(Wdq, 5, Some(U8))),
    one(Sar, 0xD0, GM(B, 7, Some(One))),
    one(Sar, 0xD1, GM(Wdq, 7, Some(One))),
    one(Sar, 0xC0, GM(B, 7, Some(U8))),
    one(Sar, 0xC1, GM(Wdq, 7, Some(U8))),
    // -- bit counting ----------------------------------------------------------
    sse(Popcnt, MAP_0F, PP_F3, 0xB8, GRm(Wdq, Same)),
    sse(Tzcnt, MAP_0F, PP_F3, 0xBC, GRm(Wdq, Same)),
    sse(Lzcnt, MAP_0F, PP_F3, 0xBD, GRm(Wdq, Same)),
    two(Bsf, 0xBC, GRm(Wdq, Same)),
    two(Bsr, 0xBD, GRm(Wdq, Same)),
    sse(Crc32, MAP_0F38, PP_F2, 0xF1, GRm(Dq, Same)),
    // -- control flow: rel32 first, so the rel8 rows are decode-only ----------
    one(Jmp, 0xE9, Rel(4)),
    one(Jmp, 0xEB, Rel(1)),
    one(Call, 0xE8, Rel(4)),
    two(Jc, 0x82, Rel(4)),
    one(Jc, 0x72, Rel(1)),
    two(Jnc, 0x83, Rel(4)),
    one(Jnc, 0x73, Rel(1)),
    two(Jz, 0x84, Rel(4)),
    one(Jz, 0x74, Rel(1)),
    two(Jnz, 0x85, Rel(4)),
    one(Jnz, 0x75, Rel(1)),
    one(Ret, 0xC3, Bare(false)),
    one(Nop, 0x90, Bare(false)),
    sse(Pause, MAP_NONE, PP_F3, 0x90, Bare(false)),
    // -- fences, serialization, counters ---------------------------------------
    two(Lfence, 0xAE, Fixed(0xE8)),
    two(Mfence, 0xAE, Fixed(0xF0)),
    two(Sfence, 0xAE, Fixed(0xF8)),
    two(Cpuid, 0xA2, Bare(false)),
    two(Rdtsc, 0x31, Bare(false)),
    two(Rdtscp, 0x01, Fixed(0xF9)),
    two(Rdpmc, 0x33, Bare(false)),
    // -- privileged (§III-D) ---------------------------------------------------
    two(Rdmsr, 0x32, Bare(false)),
    two(Wrmsr, 0x30, Bare(false)),
    two(Wbinvd, 0x09, Bare(false)),
    two(Invd, 0x08, Bare(false)),
    two(Invlpg, 0x01, Mem(7)),
    one(Cli, 0xFA, Bare(false)),
    one(Sti, 0xFB, Bare(false)),
    one(Hlt, 0xF4, Bare(false)),
    two(Swapgs, 0x01, Fixed(0xF8)),
    two(MovCr3, 0x22, GReg(Q, 3)),
    // -- cache control and random numbers ----------------------------------------
    two(Clflush, 0xAE, Mem(7)),
    sse(Clflushopt, MAP_0F, PP_66, 0xAE, Mem(7)),
    two(Prefetchnta, 0x18, Mem(0)),
    two(Prefetcht0, 0x18, Mem(1)),
    two(Prefetcht1, 0x18, Mem(2)),
    two(Prefetcht2, 0x18, Mem(3)),
    two(Rdrand, 0xC7, GReg(Wdq, 6)),
    two(Rdseed, 0xC7, GReg(Wdq, 7)),
    // -- SSE moves (load and store opcodes) --------------------------------
    sse(Movaps, MAP_0F, PP_NONE, 0x28, Rm),
    sse(Movaps, MAP_0F, PP_NONE, 0x29, Mr),
    sse(Movups, MAP_0F, PP_NONE, 0x10, Rm),
    sse(Movups, MAP_0F, PP_NONE, 0x11, Mr),
    sse(Movapd, MAP_0F, PP_66, 0x28, Rm),
    sse(Movapd, MAP_0F, PP_66, 0x29, Mr),
    sse(Movdqa, MAP_0F, PP_66, 0x6F, Rm),
    sse(Movdqa, MAP_0F, PP_66, 0x7F, Mr),
    sse(Movdqu, MAP_0F, PP_F3, 0x6F, Rm),
    sse(Movdqu, MAP_0F, PP_F3, 0x7F, Mr),
    sse(Movq, MAP_0F, PP_F3, 0x7E, Rm), // xmm <- xmm/m64
    ssew(Movd, MAP_0F, PP_66, 0x6E, false, VecRm),
    ssew(Movd, MAP_0F, PP_66, 0x7E, false, RmVec),
    ssew(Movq, MAP_0F, PP_66, 0x6E, true, VecRm),
    ssew(Movq, MAP_0F, PP_66, 0x7E, true, RmVec),
    // -- SSE packed/scalar float -------------------------------------------
    sse(Addps, MAP_0F, PP_NONE, 0x58, Rm),
    sse(Addpd, MAP_0F, PP_66, 0x58, Rm),
    sse(Addss, MAP_0F, PP_F3, 0x58, Rm),
    sse(Addsd, MAP_0F, PP_F2, 0x58, Rm),
    sse(Subps, MAP_0F, PP_NONE, 0x5C, Rm),
    sse(Subpd, MAP_0F, PP_66, 0x5C, Rm),
    sse(Subss, MAP_0F, PP_F3, 0x5C, Rm),
    sse(Subsd, MAP_0F, PP_F2, 0x5C, Rm),
    sse(Mulps, MAP_0F, PP_NONE, 0x59, Rm),
    sse(Mulpd, MAP_0F, PP_66, 0x59, Rm),
    sse(Mulss, MAP_0F, PP_F3, 0x59, Rm),
    sse(Mulsd, MAP_0F, PP_F2, 0x59, Rm),
    sse(Divps, MAP_0F, PP_NONE, 0x5E, Rm),
    sse(Divpd, MAP_0F, PP_66, 0x5E, Rm),
    sse(Divss, MAP_0F, PP_F3, 0x5E, Rm),
    sse(Divsd, MAP_0F, PP_F2, 0x5E, Rm),
    sse(Sqrtps, MAP_0F, PP_NONE, 0x51, Rm),
    sse(Sqrtpd, MAP_0F, PP_66, 0x51, Rm),
    sse(Sqrtss, MAP_0F, PP_F3, 0x51, Rm),
    sse(Sqrtsd, MAP_0F, PP_F2, 0x51, Rm),
    sse(Maxps, MAP_0F, PP_NONE, 0x5F, Rm),
    sse(Minps, MAP_0F, PP_NONE, 0x5D, Rm),
    sse(Andps, MAP_0F, PP_NONE, 0x54, Rm),
    sse(Orps, MAP_0F, PP_NONE, 0x56, Rm),
    sse(Xorps, MAP_0F, PP_NONE, 0x57, Rm),
    sse(Comiss, MAP_0F, PP_NONE, 0x2F, Rm),
    sse(Comisd, MAP_0F, PP_66, 0x2F, Rm),
    sse(Cvtss2sd, MAP_0F, PP_F3, 0x5A, Rm),
    sse(Cvtsd2ss, MAP_0F, PP_F2, 0x5A, Rm),
    sse(Cvtsi2sd, MAP_0F, PP_F2, 0x2A, VecRm),
    sse(Cvtsd2si, MAP_0F, PP_F2, 0x2D, GprVec),
    sse(Haddps, MAP_0F, PP_F2, 0x7C, Rm),
    sse(Shufps, MAP_0F, PP_NONE, 0xC6, RmImm),
    sse(Pshufd, MAP_0F, PP_66, 0x70, RmImm),
    sse(Roundps, MAP_0F3A, PP_66, 0x08, RmImm),
    sse(Blendps, MAP_0F3A, PP_66, 0x0C, RmImm),
    sse(Dpps, MAP_0F3A, PP_66, 0x40, RmImm),
    sse(Pclmulqdq, MAP_0F3A, PP_66, 0x44, RmImm),
    // -- SSE packed integer ------------------------------------------------
    sse(Paddb, MAP_0F, PP_66, 0xFC, Rm),
    sse(Paddw, MAP_0F, PP_66, 0xFD, Rm),
    sse(Paddd, MAP_0F, PP_66, 0xFE, Rm),
    sse(Paddq, MAP_0F, PP_66, 0xD4, Rm),
    sse(Psubb, MAP_0F, PP_66, 0xF8, Rm),
    sse(Psubd, MAP_0F, PP_66, 0xFA, Rm),
    sse(Psubq, MAP_0F, PP_66, 0xFB, Rm),
    sse(Pmullw, MAP_0F, PP_66, 0xD5, Rm),
    sse(Pmuludq, MAP_0F, PP_66, 0xF4, Rm),
    sse(Pmaddwd, MAP_0F, PP_66, 0xF5, Rm),
    sse(Pand, MAP_0F, PP_66, 0xDB, Rm),
    sse(Por, MAP_0F, PP_66, 0xEB, Rm),
    sse(Pxor, MAP_0F, PP_66, 0xEF, Rm),
    sse(Pcmpeqb, MAP_0F, PP_66, 0x74, Rm),
    sse(Pcmpeqd, MAP_0F, PP_66, 0x76, Rm),
    sse(Pcmpgtd, MAP_0F, PP_66, 0x66, Rm),
    sse(Psllw, MAP_0F, PP_66, 0xF1, Rm),
    sse(Pslld, MAP_0F, PP_66, 0xF2, Rm),
    sse(Psllq, MAP_0F, PP_66, 0xF3, Rm),
    sse(Psllw, MAP_0F, PP_66, 0x71, ShiftImm(6)),
    sse(Pslld, MAP_0F, PP_66, 0x72, ShiftImm(6)),
    sse(Psllq, MAP_0F, PP_66, 0x73, ShiftImm(6)),
    sse(Punpcklbw, MAP_0F, PP_66, 0x60, Rm),
    sse(Punpckldq, MAP_0F, PP_66, 0x62, Rm),
    sse(Packsswb, MAP_0F, PP_66, 0x63, Rm),
    sse(Pmovmskb, MAP_0F, PP_66, 0xD7, GprVec),
    sse(Psadbw, MAP_0F, PP_66, 0xF6, Rm),
    sse(Pshufb, MAP_0F38, PP_66, 0x00, Rm),
    sse(Phaddd, MAP_0F38, PP_66, 0x02, Rm),
    sse(Ptest, MAP_0F38, PP_66, 0x17, Rm),
    sse(Pabsd, MAP_0F38, PP_66, 0x1E, Rm),
    sse(Pminsd, MAP_0F38, PP_66, 0x39, Rm),
    sse(Pmaxsd, MAP_0F38, PP_66, 0x3D, Rm),
    sse(Pmulld, MAP_0F38, PP_66, 0x40, Rm),
    // -- crypto / misc -----------------------------------------------------
    sse(Aesenc, MAP_0F38, PP_66, 0xDC, Rm),
    sse(Aesenclast, MAP_0F38, PP_66, 0xDD, Rm),
    sse(Aesdec, MAP_0F38, PP_66, 0xDE, Rm),
    sse(Sha256rnds2, MAP_0F38, PP_NONE, 0xCB, Rm),
    // -- AVX (VEX-coded) ---------------------------------------------------
    vex(Vaddps, MAP_0F, PP_NONE, 0x58, Rvm),
    vex(Vaddpd, MAP_0F, PP_66, 0x58, Rvm),
    vex(Vmulps, MAP_0F, PP_NONE, 0x59, Rvm),
    vex(Vmulpd, MAP_0F, PP_66, 0x59, Rvm),
    vex(Vdivps, MAP_0F, PP_NONE, 0x5E, Rvm),
    vex(Vdivpd, MAP_0F, PP_66, 0x5E, Rvm),
    vex(Vsqrtps, MAP_0F, PP_NONE, 0x51, Rm),
    vexw(Vfmadd132ps, MAP_0F38, PP_66, 0x98, false, Rvm),
    vexw(Vfmadd213ps, MAP_0F38, PP_66, 0xA8, false, Rvm),
    vexw(Vfmadd231ps, MAP_0F38, PP_66, 0xB8, false, Rvm),
    vexw(Vfmadd231pd, MAP_0F38, PP_66, 0xB8, true, Rvm),
    vex(Vpaddd, MAP_0F, PP_66, 0xFE, Rvm),
    vex(Vpaddq, MAP_0F, PP_66, 0xD4, Rvm),
    vex(Vpmulld, MAP_0F38, PP_66, 0x40, Rvm),
    vex(Vpand, MAP_0F, PP_66, 0xDB, Rvm),
    vex(Vpor, MAP_0F, PP_66, 0xEB, Rvm),
    vex(Vpxor, MAP_0F, PP_66, 0xEF, Rvm),
    vex(Vpermilps, MAP_0F38, PP_66, 0x0C, Rvm),
    vex(Vpermilps, MAP_0F3A, PP_66, 0x04, RmImm),
    vex(Vperm2f128, MAP_0F3A, PP_66, 0x06, RvmImm),
    vex(Vbroadcastss, MAP_0F38, PP_66, 0x18, BcastRm),
    vex(Vinsertf128, MAP_0F3A, PP_66, 0x18, InsertImm),
    vex(Vextractf128, MAP_0F3A, PP_66, 0x19, ExtractImm),
    vex(Vzeroupper, MAP_0F, PP_NONE, 0x77, Bare(false)),
    vex(Vzeroall, MAP_0F, PP_NONE, 0x77, Bare(true)),
    ]
};

/// Extracts a vector register of the given class.
fn vec_of(op: &Operand, class: VecClass) -> Option<VecReg> {
    match op {
        Operand::Vec(v) if v.class == class => Some(*v),
        _ => None,
    }
}

/// Extracts a vector register (class-checked) or memory r/m side.
fn rm_vec_or_mem(op: &Operand, class: VecClass) -> Option<Rm> {
    match op {
        Operand::Vec(v) if v.class == class => Some(Rm::Reg(v.index)),
        Operand::Mem(m) => Some(Rm::Mem(*m)),
        _ => None,
    }
}

/// Extracts a GPR of width D or Q (returning the W bit) or memory r/m side.
/// For memory operands the width falls back to `mem_w`.
fn rm_gpr_or_mem(op: &Operand, mem_w: bool) -> Option<(Rm, bool)> {
    match op {
        Operand::Gpr(g) if g.width == Width::Q => Some((Rm::Reg(g.reg.number()), true)),
        Operand::Gpr(g) if g.width == Width::D => Some((Rm::Reg(g.reg.number()), false)),
        Operand::Mem(m) => Some((Rm::Mem(*m), mem_w)),
        _ => None,
    }
}

fn imm8_of(op: &Operand, inst: &Instruction) -> Result<u8, EncodeError> {
    let v = op
        .as_imm()
        .ok_or_else(|| EncodeError::InvalidOperands(inst.to_string()))?;
    u8::try_from(v).map_err(|_| EncodeError::OutOfRange(inst.to_string()))
}

/// The VEX.L bit for an operand set: 1 iff the governing register is ymm.
fn l_bit(class: VecClass) -> bool {
    class == VecClass::Ymm
}

/// Assembles a VEX-prefixed instruction from a filled [`Enc`] (modrm, sib,
/// disp, imm and the R/X/B extension flags) plus the VEX fields. Uses the
/// 2-byte `C5` form whenever it can represent the instruction.
fn emit_vex(e: &Enc, entry: &Op, w: bool, l: bool, vvvv: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    let vbar = (!vvvv) & 0x0F;
    let r = !e.rex_r as u8;
    if entry.map == MAP_0F && !w && !e.rex_x && !e.rex_b {
        out.push(0xC5);
        out.push((r << 7) | (vbar << 3) | ((l as u8) << 2) | entry.pp);
    } else {
        out.push(0xC4);
        out.push((r << 7) | ((!e.rex_x as u8) << 6) | ((!e.rex_b as u8) << 5) | entry.map);
        out.push(((w as u8) << 7) | (vbar << 3) | ((l as u8) << 2) | entry.pp);
    }
    out.push(entry.op);
    if let Some(m) = e.modrm {
        out.push(m);
    }
    if let Some(s) = e.sib {
        out.push(s);
    }
    out.extend_from_slice(&e.disp);
    out.extend_from_slice(&e.imm);
    out
}

/// Finishes a legacy encoding: mandatory prefix, escape map, and the opcode
/// plus `low` (the `+r` register bits).
fn emit_legacy(mut e: Enc, entry: &Op, low: u8) -> Vec<u8> {
    match entry.pp {
        PP_66 => e.prefix66 = true,
        PP_F3 => e.prefix_f3 = true,
        PP_F2 => e.prefix_f2 = true,
        _ => {}
    }
    let escape: &[u8] = match entry.map {
        MAP_NONE => &[],
        MAP_0F => &[0x0F],
        MAP_0F38 => &[0x0F, 0x38],
        _ => &[0x0F, 0x3A],
    };
    e.opcode = [escape, &[entry.op | low]].concat();
    e.emit()
}

/// Finishes a GPR row: `66`/REX.W for the operand width, then the opcode.
fn emit_gpr(mut e: Enc, entry: &Op, wr: Wr, w: Width, low: u8) -> Vec<u8> {
    if wr != Wr::Q {
        e.set_width(w);
    }
    emit_legacy(e, entry, low)
}

/// Finishes a row whose REX/VEX.W is `w` (vector rows, bare opcodes) once
/// the ModRM side is set: legacy or VEX emission.
fn emit_entry(mut e: Enc, entry: &Op, w: bool, l: bool, vvvv: u8) -> Vec<u8> {
    if entry.vex {
        emit_vex(&e, entry, w, l, vvvv)
    } else {
        e.rex_w = w;
        emit_legacy(e, entry, 0)
    }
}

/// Maps a label to its byte offset (`None` when the label is out of range).
type Targets<'a> = &'a dyn Fn(usize) -> Option<usize>;

/// Splits a GPR form's operands into its register-or-memory operand and the
/// immediate the row expects, when their count and kinds fit.
fn operand_and_imm(ops: &[Operand], imm: Option<Imm>) -> Option<(&Operand, Option<(Imm, i64)>)> {
    match (ops, imm) {
        ([op], None) => Some((op, None)),
        ([op, Operand::Imm(v)], Some(imm)) => Some((op, Some((imm, *v)))),
        _ => None,
    }
}

/// Tries to encode `inst`, placed at byte offset `start`, against one table
/// row. `Ok(None)` means the row's operand form does not match (the caller
/// tries the next row); errors are raised only for forms that matched
/// structurally.
fn try_encode(
    entry: &Op,
    inst: &Instruction,
    start: usize,
    target: Targets,
) -> Result<Option<Vec<u8>>, EncodeError> {
    // Legacy SSE operates on xmm only; VEX forms derive L from the class.
    let sse_class = VecClass::Xmm;
    let ops = inst.operands.as_slice();
    let w_default = entry.w.unwrap_or(false);
    let out_of_range = || EncodeError::OutOfRange(inst.to_string());
    let mut e = Enc {
        force_rex: ops.iter().any(needs_rex_for_byte),
        ..Enc::default()
    };
    let bytes = match entry.form {
        Form::Bare(l) => {
            if !ops.is_empty() {
                return Ok(None);
            }
            emit_entry(e, entry, w_default, l, 0)
        }
        Form::Fixed(modrm) => {
            if !ops.is_empty() {
                return Ok(None);
            }
            e.modrm = Some(modrm);
            emit_legacy(e, entry, 0)
        }
        Form::GRm(wr, src) => {
            let [Operand::Gpr(d), s] = ops else {
                return Ok(None);
            };
            let rm = match (src, s) {
                (Src::Addr, Operand::Mem(m)) if m.width == Width::Q => Some(Rm::Mem(*m)),
                (Src::Addr, _) => None,
                (Src::Same, _) => rm_of(s).filter(|(_, w)| *w == d.width).map(|(rm, _)| rm),
                (Src::Narrow(n), _) => rm_of(s).filter(|(_, w)| *w == n).map(|(rm, _)| rm),
            };
            let Some(rm) = rm.filter(|_| wr.allows(d.width)) else {
                return Ok(None);
            };
            e.set_modrm(d.reg.number(), &rm)?;
            emit_gpr(e, entry, wr, d.width, 0)
        }
        Form::GMr(wr) => {
            let [dst, Operand::Gpr(s)] = ops else {
                return Ok(None);
            };
            let Some((rm, w)) = rm_of(dst).filter(|(_, w)| *w == s.width && wr.allows(*w)) else {
                return Ok(None);
            };
            e.set_modrm(s.reg.number(), &rm)?;
            emit_gpr(e, entry, wr, w, 0)
        }
        Form::GM(wr, ext, imm) => {
            let Some((dst, imm)) = operand_and_imm(ops, imm) else {
                return Ok(None);
            };
            let Some((rm, w)) = rm_of(dst).filter(|(_, w)| wr.allows(*w)) else {
                return Ok(None);
            };
            if let Some((imm, v)) = imm {
                e.imm = imm.encode(v, w).ok_or_else(out_of_range)?;
            }
            e.set_modrm(ext, &rm)?;
            emit_gpr(e, entry, wr, w, 0)
        }
        Form::GReg(wr, ext) => {
            let [Operand::Gpr(g)] = ops else {
                return Ok(None);
            };
            if !wr.allows(g.width) {
                return Ok(None);
            }
            e.set_modrm(ext, &Rm::Reg(g.reg.number()))?;
            emit_gpr(e, entry, wr, g.width, 0)
        }
        Form::Mem(ext) => {
            let [Operand::Mem(m)] = ops else {
                return Ok(None);
            };
            if m.width != Width::Q {
                return Ok(None);
            }
            e.set_modrm(ext, &Rm::Mem(*m))?;
            emit_legacy(e, entry, 0)
        }
        Form::O(wr, imm) => {
            let Some((Operand::Gpr(g), imm)) = operand_and_imm(ops, imm) else {
                return Ok(None);
            };
            if !wr.allows(g.width) {
                return Ok(None);
            }
            if let Some((imm, v)) = imm {
                e.imm = imm.encode(v, g.width).ok_or_else(out_of_range)?;
            }
            e.rex_b = g.reg.number() > 7;
            emit_gpr(e, entry, wr, g.width, g.reg.number() & 7)
        }
        Form::Rel(n) => {
            let [Operand::Label(t)] = ops else {
                return Ok(None);
            };
            let target = target(*t)
                .ok_or_else(|| EncodeError::InvalidOperands(format!("label @{t} out of range")))?;
            e.imm = vec![0; n];
            let mut bytes = emit_legacy(e, entry, 0);
            let rel = target as i64 - (start + bytes.len()) as i64;
            if !fits_signed(rel, n) {
                return Err(out_of_range());
            }
            let at = bytes.len() - n;
            bytes[at..].copy_from_slice(&rel.to_le_bytes()[..n]);
            bytes
        }
        Form::Rm | Form::RmImm => {
            let n = if entry.form == Form::Rm { 2 } else { 3 };
            if ops.len() != n {
                return Ok(None);
            }
            let class = match (entry.vex, ops[0]) {
                (false, _) => sse_class,
                (true, Operand::Vec(v)) => v.class,
                _ => return Ok(None),
            };
            let (Some(d), Some(rm)) = (vec_of(&ops[0], class), rm_vec_or_mem(&ops[1], class))
            else {
                return Ok(None);
            };
            e.set_modrm(d.index, &rm)?;
            if entry.form == Form::RmImm {
                e.imm.push(imm8_of(&ops[2], inst)?);
            }
            emit_entry(e, entry, w_default, l_bit(class), 0)
        }
        Form::Mr => {
            let [dst, src] = ops else { return Ok(None) };
            let (Some(rm), Some(s)) = (rm_vec_or_mem(dst, sse_class), vec_of(src, sse_class))
            else {
                return Ok(None);
            };
            e.set_modrm(s.index, &rm)?;
            emit_entry(e, entry, w_default, false, 0)
        }
        Form::Rvm | Form::RvmImm => {
            let n = if entry.form == Form::Rvm { 3 } else { 4 };
            if ops.len() != n {
                return Ok(None);
            }
            let Operand::Vec(d) = ops[0] else {
                return Ok(None);
            };
            let class = d.class;
            if entry.form == Form::RvmImm && class != VecClass::Ymm {
                // vperm2f128 is defined for ymm only (VEX.L must be 1).
                return Err(EncodeError::InvalidOperands(inst.to_string()));
            }
            let (Some(v), Some(rm)) = (vec_of(&ops[1], class), rm_vec_or_mem(&ops[2], class))
            else {
                return Ok(None);
            };
            e.set_modrm(d.index, &rm)?;
            if entry.form == Form::RvmImm {
                e.imm.push(imm8_of(&ops[3], inst)?);
            }
            emit_entry(e, entry, w_default, l_bit(class), v.index)
        }
        Form::VecRm => {
            let [dst, src] = ops else { return Ok(None) };
            let (Some(d), Some((rm, w))) = (vec_of(dst, sse_class), rm_gpr_or_mem(src, w_default))
            else {
                return Ok(None);
            };
            if entry.w.is_some_and(|req| req != w) {
                // `movd` takes a 32-bit GPR, `movq` a 64-bit one.
                return Err(EncodeError::InvalidOperands(inst.to_string()));
            }
            e.set_modrm(d.index, &rm)?;
            emit_entry(e, entry, w, false, 0)
        }
        Form::RmVec => {
            let [dst, src] = ops else { return Ok(None) };
            let (Some((rm, w)), Some(s)) = (rm_gpr_or_mem(dst, w_default), vec_of(src, sse_class))
            else {
                return Ok(None);
            };
            if entry.w.is_some_and(|req| req != w) {
                return Err(EncodeError::InvalidOperands(inst.to_string()));
            }
            e.set_modrm(s.index, &rm)?;
            emit_entry(e, entry, w, false, 0)
        }
        Form::GprVec => {
            let [dst, src] = ops else { return Ok(None) };
            let (Some(d), Some(rm)) = (dst.as_gpr(), rm_vec_or_mem(src, sse_class)) else {
                return Ok(None);
            };
            let w = match d.width {
                Width::Q => true,
                Width::D => false,
                _ => return Err(EncodeError::InvalidOperands(inst.to_string())),
            };
            e.set_modrm(d.reg.number(), &rm)?;
            emit_entry(e, entry, w, false, 0)
        }
        Form::ShiftImm(ext) => {
            let [dst, Operand::Imm(_)] = ops else {
                return Ok(None);
            };
            let Some(d) = vec_of(dst, sse_class) else {
                return Ok(None);
            };
            e.set_modrm(ext, &Rm::Reg(d.index))?;
            e.imm.push(imm8_of(&ops[1], inst)?);
            emit_entry(e, entry, w_default, false, 0)
        }
        Form::BcastRm => {
            let [dst, src] = ops else { return Ok(None) };
            let (Operand::Vec(d), Some(rm)) = (dst, rm_vec_or_mem(src, VecClass::Xmm)) else {
                return Ok(None);
            };
            e.set_modrm(d.index, &rm)?;
            emit_entry(e, entry, w_default, l_bit(d.class), 0)
        }
        Form::InsertImm => {
            let [dst, src1, src2, imm] = ops else {
                return Ok(None);
            };
            let (Some(d), Some(v), Some(rm)) = (
                vec_of(dst, VecClass::Ymm),
                vec_of(src1, VecClass::Ymm),
                rm_vec_or_mem(src2, VecClass::Xmm),
            ) else {
                return Ok(None);
            };
            e.set_modrm(d.index, &rm)?;
            e.imm.push(imm8_of(imm, inst)?);
            emit_entry(e, entry, w_default, true, v.index)
        }
        Form::ExtractImm => {
            let [dst, src, imm] = ops else {
                return Ok(None);
            };
            let (Some(rm), Some(s)) = (
                rm_vec_or_mem(dst, VecClass::Xmm),
                vec_of(src, VecClass::Ymm),
            ) else {
                return Ok(None);
            };
            e.set_modrm(s.index, &rm)?;
            e.imm.push(imm8_of(imm, inst)?);
            emit_entry(e, entry, w_default, true, 0)
        }
    };
    Ok(Some(bytes))
}

/// Encodes one instruction at byte offset `start`: the first table row of its mnemonic
/// whose form accepts the operands. A row that matched structurally but
/// failed (an immediate out of range, say) only reports its error when no
/// later row encodes the instruction, so `81 /0 id` still follows a
/// too-narrow `83 /0 ib`.
fn encode_at(inst: &Instruction, start: usize, target: Targets) -> Result<Vec<u8>, EncodeError> {
    let magic = match inst.mnemonic {
        Mnemonic::NbPause => Some(MAGIC_PAUSE),
        Mnemonic::NbResume => Some(MAGIC_RESUME),
        _ => None,
    };
    if let Some(bytes) = magic {
        return match inst.operands.is_empty() {
            true => Ok(bytes.to_vec()),
            false => Err(EncodeError::InvalidOperands(inst.to_string())),
        };
    }
    for op in &inst.operands {
        if let Operand::Vec(v) = op {
            if !v.is_vex_encodable() {
                return Err(EncodeError::Unsupported(format!(
                    "{inst} (register {v} needs EVEX; AVX-512 is asm-only)"
                )));
            }
        }
    }
    let mut found = false;
    let mut first_err = None;
    for entry in OPS.iter().filter(|e| e.m == inst.mnemonic) {
        found = true;
        match try_encode(entry, inst, start, target) {
            Ok(Some(bytes)) => return Ok(bytes),
            Ok(None) => {}
            Err(err) => {
                first_err.get_or_insert(err);
            }
        }
    }
    Err(first_err.unwrap_or_else(|| {
        if found {
            EncodeError::InvalidOperands(inst.to_string())
        } else {
            EncodeError::Unsupported(inst.to_string())
        }
    }))
}

/// Encodes a single non-branch instruction to machine code.
///
/// # Errors
///
/// Returns [`EncodeError`] for instruction forms outside the supported
/// subset (see the module docs' support matrix) and for invalid operand
/// combinations. Branches must be encoded through [`encode_program`], which
/// resolves label targets; a lone branch here is an error.
pub fn encode_instruction(inst: &Instruction) -> Result<Vec<u8>, EncodeError> {
    if inst.mnemonic.is_branch() && inst.mnemonic != Mnemonic::Ret {
        return Err(EncodeError::InvalidOperands(format!(
            "branch `{inst}` must be encoded via encode_program"
        )));
    }
    encode_at(inst, 0, &|_| None)
}

/// Encodes a whole program, resolving [`Operand::Label`] branch targets to
/// relative displacements (rel32 for branches, rel8 never emitted).
///
/// Returns the code bytes and the byte offset of each instruction.
///
/// # Errors
///
/// Returns [`EncodeError`] if any instruction is outside the supported
/// encoding subset or a label index is out of range.
pub fn encode_program(insts: &[Instruction]) -> Result<(Vec<u8>, Vec<usize>), EncodeError> {
    // First pass: offsets. A branch row's length does not depend on its
    // target, so any target will do.
    let mut offsets = Vec::with_capacity(insts.len());
    let mut total = 0usize;
    for inst in insts {
        offsets.push(total);
        total += encode_at(inst, total, &|_| Some(0))?.len();
    }
    let target = |t: usize| {
        if t == insts.len() {
            Some(total)
        } else {
            offsets.get(t).copied()
        }
    };
    let mut out = Vec::with_capacity(total);
    for (inst, &start) in insts.iter().zip(&offsets) {
        out.extend_from_slice(&encode_at(inst, start, &target)?);
    }
    debug_assert_eq!(out.len(), total);
    Ok((out, offsets))
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, DecodeError> {
        Err(DecodeError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        match self.bytes.get(self.pos) {
            Some(b) => {
                self.pos += 1;
                Ok(*b)
            }
            None => self.err("unexpected end of code"),
        }
    }

    /// A little-endian signed integer of `n` bytes (1..=8), sign-extended.
    fn int(&mut self, n: usize) -> Result<i64, DecodeError> {
        let mut b = [0u8; 8];
        for x in &mut b[..n] {
            *x = self.u8()?;
        }
        let shift = 64 - 8 * n as u32;
        Ok((i64::from_le_bytes(b) << shift) >> shift)
    }
}

/// The register-extension bits, from either a REX prefix or a VEX prefix
/// (where they are stored inverted; [`RexBits`] holds the logical values).
#[derive(Debug, Clone, Copy)]
struct RexBits {
    r: u8,
    x: u8,
    b: u8,
}

/// What the mode-3 (register) r/m side denotes.
#[derive(Debug, Clone, Copy)]
enum RmClass {
    Gpr(Width),
    Vec(VecClass),
}

/// Decodes ModRM (+SIB/disp) returning (reg field, r/m operand). `mem_width`
/// is the access width recorded for a memory operand — the operand width for
/// GPR forms, qword for vector forms (matching the assembler's default).
fn decode_modrm_bits(
    d: &mut Decoder,
    bits: RexBits,
    cls: RmClass,
    mem_width: Width,
) -> Result<(u8, Operand), DecodeError> {
    let modrm = d.u8()?;
    let mode = modrm >> 6;
    let reg = ((modrm >> 3) & 7) | (bits.r << 3);
    let rm_bits = modrm & 7;
    if mode == 3 {
        let reg_num = rm_bits | (bits.b << 3);
        let op = match cls {
            RmClass::Gpr(width) => gpr_op(reg_num, width),
            RmClass::Vec(class) => Operand::Vec(VecReg {
                index: reg_num,
                class,
            }),
        };
        return Ok((reg, op));
    }
    let mut base = None;
    let mut index = None;
    let mut disp: i64 = 0;
    if rm_bits == 4 {
        let sib = d.u8()?;
        let scale = 1u8 << (sib >> 6);
        let idx_num = ((sib >> 3) & 7) | (bits.x << 3);
        let base_bits = sib & 7;
        if idx_num != 4 {
            index = Some((Gpr::from_number(idx_num).unwrap(), scale));
        }
        if base_bits == 5 && mode == 0 {
            disp = d.int(4)?;
        } else {
            base = Some(Gpr::from_number(base_bits | (bits.b << 3)).unwrap());
        }
    } else if rm_bits == 5 && mode == 0 {
        return Err(DecodeError {
            offset: d.pos,
            message: "RIP-relative addressing is not supported".to_string(),
        });
    } else {
        base = Some(Gpr::from_number(rm_bits | (bits.b << 3)).unwrap());
    }
    match mode {
        1 => disp += d.int(1)?,
        2 => disp += d.int(4)?,
        _ => {}
    }
    Ok((
        reg,
        Operand::Mem(MemRef {
            base,
            index,
            disp,
            width: mem_width,
        }),
    ))
}

fn gpr_op(num: u8, width: Width) -> Operand {
    Operand::Gpr(GprPart {
        reg: Gpr::from_number(num).expect("4-bit register number"),
        width,
    })
}

/// Decodes a machine-code buffer into instructions.
///
/// Branch displacements are resolved back to instruction indices
/// ([`Operand::Label`]); a branch to the end of the buffer becomes a label
/// equal to the instruction count. The magic pause/resume sequences decode
/// to [`Mnemonic::NbPause`] / [`Mnemonic::NbResume`].
///
/// # Errors
///
/// Returns [`DecodeError`] on unknown opcodes, truncated instructions, or
/// branches into the middle of an instruction.
pub fn decode_program(bytes: &[u8]) -> Result<Vec<Instruction>, DecodeError> {
    let mut d = Decoder { bytes, pos: 0 };
    let mut insts = Vec::new();
    let mut inst_offsets = Vec::new();
    // (instruction index, absolute target byte offset)
    let mut branch_targets: Vec<(usize, usize)> = Vec::new();

    while d.pos < bytes.len() {
        inst_offsets.push(d.pos);
        if bytes[d.pos..].starts_with(&MAGIC_PAUSE) {
            d.pos += MAGIC_PAUSE.len();
            insts.push(Instruction::new(Mnemonic::NbPause));
            continue;
        }
        if bytes[d.pos..].starts_with(&MAGIC_RESUME) {
            d.pos += MAGIC_RESUME.len();
            insts.push(Instruction::new(Mnemonic::NbResume));
            continue;
        }
        let inst = decode_one(&mut d, &mut |target| {
            branch_targets.push((insts.len(), target));
        })?;
        insts.push(inst);
    }

    for (inst_idx, target) in branch_targets {
        let label = if target == bytes.len() {
            insts.len()
        } else {
            match inst_offsets.binary_search(&target) {
                Ok(i) => i,
                Err(_) => {
                    return Err(DecodeError {
                        offset: target,
                        message: "branch into the middle of an instruction".to_string(),
                    })
                }
            }
        };
        for op in &mut insts[inst_idx].operands {
            if matches!(op, Operand::Label(_)) {
                *op = Operand::Label(label);
            }
        }
    }
    Ok(insts)
}

/// The decoder's view of one instruction's prefix and opcode bytes: the
/// lookup key into the opcode table plus the fields operand decoding needs.
struct Key {
    vex: bool,
    map: u8,
    op: u8,
    /// The mandatory-prefix value (VEX `pp` numbering). As on real hardware,
    /// legacy `F2`/`F3` take precedence over `66` when several are present
    /// (a stray `66` before `F3 0F 6F` still selects `movdqu`).
    pp: u8,
    /// The legacy prefixes present, one bit per `pp` value.
    present: u8,
    w: bool,
    l: bool,
    vvvv: u8,
    bits: RexBits,
    /// The GPR operand width `66`/REX.W select.
    opsize: Width,
}

impl Op {
    /// Whether this row decodes `k` (given the ModRM byte, when there is
    /// one) and, if so, whether it does without a mandatory prefix: such a
    /// row loses to a matching row whose mandatory prefix is present.
    fn decodes(&self, k: &Key, modrm: Option<u8>) -> Option<bool> {
        let op = match self.form {
            Form::O(..) => k.op & 0xF8,
            _ => k.op,
        };
        let prefix = if self.vex || self.form.is_vector() {
            self.pp == k.pp
        } else {
            self.pp == PP_NONE || k.present & (1 << self.pp) != 0
        };
        let matched = self.vex == k.vex
            && self.map == k.map
            && self.op == op
            && prefix
            && self.w.is_none_or(|w| w == k.w)
            && !matches!(self.form, Form::Bare(l) if l != k.l)
            && modrm.is_none_or(|b| self.form.accepts_modrm(b));
        matched.then_some(self.pp == PP_NONE)
    }
}

fn decode_one(
    d: &mut Decoder,
    on_branch: &mut dyn FnMut(usize),
) -> Result<Instruction, DecodeError> {
    let start = d.pos;
    let (mut present, mut rex) = (0u8, 0u8);
    loop {
        match d.peek() {
            Some(0x66) => present |= 1 << PP_66,
            Some(0xF3) => present |= 1 << PP_F3,
            Some(0xF2) => present |= 1 << PP_F2,
            Some(b) if (0x40..0x50).contains(&b) => rex = b & 0x0F,
            _ => break,
        }
        d.pos += 1;
    }
    let first = d.u8()?;
    let k = match first {
        0xC4 | 0xC5 if present != 0 || rex != 0 => {
            return d.err("legacy prefixes are not allowed before a VEX prefix");
        }
        0xC4 | 0xC5 => vex_key(d, first)?,
        _ => {
            let (map, op) = match first {
                0x0F => match d.u8()? {
                    0x38 => (MAP_0F38, d.u8()?),
                    0x3A => (MAP_0F3A, d.u8()?),
                    op => (MAP_0F, op),
                },
                op => (MAP_NONE, op),
            };
            let w = rex & 8 != 0;
            let pp = [PP_F3, PP_F2, PP_66]
                .into_iter()
                .find(|&pp| present & (1 << pp) != 0)
                .unwrap_or(PP_NONE);
            Key {
                vex: false,
                map,
                op,
                pp,
                present,
                w,
                l: false,
                vvvv: 0,
                bits: RexBits {
                    r: (rex >> 2) & 1,
                    x: (rex >> 1) & 1,
                    b: rex & 1,
                },
                opsize: if w {
                    Width::Q
                } else if present & (1 << PP_66) != 0 {
                    Width::W
                } else {
                    Width::D
                },
            }
        }
    };
    let modrm = d.peek();
    let row = OPS
        .iter()
        .filter_map(|row| row.decodes(&k, modrm).map(|no_prefix| (no_prefix, row)))
        .min_by_key(|(no_prefix, _)| *no_prefix);
    match row {
        Some((_, row)) => decode_row(d, row, &k, on_branch),
        None => {
            let what = if k.vex { "VEX opcode" } else { "opcode" };
            d.pos = start;
            d.err(format!(
                "unknown {what} map {} pp {} {:#04x}",
                k.map, k.pp, k.op
            ))
        }
    }
}

/// Reads a VEX prefix (`C4` three-byte / `C5` two-byte) and the opcode.
fn vex_key(d: &mut Decoder, first: u8) -> Result<Key, DecodeError> {
    let (bits, map, w, tail);
    if first == 0xC5 {
        tail = d.u8()?;
        bits = RexBits {
            r: (!tail >> 7) & 1,
            x: 0,
            b: 0,
        };
        map = MAP_0F;
        w = false;
    } else {
        let b1 = d.u8()?;
        tail = d.u8()?;
        bits = RexBits {
            r: (!b1 >> 7) & 1,
            x: (!b1 >> 6) & 1,
            b: (!b1 >> 5) & 1,
        };
        map = b1 & 0x1F;
        w = tail & 0x80 != 0;
    }
    Ok(Key {
        vex: true,
        map,
        op: d.u8()?,
        pp: tail & 3,
        present: 0,
        w,
        l: tail & 4 != 0,
        vvvv: (!tail >> 3) & 0x0F,
        bits,
        opsize: if w { Width::Q } else { Width::D },
    })
}

/// Decodes the operands of the table row `entry` selected for `k`.
fn decode_row(
    d: &mut Decoder,
    entry: &Op,
    k: &Key,
    on_branch: &mut dyn FnMut(usize),
) -> Result<Instruction, DecodeError> {
    let (bits, l, vvvv) = (k.bits, k.l, k.vvvv);
    let cl = if l { VecClass::Ymm } else { VecClass::Xmm };
    let vreg = |index: u8, class: VecClass| Operand::Vec(VecReg { index, class });
    let gw = if k.w { Width::Q } else { Width::D };
    let m = entry.m;
    Ok(match entry.form {
        Form::Bare(_) => Instruction::new(m),
        Form::Fixed(_) => {
            d.u8()?;
            Instruction::new(m)
        }
        Form::GRm(wr, src) => {
            let w = wr.decoded(k.opsize);
            let sw = match src {
                Src::Same => w,
                Src::Narrow(n) => n,
                Src::Addr => Width::Q,
            };
            let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Gpr(sw), sw)?;
            Instruction::binary(m, gpr_op(reg, w), rm)
        }
        Form::GMr(wr) => {
            let w = wr.decoded(k.opsize);
            let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Gpr(w), w)?;
            Instruction::binary(m, rm, gpr_op(reg, w))
        }
        Form::GM(wr, _, imm) => {
            let w = wr.decoded(k.opsize);
            let (_, rm) = decode_modrm_bits(d, bits, RmClass::Gpr(w), w)?;
            with_imm(d, m, rm, imm, w)?
        }
        Form::GReg(wr, _) => {
            let w = wr.decoded(k.opsize);
            let (_, rm) = decode_modrm_bits(d, bits, RmClass::Gpr(w), w)?;
            Instruction::unary(m, rm)
        }
        Form::Mem(_) => {
            let (_, rm) = decode_modrm_bits(d, bits, RmClass::Gpr(Width::Q), Width::Q)?;
            Instruction::unary(m, rm)
        }
        Form::O(wr, imm) => {
            let w = wr.decoded(k.opsize);
            with_imm(d, m, gpr_op((k.op & 7) | (bits.b << 3), w), imm, w)?
        }
        Form::Rel(n) => {
            let rel = d.int(n)?;
            on_branch((d.pos as i64 + rel) as usize);
            Instruction::unary(m, Operand::Label(usize::MAX))
        }
        Form::Rm => {
            let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(cl), Width::Q)?;
            Instruction::binary(m, vreg(reg, cl), rm)
        }
        Form::RmImm => {
            let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(cl), Width::Q)?;
            let imm = d.u8()? as i64;
            Instruction::with_operands(m, vec![vreg(reg, cl), rm, Operand::Imm(imm)])
        }
        Form::Mr => {
            let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(cl), Width::Q)?;
            Instruction::binary(m, rm, vreg(reg, cl))
        }
        Form::Rvm => {
            let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(cl), Width::Q)?;
            Instruction::with_operands(m, vec![vreg(reg, cl), vreg(vvvv, cl), rm])
        }
        Form::RvmImm => {
            if !l {
                return d.err(format!("{m} requires VEX.L = 1"));
            }
            let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(cl), Width::Q)?;
            let imm = d.u8()? as i64;
            Instruction::with_operands(
                m,
                vec![vreg(reg, cl), vreg(vvvv, cl), rm, Operand::Imm(imm)],
            )
        }
        Form::VecRm => {
            let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Gpr(gw), Width::Q)?;
            Instruction::binary(m, vreg(reg, VecClass::Xmm), rm)
        }
        Form::RmVec => {
            let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Gpr(gw), Width::Q)?;
            Instruction::binary(m, rm, vreg(reg, VecClass::Xmm))
        }
        Form::GprVec => {
            let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(VecClass::Xmm), Width::Q)?;
            Instruction::binary(m, gpr_op(reg, gw), rm)
        }
        Form::ShiftImm(_) => {
            let (_, rm) = decode_modrm_bits(d, bits, RmClass::Vec(VecClass::Xmm), Width::Q)?;
            let imm = d.u8()? as i64;
            Instruction::binary(m, rm, Operand::Imm(imm))
        }
        Form::BcastRm => {
            let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(VecClass::Xmm), Width::Q)?;
            Instruction::binary(m, vreg(reg, cl), rm)
        }
        Form::InsertImm => {
            if !l {
                return d.err(format!("{m} requires VEX.L = 1"));
            }
            let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(VecClass::Xmm), Width::Q)?;
            let imm = d.u8()? as i64;
            Instruction::with_operands(
                m,
                vec![
                    vreg(reg, VecClass::Ymm),
                    vreg(vvvv, VecClass::Ymm),
                    rm,
                    Operand::Imm(imm),
                ],
            )
        }
        Form::ExtractImm => {
            if !l {
                return d.err(format!("{m} requires VEX.L = 1"));
            }
            let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(VecClass::Xmm), Width::Q)?;
            let imm = d.u8()? as i64;
            Instruction::with_operands(m, vec![rm, vreg(reg, VecClass::Ymm), Operand::Imm(imm)])
        }
    })
}

/// `m op` or, with an immediate, `m op, imm`.
fn with_imm(
    d: &mut Decoder,
    m: Mnemonic,
    op: Operand,
    imm: Option<Imm>,
    w: Width,
) -> Result<Instruction, DecodeError> {
    Ok(match imm {
        None => Instruction::unary(m, op),
        Some(imm) => Instruction::binary(m, op, Operand::Imm(imm.decode(d, w)?)),
    })
}

/// Scans code bytes for the magic pause/resume markers (§III-I).
///
/// Returns `(byte offset, is_pause)` pairs in ascending offset order.
pub fn find_magic_markers(bytes: &[u8]) -> Vec<(usize, bool)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + MAGIC_PAUSE.len() <= bytes.len() {
        if bytes[i..].starts_with(&MAGIC_PAUSE) {
            out.push((i, true));
            i += MAGIC_PAUSE.len();
        } else if bytes[i..].starts_with(&MAGIC_RESUME) {
            out.push((i, false));
            i += MAGIC_RESUME.len();
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::parse_asm;

    fn enc(text: &str) -> Vec<u8> {
        let insts = parse_asm(text).unwrap();
        encode_program(&insts).unwrap().0
    }

    #[test]
    fn golden_bytes() {
        // Cross-checked against an external assembler.
        assert_eq!(enc("nop"), vec![0x90]);
        assert_eq!(enc("mov rax, rbx"), vec![0x48, 0x8B, 0xC3]);
        assert_eq!(enc("mov r14, [r14]"), vec![0x4D, 0x8B, 0x36]);
        assert_eq!(enc("mov [r14], r14"), vec![0x4D, 0x89, 0x36]);
        assert_eq!(enc("add rax, 1"), vec![0x48, 0x83, 0xC0, 0x01]);
        assert_eq!(enc("lfence"), vec![0x0F, 0xAE, 0xE8]);
        assert_eq!(enc("rdpmc"), vec![0x0F, 0x33]);
        assert_eq!(enc("wbinvd"), vec![0x0F, 0x09]);
        assert_eq!(enc("cpuid"), vec![0x0F, 0xA2]);
        assert_eq!(enc("push r15"), vec![0x41, 0x57]);
        assert_eq!(enc("dec r15"), vec![0x49, 0xFF, 0xCF]);
        assert_eq!(
            enc("mov rcx, 0x123456789"),
            vec![0x48, 0xB9, 0x89, 0x67, 0x45, 0x23, 0x01, 0x00, 0x00, 0x00]
        );
        assert_eq!(enc("imul rax, rbx"), vec![0x48, 0x0F, 0xAF, 0xC3]);
        assert_eq!(enc("shl rax, 32"), vec![0x48, 0xC1, 0xE0, 0x20]);
        assert_eq!(enc("clflush [rax]"), vec![0x0F, 0xAE, 0x38]);
    }

    #[test]
    fn rsp_rbp_addressing_quirks() {
        // RSP base needs a SIB byte; RBP base needs a disp8 even when 0.
        assert_eq!(enc("mov rax, [rsp]"), vec![0x48, 0x8B, 0x04, 0x24]);
        assert_eq!(enc("mov rax, [rbp]"), vec![0x48, 0x8B, 0x45, 0x00]);
        assert_eq!(enc("mov rax, [r12]"), vec![0x49, 0x8B, 0x04, 0x24]);
        assert_eq!(enc("mov rax, [r13]"), vec![0x49, 0x8B, 0x45, 0x00]);
    }

    #[test]
    fn loop_encoding_and_rel32() {
        let (bytes, offsets) = encode_program(&parse_asm("l: dec r15; jnz l").unwrap()).unwrap();
        assert_eq!(offsets, vec![0, 3]);
        // jnz rel32 = 0F 85, displacement = 0 - 9 = -9.
        assert_eq!(&bytes[3..5], &[0x0F, 0x85]);
        assert_eq!(i32::from_le_bytes(bytes[5..9].try_into().unwrap()), -9);
    }

    #[test]
    fn decode_round_trip() {
        let programs = [
            "mov r14, [r14]",
            "mov [r14], r14",
            "add rax, 1; sub rbx, rax; xor rcx, rcx",
            "l: dec r15; jnz l; nop",
            "mov rax, [rsp+8]; mov [rbp-16], rbx",
            "lfence; rdpmc; shl rdx, 32; or rax, rdx; lfence",
            "cpuid; wbinvd; rdmsr; wrmsr",
            "movzx rax, bl; movsx rbx, ax",
            "popcnt rax, rbx; lzcnt rcx, rdx; tzcnt rsi, rdi; bsf r8, r9; bsr r10, r11",
            "clflush [r14]; prefetcht0 [r14+64]",
            "mov rax, qword ptr [r14+rcx*8+0x40]",
            "push rbp; pop rbp; xchg rax, rbx",
            "inc byte ptr [rax]; dec qword ptr [rbx+8]",
            "test rax, rax; cmovz rcx, rdx; setnz al",
            "mov eax, 5; add ebx, 0x1000; mov word ptr [rax], 3",
            "bswap r12; xadd rax, rbx",
            "jmp end; add rax, 1; end: nop",
            "rdrand rax; rdseed rbx",
            "mov rax, [0x1000]",
        ];
        for text in programs {
            let insts = parse_asm(text).unwrap();
            let (bytes, _) = encode_program(&insts).unwrap();
            let decoded = decode_program(&bytes).unwrap();
            assert_eq!(insts, decoded, "round trip failed for `{text}`");
        }
    }

    #[test]
    fn magic_markers_encode_and_scan() {
        let insts = parse_asm("nop; nb_pause; mov rax, [r14]; nb_resume; nop").unwrap();
        let (bytes, _) = encode_program(&insts).unwrap();
        let markers = find_magic_markers(&bytes);
        assert_eq!(markers.len(), 2);
        assert!(markers[0].1);
        assert!(!markers[1].1);
        let decoded = decode_program(&bytes).unwrap();
        assert_eq!(decoded, insts);
    }

    #[test]
    fn golden_vector_bytes() {
        // Cross-checked against an external assembler.
        assert_eq!(enc("addps xmm0, xmm1"), vec![0x0F, 0x58, 0xC1]);
        assert_eq!(enc("addpd xmm2, xmm3"), vec![0x66, 0x0F, 0x58, 0xD3]);
        assert_eq!(enc("addsd xmm0, xmm1"), vec![0xF2, 0x0F, 0x58, 0xC1]);
        assert_eq!(enc("pxor xmm10, xmm11"), vec![0x66, 0x45, 0x0F, 0xEF, 0xD3]);
        assert_eq!(enc("movaps xmm0, [r14]"), vec![0x41, 0x0F, 0x28, 0x06]);
        assert_eq!(enc("movaps [r14], xmm0"), vec![0x41, 0x0F, 0x29, 0x06]);
        assert_eq!(enc("movq xmm1, rax"), vec![0x66, 0x48, 0x0F, 0x6E, 0xC8]);
        assert_eq!(enc("movd eax, xmm2"), vec![0x66, 0x0F, 0x7E, 0xD0]);
        assert_eq!(enc("movq xmm4, xmm5"), vec![0xF3, 0x0F, 0x7E, 0xE5]);
        assert_eq!(
            enc("pshufd xmm0, xmm1, 0"),
            vec![0x66, 0x0F, 0x70, 0xC1, 0x00]
        );
        assert_eq!(enc("psllq xmm3, 63"), vec![0x66, 0x0F, 0x73, 0xF3, 0x3F]);
        assert_eq!(
            enc("cvtsi2sd xmm0, rax"),
            vec![0xF2, 0x48, 0x0F, 0x2A, 0xC0]
        );
        assert_eq!(enc("pmovmskb eax, xmm3"), vec![0x66, 0x0F, 0xD7, 0xC3]);
        assert_eq!(enc("pshufb xmm0, xmm1"), vec![0x66, 0x0F, 0x38, 0x00, 0xC1]);
        assert_eq!(
            enc("crc32 rax, rbx"),
            vec![0xF2, 0x48, 0x0F, 0x38, 0xF1, 0xC3]
        );
        // VEX: two-byte form when possible, three-byte otherwise.
        assert_eq!(enc("vaddps ymm0, ymm1, ymm2"), vec![0xC5, 0xF4, 0x58, 0xC2]);
        assert_eq!(enc("vaddps xmm0, xmm1, xmm2"), vec![0xC5, 0xF0, 0x58, 0xC2]);
        assert_eq!(
            enc("vfmadd231ps ymm0, ymm1, ymm2"),
            vec![0xC4, 0xE2, 0x75, 0xB8, 0xC2]
        );
        assert_eq!(enc("vzeroupper"), vec![0xC5, 0xF8, 0x77]);
        assert_eq!(enc("vzeroall"), vec![0xC5, 0xFC, 0x77]);
        assert_eq!(
            enc("vextractf128 xmm2, ymm3, 1"),
            vec![0xC4, 0xE3, 0x7D, 0x19, 0xDA, 0x01]
        );
        assert_eq!(
            enc("vinsertf128 ymm4, ymm5, xmm6, 1"),
            vec![0xC4, 0xE3, 0x55, 0x18, 0xE6, 0x01]
        );
    }

    #[test]
    fn vector_round_trips_with_high_registers_and_memory() {
        for text in [
            "vaddps ymm8, ymm9, ymm10",
            "vpxor xmm13, xmm14, xmm15",
            "vfmadd231ps ymm1, ymm2, [r14+64]",
            "vfmadd231pd ymm3, ymm4, ymm5",
            "movdqu xmm9, [r13+r12*4-0x20]",
            "vbroadcastss ymm15, xmm0",
            "vbroadcastss xmm1, [r14]",
            "vpermilps ymm7, ymm8, ymm9",
            "vpermilps ymm10, ymm11, 0x1b",
            "vperm2f128 ymm12, ymm13, ymm14, 0x21",
        ] {
            let insts = parse_asm(text).unwrap();
            let (bytes, _) = encode_program(&insts).unwrap();
            assert_eq!(
                decode_program(&bytes).unwrap(),
                insts,
                "round trip failed for `{text}`"
            );
        }
    }

    #[test]
    fn evex_only_and_vsib_forms_are_rejected_not_wrong() {
        // AVX-512 registers need EVEX; gathers need VSIB — both stay
        // asm/simulator-only and must be rejected, never mis-encoded.
        for text in [
            "vaddps zmm0, zmm1, zmm2",
            "addps xmm16, xmm17",
            "vgatherdps xmm0, [r14], xmm2",
        ] {
            let insts = parse_asm(text).unwrap();
            assert!(
                matches!(encode_program(&insts), Err(EncodeError::Unsupported(_))),
                "`{text}` must be Unsupported"
            );
        }
        // Legacy SSE on ymm is architecturally impossible, not unsupported.
        let insts = parse_asm("addps ymm0, ymm1").unwrap();
        assert!(matches!(
            encode_program(&insts),
            Err(EncodeError::InvalidOperands(_))
        ));
    }

    #[test]
    fn explicit_size_prefixes_on_vector_memory_operands_round_trip() {
        // Vector memory accesses are modeled at qword granularity; an
        // explicit `dword ptr` is normalized by the assembler, so the asm
        // path and the (width-less) byte path agree.
        for text in [
            "addps xmm0, dword ptr [r14]",
            "movd xmm0, dword ptr [r14]",
            "movq [r14+8], xmm7",
            "vaddps ymm0, ymm1, ymmword ptr [r14]",
        ] {
            let insts = parse_asm(text).unwrap();
            let (bytes, _) = encode_program(&insts).unwrap();
            assert_eq!(
                decode_program(&bytes).unwrap(),
                insts,
                "round trip failed for `{text}`"
            );
        }
    }

    #[test]
    fn f2_f3_mandatory_prefixes_beat_a_stray_66() {
        // 66 F3 0F 6F /r is movdqu on real hardware (F2/F3 win over 66);
        // external code bytes may legally carry such redundant prefixes.
        let decoded = decode_program(&[0x66, 0xF3, 0x0F, 0x6F, 0xC1]).unwrap();
        assert_eq!(decoded, parse_asm("movdqu xmm0, xmm1").unwrap());
        // 66 F2 0F 58 /r is addsd, not addpd.
        let decoded = decode_program(&[0x66, 0xF2, 0x0F, 0x58, 0xC1]).unwrap();
        assert_eq!(decoded, parse_asm("addsd xmm0, xmm1").unwrap());
    }

    #[test]
    fn stray_vex_bytes_are_decode_errors() {
        // A VEX prefix after a legacy prefix is invalid.
        assert!(decode_program(&[0x66, 0xC5, 0xF8, 0x77]).is_err());
        // Unknown VEX opcode.
        assert!(decode_program(&[0xC5, 0xF8, 0x99]).is_err());
        // Truncated VEX prefix.
        assert!(decode_program(&[0xC4, 0xE2]).is_err());
    }

    #[test]
    fn truncated_code_is_error() {
        let err = decode_program(&[0x48, 0x8B]).unwrap_err();
        assert!(err.message.contains("end of code"));
    }

    #[test]
    fn unknown_opcode_is_error() {
        assert!(decode_program(&[0x0F, 0xFF]).is_err());
    }
}
