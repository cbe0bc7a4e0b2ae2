//! Variable-length IA-32 instruction decoder.
//!
//! Decoding x86 is one of the architectural mismatches the paper's
//! translator must absorb: prefixes, ModRM/SIB addressing bytes, and 1/2/4
//! byte displacements and immediates make instruction boundaries data
//! dependent. The decoder here produces a structured [`Insn`]; relative
//! branch targets are resolved to absolute guest addresses.
//!
//! Guest code is read a [`CodeSource`] window at a time: one page lookup
//! per instruction, and one more only where it crosses a page edge.

use crate::insn::{Cond, Insn, MemRef, Op, Operand, Reg, Rep, Size};
use crate::mem::{GuestMem, PAGE_SIZE};

/// Maximum legal IA-32 instruction length.
pub const MAX_INSN_LEN: u32 = 15;

/// Decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// An instruction byte could not be fetched (unmapped page).
    Unmapped {
        /// The unfetchable guest address.
        addr: u32,
    },
    /// An opcode outside the supported subset.
    Unsupported {
        /// Address of the instruction.
        addr: u32,
        /// First opcode byte (the second byte for `0x0F`-escaped opcodes).
        opcode: u8,
        /// Whether the opcode came from the two-byte (`0x0F`) map.
        two_byte: bool,
    },
    /// A ModRM `reg` extension not implemented for this opcode group.
    UnsupportedGroup {
        /// Address of the instruction.
        addr: u32,
        /// The opcode byte introducing the group.
        opcode: u8,
        /// The `/r` extension digit.
        ext: u8,
    },
    /// The instruction would exceed [`MAX_INSN_LEN`] bytes.
    TooLong {
        /// Address of the instruction.
        addr: u32,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DecodeError::Unmapped { addr } => {
                write!(f, "instruction fetch from unmapped address {addr:#010x}")
            }
            DecodeError::Unsupported {
                addr,
                opcode,
                two_byte,
            } => {
                let esc = if two_byte { "0f " } else { "" };
                write!(f, "unsupported opcode {esc}{opcode:02x} at {addr:#010x}")
            }
            DecodeError::UnsupportedGroup { addr, opcode, ext } => {
                write!(
                    f,
                    "unsupported group op {opcode:02x} /{ext} at {addr:#010x}"
                )
            }
            DecodeError::TooLong { addr } => {
                write!(f, "instruction at {addr:#010x} exceeds 15 bytes")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Anything instruction bytes can be read from, a window at a time.
pub trait CodeSource {
    /// The bytes from guest address `addr` to the end of the run they sit
    /// in (for guest memory, the end of `addr`'s page); empty if `addr`
    /// is unavailable. The next window starts where this one ends.
    fn window(&self, addr: u32) -> &[u8];
}

impl CodeSource for GuestMem {
    #[inline]
    fn window(&self, addr: u32) -> &[u8] {
        self.page(addr / PAGE_SIZE)
            .map_or(&[], |p| &p[(addr % PAGE_SIZE) as usize..])
    }
}

/// A byte slice positioned at a guest base address.
#[derive(Debug, Clone, Copy)]
pub struct SliceSource<'a> {
    base: u32,
    bytes: &'a [u8],
}

impl<'a> SliceSource<'a> {
    /// Views `bytes` as guest code starting at `base`.
    pub fn new(base: u32, bytes: &'a [u8]) -> Self {
        SliceSource { base, bytes }
    }
}

impl CodeSource for SliceSource<'_> {
    fn window(&self, addr: u32) -> &[u8] {
        let off = addr.wrapping_sub(self.base) as usize;
        self.bytes.get(off..).unwrap_or_default()
    }
}

struct Cursor<'a, S: CodeSource + ?Sized> {
    src: &'a S,
    start: u32,
    pos: u32,
    /// The bytes from `pos` to the end of the window they were read from.
    ahead: &'a [u8],
}

impl<S: CodeSource + ?Sized> Cursor<'_, S> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        if self.pos.wrapping_sub(self.start) >= MAX_INSN_LEN {
            return Err(DecodeError::TooLong { addr: self.start });
        }
        if self.ahead.is_empty() {
            // The first byte, or the instruction crosses a window's edge.
            self.ahead = self.src.window(self.pos);
        }
        let (&b, rest) = self
            .ahead
            .split_first()
            .ok_or(DecodeError::Unmapped { addr: self.pos })?;
        self.ahead = rest;
        self.pos = self.pos.wrapping_add(1);
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes([self.u8()?, self.u8()?]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from(self.u16()?) | u32::from(self.u16()?) << 16)
    }

    /// Immediate of the operand size (imm16 under the 0x66 prefix).
    fn imm(&mut self, size: Size) -> Result<i64, DecodeError> {
        Ok(match size {
            Size::Byte => self.u8()? as i64,
            Size::Word => self.u16()? as i64,
            Size::Dword => self.u32()? as i64,
        })
    }

    fn imm8_sx(&mut self) -> Result<i64, DecodeError> {
        Ok(self.u8()? as i8 as i64)
    }

    fn len(&self) -> u8 {
        self.pos.wrapping_sub(self.start) as u8
    }
}

/// Decodes ModRM (and SIB/displacement): returns `(rm_operand, reg_field)`.
fn modrm<S: CodeSource + ?Sized>(cur: &mut Cursor<'_, S>) -> Result<(Operand, u8), DecodeError> {
    let byte = cur.u8()?;
    let md = byte >> 6;
    let reg = (byte >> 3) & 7;
    let rm = byte & 7;

    if md == 3 {
        return Ok((Operand::Reg(Reg::from_num(rm)), reg));
    }

    let base;
    let mut index = None;
    if rm == 4 {
        // SIB byte.
        let sib = cur.u8()?;
        let scale = 1u8 << (sib >> 6);
        let idx = (sib >> 3) & 7;
        let bs = sib & 7;
        if idx != 4 {
            index = Some((Reg::from_num(idx), scale));
        }
        if bs == 5 && md == 0 {
            // No base, disp32 follows.
            let disp = cur.u32()? as i32;
            return Ok((
                Operand::Mem(MemRef {
                    base: None,
                    index,
                    disp,
                }),
                reg,
            ));
        }
        base = Some(Reg::from_num(bs));
    } else if rm == 5 && md == 0 {
        // Absolute disp32.
        let disp = cur.u32()? as i32;
        return Ok((Operand::Mem(MemRef::abs(disp as u32)), reg));
    } else {
        base = Some(Reg::from_num(rm));
    }

    let disp = match md {
        0 => 0,
        1 => cur.u8()? as i8 as i32,
        2 => cur.u32()? as i32,
        _ => unreachable!(),
    };
    Ok((Operand::Mem(MemRef { base, index, disp }), reg))
}

const ALU_OPS: [Op; 8] = [
    Op::Add,
    Op::Or,
    Op::Adc,
    Op::Sbb,
    Op::And,
    Op::Sub,
    Op::Xor,
    Op::Cmp,
];

const SHIFT_OPS: [Option<Op>; 8] = [
    Some(Op::Rol),
    Some(Op::Ror),
    None, // rcl
    None, // rcr
    Some(Op::Shl),
    Some(Op::Shr),
    Some(Op::Shl), // /6 (SAL) is an alias of SHL on real hardware
    Some(Op::Sar),
];

/// Decodes the instruction at `addr`.
///
/// # Errors
///
/// Returns a [`DecodeError`] for fetch failures, opcodes outside the
/// supported subset, and over-long instructions.
pub fn decode<S: CodeSource + ?Sized>(src: &S, addr: u32) -> Result<Insn, DecodeError> {
    let mut cur = Cursor {
        src,
        start: addr,
        pos: addr,
        ahead: &[],
    };

    // Prefixes.
    let mut size = Size::Dword;
    let mut rep = Rep::None;
    let opcode = loop {
        let b = cur.u8()?;
        match b {
            0x66 => size = Size::Word,
            0xF3 => rep = Rep::Rep,
            0xF2 => rep = Rep::Repne,
            0x2E | 0x36 | 0x3E | 0x26 | 0x64 | 0x65 => {
                // Segment overrides are no-ops in our flat model.
            }
            _ => break b,
        }
    };

    let mut insn = Insn::new(addr, Op::Nop);
    insn.size = size;
    insn.rep = rep;

    macro_rules! done {
        () => {{
            insn.len = cur.len();
            return Ok(insn);
        }};
    }

    match opcode {
        // ALU group: 00-3D, skipping the 0x06.. segment ops (unsupported).
        0x00..=0x3D if opcode & 7 <= 5 => {
            insn.op = ALU_OPS[(opcode >> 3) as usize & 7];
            match opcode & 7 {
                0 | 1 => {
                    // r/m, r
                    if opcode & 7 == 0 {
                        insn.size = Size::Byte;
                    }
                    let (rm, reg) = modrm(&mut cur)?;
                    insn.dst = Some(rm);
                    insn.src = Some(Operand::Reg(Reg::from_num(reg)));
                }
                2 | 3 => {
                    // r, r/m
                    if opcode & 7 == 2 {
                        insn.size = Size::Byte;
                    }
                    let (rm, reg) = modrm(&mut cur)?;
                    insn.dst = Some(Operand::Reg(Reg::from_num(reg)));
                    insn.src = Some(rm);
                }
                4 => {
                    // AL, imm8
                    insn.size = Size::Byte;
                    insn.dst = Some(Operand::Reg(Reg::EAX));
                    insn.src = Some(Operand::Imm(cur.u8()? as i64));
                }
                5 => {
                    // eAX, imm
                    insn.dst = Some(Operand::Reg(Reg::EAX));
                    insn.src = Some(Operand::Imm(cur.imm(insn.size)?));
                }
                _ => unreachable!(),
            }
            done!();
        }
        0x40..=0x47 => {
            insn.op = Op::Inc;
            insn.dst = Some(Operand::Reg(Reg::from_num(opcode - 0x40)));
            done!();
        }
        0x48..=0x4F => {
            insn.op = Op::Dec;
            insn.dst = Some(Operand::Reg(Reg::from_num(opcode - 0x48)));
            done!();
        }
        0x50..=0x57 => {
            insn.op = Op::Push;
            insn.dst = Some(Operand::Reg(Reg::from_num(opcode - 0x50)));
            done!();
        }
        0x58..=0x5F => {
            insn.op = Op::Pop;
            insn.dst = Some(Operand::Reg(Reg::from_num(opcode - 0x58)));
            done!();
        }
        0x68 => {
            insn.op = Op::Push;
            insn.dst = Some(Operand::Imm(cur.u32()? as i32 as i64));
            done!();
        }
        0x6A => {
            insn.op = Op::Push;
            insn.dst = Some(Operand::Imm(cur.imm8_sx()?));
            done!();
        }
        0x69 | 0x6B => {
            insn.op = Op::ImulR;
            let (rm, reg) = modrm(&mut cur)?;
            insn.dst = Some(Operand::Reg(Reg::from_num(reg)));
            insn.src = Some(rm);
            let imm = if opcode == 0x69 {
                cur.imm(insn.size)?
            } else {
                cur.imm8_sx()?
            };
            insn.src2 = Some(Operand::Imm(imm));
            done!();
        }
        0x70..=0x7F => {
            insn.op = Op::Jcc;
            insn.cond = Some(Cond::from_num(opcode & 0xF));
            let rel = cur.imm8_sx()? as i32;
            insn.dst = Some(Operand::Target(cur.pos.wrapping_add(rel as u32)));
            done!();
        }
        0x80 | 0x81 | 0x83 => {
            if opcode == 0x80 {
                insn.size = Size::Byte;
            }
            let (rm, ext) = modrm(&mut cur)?;
            insn.op = ALU_OPS[ext as usize];
            insn.dst = Some(rm);
            let imm = if opcode == 0x83 {
                cur.imm8_sx()?
            } else {
                cur.imm(insn.size)?
            };
            insn.src = Some(Operand::Imm(imm));
            done!();
        }
        0x84 | 0x85 => {
            if opcode == 0x84 {
                insn.size = Size::Byte;
            }
            insn.op = Op::Test;
            let (rm, reg) = modrm(&mut cur)?;
            insn.dst = Some(rm);
            insn.src = Some(Operand::Reg(Reg::from_num(reg)));
            done!();
        }
        0x86 | 0x87 => {
            if opcode == 0x86 {
                insn.size = Size::Byte;
            }
            insn.op = Op::Xchg;
            let (rm, reg) = modrm(&mut cur)?;
            insn.dst = Some(rm);
            insn.src = Some(Operand::Reg(Reg::from_num(reg)));
            done!();
        }
        0x88 | 0x89 => {
            if opcode == 0x88 {
                insn.size = Size::Byte;
            }
            insn.op = Op::Mov;
            let (rm, reg) = modrm(&mut cur)?;
            insn.dst = Some(rm);
            insn.src = Some(Operand::Reg(Reg::from_num(reg)));
            done!();
        }
        0x8A | 0x8B => {
            if opcode == 0x8A {
                insn.size = Size::Byte;
            }
            insn.op = Op::Mov;
            let (rm, reg) = modrm(&mut cur)?;
            insn.dst = Some(Operand::Reg(Reg::from_num(reg)));
            insn.src = Some(rm);
            done!();
        }
        0x8D => {
            insn.op = Op::Lea;
            let (rm, reg) = modrm(&mut cur)?;
            // `lea r32, r32` (mod == 3) is #UD on real hardware; reject
            // it here so neither execution path sees a register source.
            if !matches!(rm, Operand::Mem(_)) {
                return Err(DecodeError::Unsupported {
                    addr,
                    opcode,
                    two_byte: false,
                });
            }
            insn.dst = Some(Operand::Reg(Reg::from_num(reg)));
            insn.src = Some(rm);
            done!();
        }
        0x8F => {
            let (rm, ext) = modrm(&mut cur)?;
            if ext != 0 {
                return Err(DecodeError::UnsupportedGroup { addr, opcode, ext });
            }
            insn.op = Op::Pop;
            insn.dst = Some(rm);
            done!();
        }
        0x90 => {
            insn.op = Op::Nop;
            done!();
        }
        0x91..=0x97 => {
            insn.op = Op::Xchg;
            insn.dst = Some(Operand::Reg(Reg::EAX));
            insn.src = Some(Operand::Reg(Reg::from_num(opcode - 0x90)));
            done!();
        }
        0x98 => {
            insn.op = Op::Cwde;
            done!();
        }
        0x99 => {
            insn.op = Op::Cdq;
            done!();
        }
        0xA0 | 0xA1 => {
            if opcode == 0xA0 {
                insn.size = Size::Byte;
            }
            insn.op = Op::Mov;
            insn.dst = Some(Operand::Reg(Reg::EAX));
            insn.src = Some(Operand::Mem(MemRef::abs(cur.u32()?)));
            done!();
        }
        0xA2 | 0xA3 => {
            if opcode == 0xA2 {
                insn.size = Size::Byte;
            }
            insn.op = Op::Mov;
            insn.dst = Some(Operand::Mem(MemRef::abs(cur.u32()?)));
            insn.src = Some(Operand::Reg(Reg::EAX));
            done!();
        }
        0xA4 | 0xA5 => {
            if opcode == 0xA4 {
                insn.size = Size::Byte;
            }
            insn.op = Op::Movs;
            done!();
        }
        0xA8 | 0xA9 => {
            if opcode == 0xA8 {
                insn.size = Size::Byte;
            }
            insn.op = Op::Test;
            insn.dst = Some(Operand::Reg(Reg::EAX));
            insn.src = Some(Operand::Imm(cur.imm(insn.size)?));
            done!();
        }
        0xAA | 0xAB => {
            if opcode == 0xAA {
                insn.size = Size::Byte;
            }
            insn.op = Op::Stos;
            done!();
        }
        0xAC | 0xAD => {
            if opcode == 0xAC {
                insn.size = Size::Byte;
            }
            insn.op = Op::Lods;
            done!();
        }
        0xAE | 0xAF => {
            if opcode == 0xAE {
                insn.size = Size::Byte;
            }
            insn.op = Op::Scas;
            done!();
        }
        0xB0..=0xB7 => {
            insn.size = Size::Byte;
            insn.op = Op::Mov;
            insn.dst = Some(Operand::Reg(Reg::from_num(opcode - 0xB0)));
            insn.src = Some(Operand::Imm(cur.u8()? as i64));
            done!();
        }
        0xB8..=0xBF => {
            insn.op = Op::Mov;
            insn.dst = Some(Operand::Reg(Reg::from_num(opcode - 0xB8)));
            insn.src = Some(Operand::Imm(cur.imm(insn.size)?));
            done!();
        }
        0xC0 | 0xC1 => {
            if opcode == 0xC0 {
                insn.size = Size::Byte;
            }
            let (rm, ext) = modrm(&mut cur)?;
            insn.op = SHIFT_OPS[ext as usize].ok_or(DecodeError::UnsupportedGroup {
                addr,
                opcode,
                ext,
            })?;
            insn.dst = Some(rm);
            insn.src = Some(Operand::Imm(cur.u8()? as i64));
            done!();
        }
        0xC2 => {
            insn.op = Op::Ret;
            insn.src = Some(Operand::Imm(cur.u16()? as i64));
            done!();
        }
        0xC3 => {
            insn.op = Op::Ret;
            done!();
        }
        0xC6 | 0xC7 => {
            if opcode == 0xC6 {
                insn.size = Size::Byte;
            }
            let (rm, ext) = modrm(&mut cur)?;
            if ext != 0 {
                return Err(DecodeError::UnsupportedGroup { addr, opcode, ext });
            }
            insn.op = Op::Mov;
            insn.dst = Some(rm);
            insn.src = Some(Operand::Imm(cur.imm(insn.size)?));
            done!();
        }
        0xCD => {
            insn.op = Op::Int;
            insn.src = Some(Operand::Imm(cur.u8()? as i64));
            done!();
        }
        0xD0..=0xD3 => {
            if opcode & 1 == 0 {
                insn.size = Size::Byte;
            }
            let (rm, ext) = modrm(&mut cur)?;
            insn.op = SHIFT_OPS[ext as usize].ok_or(DecodeError::UnsupportedGroup {
                addr,
                opcode,
                ext,
            })?;
            insn.dst = Some(rm);
            insn.src = if opcode < 0xD2 {
                Some(Operand::Imm(1))
            } else {
                Some(Operand::Reg(Reg::ECX)) // count in CL
            };
            done!();
        }
        0xE8 => {
            insn.op = Op::Call;
            let rel = cur.u32()? as i32;
            insn.dst = Some(Operand::Target(cur.pos.wrapping_add(rel as u32)));
            done!();
        }
        0xE9 => {
            insn.op = Op::Jmp;
            let rel = cur.u32()? as i32;
            insn.dst = Some(Operand::Target(cur.pos.wrapping_add(rel as u32)));
            done!();
        }
        0xEB => {
            insn.op = Op::Jmp;
            let rel = cur.imm8_sx()? as i32;
            insn.dst = Some(Operand::Target(cur.pos.wrapping_add(rel as u32)));
            done!();
        }
        0xF4 => {
            insn.op = Op::Hlt;
            done!();
        }
        0xF6 | 0xF7 => {
            if opcode == 0xF6 {
                insn.size = Size::Byte;
            }
            let (rm, ext) = modrm(&mut cur)?;
            match ext {
                0 | 1 => {
                    insn.op = Op::Test;
                    insn.dst = Some(rm);
                    insn.src = Some(Operand::Imm(cur.imm(insn.size)?));
                }
                2 => {
                    insn.op = Op::Not;
                    insn.dst = Some(rm);
                }
                3 => {
                    insn.op = Op::Neg;
                    insn.dst = Some(rm);
                }
                4 => {
                    insn.op = Op::Mul;
                    insn.src = Some(rm);
                }
                5 => {
                    insn.op = Op::Imul;
                    insn.src = Some(rm);
                }
                6 => {
                    insn.op = Op::Div;
                    insn.src = Some(rm);
                }
                7 => {
                    insn.op = Op::Idiv;
                    insn.src = Some(rm);
                }
                _ => unreachable!(),
            }
            done!();
        }
        0xFC => {
            insn.op = Op::Cld;
            done!();
        }
        0xFD => {
            insn.op = Op::Std;
            done!();
        }
        0xFE => {
            insn.size = Size::Byte;
            let (rm, ext) = modrm(&mut cur)?;
            insn.op = match ext {
                0 => Op::Inc,
                1 => Op::Dec,
                _ => return Err(DecodeError::UnsupportedGroup { addr, opcode, ext }),
            };
            insn.dst = Some(rm);
            done!();
        }
        0xFF => {
            let (rm, ext) = modrm(&mut cur)?;
            match ext {
                0 => {
                    insn.op = Op::Inc;
                    insn.dst = Some(rm);
                }
                1 => {
                    insn.op = Op::Dec;
                    insn.dst = Some(rm);
                }
                2 => {
                    insn.op = Op::CallInd;
                    insn.src = Some(rm);
                }
                4 => {
                    insn.op = Op::JmpInd;
                    insn.src = Some(rm);
                }
                6 => {
                    insn.op = Op::Push;
                    insn.dst = Some(rm);
                }
                _ => return Err(DecodeError::UnsupportedGroup { addr, opcode, ext }),
            }
            done!();
        }
        0x0F => {
            let op2 = cur.u8()?;
            match op2 {
                0x40..=0x4F => {
                    insn.op = Op::Cmovcc;
                    insn.cond = Some(Cond::from_num(op2 & 0xF));
                    let (rm, reg) = modrm(&mut cur)?;
                    insn.dst = Some(Operand::Reg(Reg::from_num(reg)));
                    insn.src = Some(rm);
                    done!();
                }
                0x80..=0x8F => {
                    insn.op = Op::Jcc;
                    insn.cond = Some(Cond::from_num(op2 & 0xF));
                    let rel = cur.u32()? as i32;
                    insn.dst = Some(Operand::Target(cur.pos.wrapping_add(rel as u32)));
                    done!();
                }
                0x90..=0x9F => {
                    insn.op = Op::Setcc;
                    insn.cond = Some(Cond::from_num(op2 & 0xF));
                    insn.size = Size::Byte;
                    let (rm, _) = modrm(&mut cur)?;
                    insn.dst = Some(rm);
                    done!();
                }
                0xAF => {
                    insn.op = Op::ImulR;
                    let (rm, reg) = modrm(&mut cur)?;
                    insn.dst = Some(Operand::Reg(Reg::from_num(reg)));
                    insn.src = Some(rm);
                    done!();
                }
                0xB6 | 0xB7 | 0xBE | 0xBF => {
                    insn.op = if op2 < 0xBE { Op::Movzx } else { Op::Movsx };
                    insn.src_size = Some(if op2 & 1 == 0 { Size::Byte } else { Size::Word });
                    let (rm, reg) = modrm(&mut cur)?;
                    insn.dst = Some(Operand::Reg(Reg::from_num(reg)));
                    insn.src = Some(rm);
                    done!();
                }
                _ => Err(DecodeError::Unsupported {
                    addr,
                    opcode: op2,
                    two_byte: true,
                }),
            }
        }
        _ => Err(DecodeError::Unsupported {
            addr,
            opcode,
            two_byte: false,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(bytes: &[u8]) -> Insn {
        decode(&SliceSource::new(0x1000, bytes), 0x1000).expect("decodes")
    }

    #[test]
    fn mov_reg_imm32() {
        let i = one(&[0xB8, 0x2A, 0x00, 0x00, 0x00]); // mov eax, 42
        assert_eq!(i.op, Op::Mov);
        assert_eq!(i.dst, Some(Operand::Reg(Reg::EAX)));
        assert_eq!(i.src, Some(Operand::Imm(42)));
        assert_eq!(i.len, 5);
    }

    #[test]
    fn alu_rm_r_forms() {
        // add [ebx+4], ecx
        let i = one(&[0x01, 0x4B, 0x04]);
        assert_eq!(i.op, Op::Add);
        assert_eq!(i.dst, Some(Operand::Mem(MemRef::base_disp(Reg::EBX, 4))));
        assert_eq!(i.src, Some(Operand::Reg(Reg::ECX)));

        // sub edx, [esi]
        let i = one(&[0x2B, 0x16]);
        assert_eq!(i.op, Op::Sub);
        assert_eq!(i.dst, Some(Operand::Reg(Reg::EDX)));
        assert_eq!(i.src, Some(Operand::Mem(MemRef::base_disp(Reg::ESI, 0))));
    }

    #[test]
    fn sib_with_scale() {
        // mov eax, [ebx + ecx*4 + 0x10]
        let i = one(&[0x8B, 0x44, 0x8B, 0x10]);
        assert_eq!(
            i.src,
            Some(Operand::Mem(MemRef::base_index(
                Reg::EBX,
                Reg::ECX,
                4,
                0x10
            )))
        );
    }

    #[test]
    fn sib_no_base_disp32() {
        // mov eax, [ecx*8 + 0x1234]
        let i = one(&[0x8B, 0x04, 0xCD, 0x34, 0x12, 0x00, 0x00]);
        let m = i.src.unwrap().mem().unwrap();
        assert_eq!(m.base, None);
        assert_eq!(m.index, Some((Reg::ECX, 8)));
        assert_eq!(m.disp, 0x1234);
    }

    #[test]
    fn abs_disp32() {
        // cmp dword [0xdeadbee0], 7
        let i = one(&[0x83, 0x3D, 0xE0, 0xBE, 0xAD, 0xDE, 0x07]);
        assert_eq!(i.op, Op::Cmp);
        assert_eq!(i.dst, Some(Operand::Mem(MemRef::abs(0xDEAD_BEE0))));
        assert_eq!(i.src, Some(Operand::Imm(7)));
    }

    #[test]
    fn jcc_rel8_target_resolution() {
        // jz +4 at 0x1000, next insn at 0x1002 → target 0x1006
        let i = one(&[0x74, 0x04]);
        assert_eq!(i.op, Op::Jcc);
        assert_eq!(i.cond, Some(Cond::E));
        assert_eq!(i.dst, Some(Operand::Target(0x1006)));
    }

    #[test]
    fn jcc_rel32_backward() {
        // jnz -0x10 (0f 85 f0 ff ff ff), len 6, target = 0x1006 - 0x10
        let i = one(&[0x0F, 0x85, 0xF0, 0xFF, 0xFF, 0xFF]);
        assert_eq!(i.cond, Some(Cond::Ne));
        assert_eq!(i.dst, Some(Operand::Target(0x0FF6)));
    }

    #[test]
    fn call_and_ret() {
        let i = one(&[0xE8, 0x00, 0x01, 0x00, 0x00]);
        assert_eq!(i.op, Op::Call);
        assert_eq!(i.dst, Some(Operand::Target(0x1105)));
        assert_eq!(one(&[0xC3]).op, Op::Ret);
        let r = one(&[0xC2, 0x08, 0x00]);
        assert_eq!(r.op, Op::Ret);
        assert_eq!(r.src, Some(Operand::Imm(8)));
    }

    #[test]
    fn indirect_jumps() {
        // jmp [eax]
        let i = one(&[0xFF, 0x20]);
        assert_eq!(i.op, Op::JmpInd);
        assert_eq!(i.src, Some(Operand::Mem(MemRef::base_disp(Reg::EAX, 0))));
        // call edx
        let i = one(&[0xFF, 0xD2]);
        assert_eq!(i.op, Op::CallInd);
        assert_eq!(i.src, Some(Operand::Reg(Reg::EDX)));
    }

    #[test]
    fn group1_imm8_sign_extends() {
        // add eax, -1 (83 C0 FF)
        let i = one(&[0x83, 0xC0, 0xFF]);
        assert_eq!(i.op, Op::Add);
        assert_eq!(i.src, Some(Operand::Imm(-1)));
    }

    #[test]
    fn group3_and_shifts() {
        let i = one(&[0xF7, 0xD8]); // neg eax
        assert_eq!(i.op, Op::Neg);
        let i = one(&[0xF7, 0xE1]); // mul ecx
        assert_eq!(i.op, Op::Mul);
        let i = one(&[0xC1, 0xE0, 0x03]); // shl eax, 3
        assert_eq!(i.op, Op::Shl);
        assert_eq!(i.src, Some(Operand::Imm(3)));
        let i = one(&[0xD3, 0xF8]); // sar eax, cl
        assert_eq!(i.op, Op::Sar);
        assert_eq!(i.src, Some(Operand::Reg(Reg::ECX)));
    }

    #[test]
    fn movzx_movsx_source_width() {
        let i = one(&[0x0F, 0xB6, 0xC1]); // movzx eax, cl
        assert_eq!(i.op, Op::Movzx);
        assert_eq!(i.src_size, Some(Size::Byte));
        let i = one(&[0x0F, 0xBF, 0xC1]); // movsx eax, cx
        assert_eq!(i.op, Op::Movsx);
        assert_eq!(i.src_size, Some(Size::Word));
    }

    #[test]
    fn rep_string_ops() {
        let i = one(&[0xF3, 0xA5]); // rep movsd
        assert_eq!(i.op, Op::Movs);
        assert_eq!(i.rep, Rep::Rep);
        assert_eq!(i.size, Size::Dword);
        let i = one(&[0xF3, 0xAA]); // rep stosb
        assert_eq!(i.op, Op::Stos);
        assert_eq!(i.size, Size::Byte);
    }

    #[test]
    fn operand_size_prefix() {
        let i = one(&[0x66, 0xB8, 0x34, 0x12]); // mov ax, 0x1234
        assert_eq!(i.size, Size::Word);
        assert_eq!(i.src, Some(Operand::Imm(0x1234)));
        assert_eq!(i.len, 4);
    }

    #[test]
    fn int80_syscall() {
        let i = one(&[0xCD, 0x80]);
        assert_eq!(i.op, Op::Int);
        assert_eq!(i.src, Some(Operand::Imm(0x80)));
    }

    #[test]
    fn unsupported_opcode_reports_address() {
        let e = decode(&SliceSource::new(0, &[0x0F, 0x31]), 0).unwrap_err(); // rdtsc
        assert!(matches!(
            e,
            DecodeError::Unsupported {
                two_byte: true,
                opcode: 0x31,
                ..
            }
        ));
    }

    #[test]
    fn unmapped_fetch_reports_address() {
        let e = decode(&SliceSource::new(0, &[0xB8]), 0).unwrap_err();
        assert_eq!(e, DecodeError::Unmapped { addr: 1 });
    }

    #[test]
    fn push_pop_forms() {
        assert_eq!(one(&[0x55]).op, Op::Push); // push ebp
        assert_eq!(one(&[0x5D]).op, Op::Pop); // pop ebp
        let i = one(&[0x6A, 0xFE]); // push -2
        assert_eq!(i.dst, Some(Operand::Imm(-2)));
        let i = one(&[0xFF, 0x75, 0x08]); // push [ebp+8]
        assert_eq!(i.op, Op::Push);
        assert!(i.dst.unwrap().is_mem());
    }

    #[test]
    fn ebp_base_requires_disp() {
        // [ebp] encodes as [ebp+0] with mod=1.
        let i = one(&[0x8B, 0x45, 0x00]);
        assert_eq!(i.src, Some(Operand::Mem(MemRef::base_disp(Reg::EBP, 0))));
    }

    #[test]
    fn setcc_and_cmov() {
        let i = one(&[0x0F, 0x94, 0xC0]); // sete al
        assert_eq!(i.op, Op::Setcc);
        assert_eq!(i.size, Size::Byte);
        let i = one(&[0x0F, 0x4C, 0xC8]); // cmovl ecx, eax
        assert_eq!(i.op, Op::Cmovcc);
        assert_eq!(i.cond, Some(Cond::L));
    }
}
