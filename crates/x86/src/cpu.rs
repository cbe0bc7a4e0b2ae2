//! Reference IA-32 interpreter — the correctness oracle for the DBT.
//!
//! Executes guest programs functionally (no timing). The dynamic binary
//! translator in `vta-dbt` must produce *bit-identical architectural
//! results* to this interpreter: the integration suite runs every workload
//! on both and compares final registers, exit codes and syscall output.

use std::collections::BTreeSet;

use crate::decode::{decode, DecodeError};
use crate::flags::{self, Flags};
use crate::image::GuestImage;
use crate::insn::{Insn, MemRef, Op, Operand, Reg, Rep, Size};
use crate::mem::GuestMem;
use crate::syscall::{SysState, SyscallResult};

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The guest called `exit(code)`.
    Exit(u32),
    /// The guest executed `hlt`.
    Halt,
    /// The instruction budget ran out before the guest finished.
    InsnLimit,
}

/// A guest fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuError {
    /// Instruction decode failed.
    Decode(DecodeError),
    /// A data access touched an unmapped page.
    Unmapped {
        /// Faulting data address.
        addr: u32,
        /// Address of the instruction that faulted.
        at: u32,
    },
    /// `div`/`idiv` by zero or quotient overflow.
    DivideError {
        /// Address of the divide instruction.
        at: u32,
    },
    /// `int` with an unsupported vector.
    BadInterrupt {
        /// The vector.
        vector: u8,
        /// Address of the instruction.
        at: u32,
    },
}

impl std::fmt::Display for CpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CpuError::Decode(e) => write!(f, "decode fault: {e}"),
            CpuError::Unmapped { addr, at } => {
                write!(f, "unmapped data access to {addr:#010x} at {at:#010x}")
            }
            CpuError::DivideError { at } => write!(f, "divide error at {at:#010x}"),
            CpuError::BadInterrupt { vector, at } => {
                write!(f, "unsupported interrupt {vector:#04x} at {at:#010x}")
            }
        }
    }
}

impl std::error::Error for CpuError {}

impl From<DecodeError> for CpuError {
    fn from(e: DecodeError) -> Self {
        CpuError::Decode(e)
    }
}

/// Watches [`Cpu::run_observed`] step through a guest (the Pentium III
/// model in `vta-pentium` is one); `()` watches nothing.
pub trait Observer {
    /// Runs once `insn` is decoded and counted (`EIP` already points past
    /// it), before it executes — also for an instruction that then faults.
    fn before(&mut self, _cpu: &Cpu, _insn: &Insn) {}
    /// Runs once `insn` has executed without stopping or faulting.
    fn after(&mut self, _cpu: &Cpu, _insn: &Insn) {}
}

impl Observer for () {}

/// Collects the block leaders a run reaches: the pc after every
/// block-ending instruction ([`Op::is_block_end`]) it executes.
#[derive(Debug, Default)]
pub struct Leaders(pub BTreeSet<u32>);

impl Observer for Leaders {
    fn after(&mut self, cpu: &Cpu, insn: &Insn) {
        if insn.op.is_block_end() {
            self.0.insert(cpu.eip);
        }
    }
}

/// The architectural state of one virtual x86, plus its memory and OS.
///
/// # Examples
///
/// ```
/// use vta_x86::{Asm, Cpu, GuestImage, Reg, StopReason};
///
/// let mut asm = Asm::new(0x0800_0000);
/// asm.mov_ri(Reg::EAX, 5);
/// asm.add_ri(Reg::EAX, 2);
/// asm.exit_with_eax();
/// let mut cpu = Cpu::new(&GuestImage::from_code(asm.finish()));
/// assert_eq!(cpu.run(100).unwrap(), StopReason::Exit(7));
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    /// General-purpose registers, indexed by [`Reg::num`].
    pub regs: [u32; 8],
    /// Instruction pointer.
    pub eip: u32,
    /// Flags register.
    pub flags: Flags,
    /// Guest memory.
    pub mem: GuestMem,
    /// OS state (syscalls, program break, I/O streams).
    pub sys: SysState,
    /// Instructions retired.
    pub insn_count: u64,
}

impl Cpu {
    /// Boots a guest image: builds memory, sets `EIP`/`ESP`.
    pub fn new(image: &GuestImage) -> Self {
        let mut sys = SysState::new(image.brk_base);
        sys.set_input(image.input.clone());
        let mut regs = [0u32; 8];
        regs[Reg::ESP.num() as usize] = image.initial_esp();
        Cpu {
            regs,
            eip: image.entry,
            flags: Flags::default(),
            mem: image.build_mem(),
            sys,
            insn_count: 0,
        }
    }

    /// Reads a register at a given width (handles `AH..BH` high bytes).
    pub(crate) fn read_reg(&self, r: Reg, size: Size) -> u32 {
        let n = r.num() as usize;
        match size {
            Size::Byte => {
                if n < 4 {
                    self.regs[n] & 0xFF
                } else {
                    (self.regs[n - 4] >> 8) & 0xFF
                }
            }
            Size::Word => self.regs[n] & 0xFFFF,
            Size::Dword => self.regs[n],
        }
    }

    /// Writes a register at a given width, preserving the other bits.
    pub(crate) fn write_reg(&mut self, r: Reg, size: Size, v: u32) {
        let n = r.num() as usize;
        match size {
            Size::Byte => {
                if n < 4 {
                    self.regs[n] = (self.regs[n] & !0xFF) | (v & 0xFF);
                } else {
                    self.regs[n - 4] = (self.regs[n - 4] & !0xFF00) | ((v & 0xFF) << 8);
                }
            }
            Size::Word => self.regs[n] = (self.regs[n] & !0xFFFF) | (v & 0xFFFF),
            Size::Dword => self.regs[n] = v,
        }
    }

    /// Computes the effective address of a memory operand.
    pub fn effective_addr(&self, m: MemRef) -> u32 {
        let mut addr = m.disp as u32;
        if let Some(b) = m.base {
            addr = addr.wrapping_add(self.regs[b.num() as usize]);
        }
        if let Some((i, s)) = m.index {
            addr = addr.wrapping_add(self.regs[i.num() as usize].wrapping_mul(s as u32));
        }
        addr
    }

    fn load(&self, addr: u32, size: Size, at: u32) -> Result<u32, CpuError> {
        self.mem
            .read_sized(addr, size.bytes())
            .map_err(|e| CpuError::Unmapped { addr: e.addr, at })
    }

    fn store(&mut self, addr: u32, v: u32, size: Size, at: u32) -> Result<(), CpuError> {
        self.mem
            .write_sized(addr, v, size.bytes())
            .map_err(|e| CpuError::Unmapped { addr: e.addr, at })
    }

    fn read_operand(&self, op: Operand, size: Size, at: u32) -> Result<u32, CpuError> {
        match op {
            Operand::Reg(r) => Ok(self.read_reg(r, size)),
            Operand::Imm(i) => Ok(i as u32 & size.mask()),
            Operand::Mem(m) => self.load(self.effective_addr(m), size, at),
            Operand::Target(t) => Ok(t),
        }
    }

    fn write_operand(&mut self, op: Operand, size: Size, v: u32, at: u32) -> Result<(), CpuError> {
        match op {
            Operand::Reg(r) => {
                self.write_reg(r, size, v);
                Ok(())
            }
            Operand::Mem(m) => self.store(self.effective_addr(m), v, size, at),
            _ => panic!("write to non-lvalue operand {op:?}"),
        }
    }

    fn push(&mut self, v: u32, at: u32) -> Result<(), CpuError> {
        let esp = self.regs[Reg::ESP.num() as usize].wrapping_sub(4);
        self.regs[Reg::ESP.num() as usize] = esp;
        self.store(esp, v, Size::Dword, at)
    }

    fn pop(&mut self, at: u32) -> Result<u32, CpuError> {
        let esp = self.regs[Reg::ESP.num() as usize];
        let v = self.load(esp, Size::Dword, at)?;
        self.regs[Reg::ESP.num() as usize] = esp.wrapping_add(4);
        Ok(v)
    }

    /// Runs until the guest stops, faults, or `max_insns` more retire.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CpuError`].
    pub fn run(&mut self, max_insns: u64) -> Result<StopReason, CpuError> {
        self.run_observed(max_insns, &mut ())
    }

    /// [`Cpu::run`], calling `observer` around every instruction: the
    /// interpreter's one decode → execute loop. Errors as [`Cpu::run`].
    pub fn run_observed(
        &mut self,
        max_insns: u64,
        observer: &mut impl Observer,
    ) -> Result<StopReason, CpuError> {
        let budget_end = self.insn_count.saturating_add(max_insns);
        while self.insn_count < budget_end {
            let insn = decode(&self.mem, self.eip)?;
            self.insn_count += 1;
            self.eip = insn.next_addr();
            observer.before(self, &insn);
            if let Some(stop) = self.execute(&insn)? {
                return Ok(stop);
            }
            observer.after(self, &insn);
        }
        Ok(StopReason::InsnLimit)
    }

    /// Executes an already-decoded instruction (`EIP` must already point
    /// past it).
    fn execute(&mut self, insn: &Insn) -> Result<Option<StopReason>, CpuError> {
        let at = insn.addr;
        let size = insn.size;
        match insn.op {
            Op::Nop => {}
            Op::Mov => {
                let v = self.read_operand(insn.src.unwrap(), size, at)?;
                self.write_operand(insn.dst.unwrap(), size, v, at)?;
            }
            Op::Movzx | Op::Movsx => {
                let ss = insn.src_size.unwrap();
                let raw = self.read_operand(insn.src.unwrap(), ss, at)?;
                let v = if insn.op == Op::Movzx {
                    raw & ss.mask()
                } else {
                    ss.sign_extend(raw)
                };
                self.write_operand(insn.dst.unwrap(), Size::Dword, v, at)?;
            }
            Op::Lea => {
                let m = insn.src.unwrap().mem().expect("lea needs a memory src");
                let addr = self.effective_addr(m);
                self.write_operand(insn.dst.unwrap(), Size::Dword, addr, at)?;
            }
            Op::Xchg => {
                let (d, s) = (insn.dst.unwrap(), insn.src.unwrap());
                let dv = self.read_operand(d, size, at)?;
                let sv = self.read_operand(s, size, at)?;
                self.write_operand(d, size, sv, at)?;
                self.write_operand(s, size, dv, at)?;
            }
            Op::Push => {
                let v = self.read_operand(insn.dst.unwrap(), Size::Dword, at)?;
                self.push(v, at)?;
            }
            Op::Pop => {
                let v = self.pop(at)?;
                self.write_operand(insn.dst.unwrap(), Size::Dword, v, at)?;
            }
            Op::Add
            | Op::Or
            | Op::Adc
            | Op::Sbb
            | Op::And
            | Op::Sub
            | Op::Xor
            | Op::Cmp
            | Op::Test => {
                let d = insn.dst.unwrap();
                let a = self.read_operand(d, size, at)?;
                let b = self.read_operand(insn.src.unwrap(), size, at)?;
                let f = &mut self.flags;
                let (result, writeback) = match insn.op {
                    Op::Add => (flags::add(f, size, a, b), true),
                    Op::Adc => (flags::adc(f, size, a, b), true),
                    Op::Sub => (flags::sub(f, size, a, b), true),
                    Op::Sbb => (flags::sbb(f, size, a, b), true),
                    Op::Cmp => (flags::sub(f, size, a, b), false),
                    Op::And => (flags::logic(f, size, a & b), true),
                    Op::Or => (flags::logic(f, size, a | b), true),
                    Op::Xor => (flags::logic(f, size, a ^ b), true),
                    Op::Test => (flags::logic(f, size, a & b), false),
                    _ => unreachable!(),
                };
                if writeback {
                    self.write_operand(d, size, result, at)?;
                }
            }
            Op::Inc | Op::Dec | Op::Neg | Op::Not => {
                let d = insn.dst.unwrap();
                let a = self.read_operand(d, size, at)?;
                let f = &mut self.flags;
                let r = match insn.op {
                    Op::Inc => flags::inc(f, size, a),
                    Op::Dec => flags::dec(f, size, a),
                    Op::Neg => flags::neg(f, size, a),
                    Op::Not => !a & size.mask(),
                    _ => unreachable!(),
                };
                self.write_operand(d, size, r, at)?;
            }
            Op::Rol | Op::Ror | Op::Shl | Op::Shr | Op::Sar => {
                let d = insn.dst.unwrap();
                let a = self.read_operand(d, size, at)?;
                // Count comes from an immediate or CL.
                let count = match insn.src.unwrap() {
                    Operand::Imm(i) => i as u32,
                    Operand::Reg(_) => self.read_reg(Reg::ECX, Size::Byte),
                    other => panic!("bad shift count operand {other:?}"),
                };
                let f = &mut self.flags;
                let r = match insn.op {
                    Op::Rol => flags::rol(f, size, a, count),
                    Op::Ror => flags::ror(f, size, a, count),
                    Op::Shl => flags::shl(f, size, a, count),
                    Op::Shr => flags::shr(f, size, a, count),
                    Op::Sar => flags::sar(f, size, a, count),
                    _ => unreachable!(),
                };
                self.write_operand(d, size, r, at)?;
            }
            Op::Mul | Op::Imul => {
                let a = self.read_reg(Reg::EAX, size);
                let b = self.read_operand(insn.src.unwrap(), size, at)?;
                let (lo, hi) = if insn.op == Op::Mul {
                    flags::mul(&mut self.flags, size, a, b)
                } else {
                    flags::imul(&mut self.flags, size, a, b)
                };
                match size {
                    Size::Byte => {
                        // AX = AL * r/m8.
                        self.write_reg(Reg::EAX, Size::Word, (hi << 8) | lo);
                    }
                    _ => {
                        self.write_reg(Reg::EAX, size, lo);
                        self.write_reg(Reg::EDX, size, hi);
                    }
                }
            }
            Op::ImulR => {
                let (a, b) = match insn.src2 {
                    // Three-operand: dst = src * imm.
                    Some(Operand::Imm(i)) => {
                        (self.read_operand(insn.src.unwrap(), size, at)?, i as u32)
                    }
                    // Two-operand: dst = dst * src.
                    _ => (
                        self.read_operand(insn.dst.unwrap(), size, at)?,
                        self.read_operand(insn.src.unwrap(), size, at)?,
                    ),
                };
                let (lo, _hi) = flags::imul(&mut self.flags, size, a, b);
                self.write_operand(insn.dst.unwrap(), size, lo, at)?;
            }
            Op::Div | Op::Idiv => {
                let divisor = self.read_operand(insn.src.unwrap(), size, at)?;
                let (eax, edx) = (Reg::EAX.num() as usize, Reg::EDX.num() as usize);
                let signed = insn.op == Op::Idiv;
                (self.regs[eax], self.regs[edx]) =
                    flags::div(size, signed, self.regs[eax], self.regs[edx], divisor)
                        .ok_or(CpuError::DivideError { at })?;
            }
            Op::Cwde => {
                let v = self.read_reg(Reg::EAX, Size::Word);
                self.regs[Reg::EAX.num() as usize] = Size::Word.sign_extend(v);
            }
            Op::Cdq => {
                let sign = (self.regs[Reg::EAX.num() as usize] as i32) >> 31;
                self.regs[Reg::EDX.num() as usize] = sign as u32;
            }
            Op::Jmp => {
                self.eip = match insn.dst.unwrap() {
                    Operand::Target(t) => t,
                    other => panic!("bad jmp operand {other:?}"),
                };
            }
            Op::JmpInd => {
                self.eip = self.read_operand(insn.src.unwrap(), Size::Dword, at)?;
            }
            Op::Jcc => {
                if flags::cond_holds(insn.cond.unwrap(), self.flags) {
                    self.eip = match insn.dst.unwrap() {
                        Operand::Target(t) => t,
                        other => panic!("bad jcc operand {other:?}"),
                    };
                }
            }
            Op::Call => {
                let ret = self.eip;
                self.push(ret, at)?;
                self.eip = match insn.dst.unwrap() {
                    Operand::Target(t) => t,
                    other => panic!("bad call operand {other:?}"),
                };
            }
            Op::CallInd => {
                let target = self.read_operand(insn.src.unwrap(), Size::Dword, at)?;
                let ret = self.eip;
                self.push(ret, at)?;
                self.eip = target;
            }
            Op::Ret => {
                self.eip = self.pop(at)?;
                if let Some(Operand::Imm(n)) = insn.src {
                    let esp = self.regs[Reg::ESP.num() as usize];
                    self.regs[Reg::ESP.num() as usize] = esp.wrapping_add(n as u32);
                }
            }
            Op::Setcc => {
                let v = flags::cond_holds(insn.cond.unwrap(), self.flags) as u32;
                self.write_operand(insn.dst.unwrap(), Size::Byte, v, at)?;
            }
            Op::Cmovcc => {
                let v = self.read_operand(insn.src.unwrap(), size, at)?;
                if flags::cond_holds(insn.cond.unwrap(), self.flags) {
                    self.write_operand(insn.dst.unwrap(), size, v, at)?;
                }
            }
            Op::Movs | Op::Stos | Op::Lods | Op::Scas => {
                self.string_op(insn, at)?;
            }
            Op::Cld => self.flags.set_df(false),
            Op::Std => self.flags.set_df(true),
            Op::Hlt => return Ok(Some(StopReason::Halt)),
            Op::Int => {
                let vector = match insn.src {
                    Some(Operand::Imm(v)) => v as u8,
                    _ => 0,
                };
                if vector != 0x80 {
                    return Err(CpuError::BadInterrupt { vector, at });
                }
                let nr = self.regs[Reg::EAX.num() as usize];
                let args = [
                    self.regs[Reg::EBX.num() as usize],
                    self.regs[Reg::ECX.num() as usize],
                    self.regs[Reg::EDX.num() as usize],
                ];
                match self.sys.dispatch(&mut self.mem, nr, args) {
                    SyscallResult::Continue(ret) => {
                        self.regs[Reg::EAX.num() as usize] = ret;
                    }
                    SyscallResult::Exit(code) => return Ok(Some(StopReason::Exit(code))),
                }
            }
        }
        Ok(None)
    }

    fn string_op(&mut self, insn: &Insn, at: u32) -> Result<(), CpuError> {
        let size = insn.size;
        let step = if self.flags.df() {
            (size.bytes() as i32).wrapping_neg()
        } else {
            size.bytes() as i32
        };
        loop {
            if insn.rep != Rep::None && self.regs[Reg::ECX.num() as usize] == 0 {
                break;
            }
            let esi = self.regs[Reg::ESI.num() as usize];
            let edi = self.regs[Reg::EDI.num() as usize];
            let mut zf_after = None;
            match insn.op {
                Op::Movs => {
                    let v = self.load(esi, size, at)?;
                    self.store(edi, v, size, at)?;
                    self.regs[Reg::ESI.num() as usize] = esi.wrapping_add(step as u32);
                    self.regs[Reg::EDI.num() as usize] = edi.wrapping_add(step as u32);
                }
                Op::Stos => {
                    let v = self.read_reg(Reg::EAX, size);
                    self.store(edi, v, size, at)?;
                    self.regs[Reg::EDI.num() as usize] = edi.wrapping_add(step as u32);
                }
                Op::Lods => {
                    let v = self.load(esi, size, at)?;
                    self.write_reg(Reg::EAX, size, v);
                    self.regs[Reg::ESI.num() as usize] = esi.wrapping_add(step as u32);
                }
                Op::Scas => {
                    let a = self.read_reg(Reg::EAX, size);
                    let b = self.load(edi, size, at)?;
                    flags::sub(&mut self.flags, size, a, b);
                    self.regs[Reg::EDI.num() as usize] = edi.wrapping_add(step as u32);
                    zf_after = Some(self.flags.zf());
                }
                _ => unreachable!(),
            }
            match insn.rep {
                Rep::None => break,
                Rep::Rep => {
                    let ecx = self.regs[Reg::ECX.num() as usize].wrapping_sub(1);
                    self.regs[Reg::ECX.num() as usize] = ecx;
                    // repe scas stops when ZF clears.
                    if insn.op == Op::Scas && zf_after == Some(false) {
                        break;
                    }
                }
                Rep::Repne => {
                    let ecx = self.regs[Reg::ECX.num() as usize].wrapping_sub(1);
                    self.regs[Reg::ECX.num() as usize] = ecx;
                    if insn.op == Op::Scas && zf_after == Some(true) {
                        break;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::insn::Cond;
    use Reg::*;

    const BASE: u32 = 0x0800_0000;
    const DATA: u32 = 0x0900_0000;

    fn run(f: impl FnOnce(&mut Asm)) -> (Cpu, StopReason) {
        run_with(f, |img| img)
    }

    fn run_with(
        f: impl FnOnce(&mut Asm),
        g: impl FnOnce(GuestImage) -> GuestImage,
    ) -> (Cpu, StopReason) {
        let mut asm = Asm::new(BASE);
        f(&mut asm);
        let image = g(GuestImage::from_code(asm.finish()));
        let mut cpu = Cpu::new(&image);
        let stop = cpu.run(10_000_000).expect("guest fault");
        (cpu, stop)
    }

    #[test]
    fn arithmetic_loop_sums() {
        // sum 1..=100 = 5050
        let (_, stop) = run(|a| {
            a.mov_ri(ECX, 100);
            a.mov_ri(EAX, 0);
            let top = a.here();
            a.add_rr(EAX, ECX);
            a.dec_r(ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
        });
        assert_eq!(stop, StopReason::Exit(5050));
    }

    #[test]
    fn memory_and_lea() {
        let (_, stop) = run_with(
            |a| {
                a.mov_ri(EBX, DATA);
                a.mov_ri(ECX, 2);
                // eax = [ebx + ecx*4] (third dword = 30)
                a.mov_rm(EAX, MemRef::base_index(EBX, ECX, 4, 0));
                // lea edx, [eax + eax*2] → eax*3
                a.lea(EDX, MemRef::base_index(EAX, EAX, 2, 0));
                a.mov_rr(EAX, EDX);
                a.exit_with_eax();
            },
            |img| {
                let mut d = Vec::new();
                for v in [10u32, 20, 30, 40] {
                    d.extend_from_slice(&v.to_le_bytes());
                }
                img.with_data(DATA, d)
            },
        );
        assert_eq!(stop, StopReason::Exit(90));
    }

    #[test]
    fn call_ret_stack_discipline() {
        let (cpu, stop) = run(|a| {
            let func = a.label();
            a.mov_ri(EAX, 1);
            a.call(func);
            a.add_ri(EAX, 100);
            a.exit_with_eax();
            a.bind(func);
            a.add_ri(EAX, 10);
            a.ret();
        });
        assert_eq!(stop, StopReason::Exit(111));
        // The stack is balanced again after the call returns.
        assert_eq!(cpu.regs[ESP.num() as usize], 0x0C00_0000 - 16);
    }

    #[test]
    fn push_pop_roundtrip() {
        let (_, stop) = run(|a| {
            a.mov_ri(EAX, 0xAABB);
            a.push_r(EAX);
            a.mov_ri(EAX, 0);
            a.pop_r(EBX);
            a.mov_rr(EAX, EBX);
            a.exit_with_eax();
        });
        assert_eq!(stop, StopReason::Exit(0xAABB));
    }

    #[test]
    fn div_and_remainder() {
        let (cpu, stop) = run(|a| {
            a.mov_ri(EAX, 1000);
            a.mov_ri(EDX, 0);
            a.mov_ri(ECX, 7);
            a.div_r(ECX); // q=142 r=6
            a.exit_with_eax();
        });
        assert_eq!(stop, StopReason::Exit(142));
        assert_eq!(cpu.regs[EDX.num() as usize], 6);
    }

    #[test]
    fn idiv_signed() {
        let (cpu, stop) = run(|a| {
            a.mov_ri(EAX, (-1000i32) as u32);
            a.cdq();
            a.mov_ri(ECX, 7);
            a.idiv_r(ECX); // q=-142 r=-6
            a.neg_r(EAX);
            a.exit_with_eax();
        });
        assert_eq!(stop, StopReason::Exit(142));
        assert_eq!(cpu.regs[EDX.num() as usize], (-6i32) as u32);
    }

    #[test]
    fn divide_by_zero_faults() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(EAX, 5);
        asm.mov_ri(EDX, 0);
        asm.mov_ri(ECX, 0);
        asm.div_r(ECX);
        let mut cpu = Cpu::new(&GuestImage::from_code(asm.finish()));
        assert!(matches!(cpu.run(100), Err(CpuError::DivideError { .. })));
    }

    #[test]
    fn high_byte_registers() {
        let (_, stop) = run(|a| {
            a.mov_ri(EAX, 0);
            a.mov_ri8(4, 0x12); // mov ah, 0x12
            a.mov_ri8(0, 0x34); // mov al, 0x34
            a.exit_with_eax();
        });
        assert_eq!(stop, StopReason::Exit(0x1234));
    }

    #[test]
    fn setcc_and_cmov() {
        let (_, stop) = run(|a| {
            a.mov_ri(EAX, 0);
            a.mov_ri(EBX, 3);
            a.mov_ri(ECX, 5);
            a.cmp_rr(EBX, ECX);
            a.setcc(Cond::L, 0); // al = 1
            a.mov_ri(EDX, 77);
            a.cmovcc(Cond::L, EAX, EDX); // taken: eax = 77
            a.exit_with_eax();
        });
        assert_eq!(stop, StopReason::Exit(77));
    }

    #[test]
    fn jump_table_indirect() {
        // Build once to learn the case-label addresses, then supply a jump
        // table in the data segment and dispatch through it.
        let build = || {
            let mut a = Asm::new(BASE);
            let case0 = a.label();
            let case1 = a.label();
            let done = a.label();
            a.mov_ri(ECX, 1); // select case 1
            a.mov_rm(
                EDX,
                MemRef {
                    base: None,
                    index: Some((ECX, 4)),
                    disp: DATA as i32,
                },
            );
            a.jmp_r(EDX);
            a.bind(case0);
            let case0_addr = a.cur_addr();
            a.mov_ri(EAX, 10);
            a.jmp(done);
            a.bind(case1);
            let case1_addr = a.cur_addr();
            a.mov_ri(EAX, 20);
            a.jmp(done);
            a.bind(done);
            a.exit_with_eax();
            (a.finish(), case0_addr, case1_addr)
        };
        let (prog, case0, case1) = build();
        let mut table = Vec::new();
        table.extend_from_slice(&case0.to_le_bytes());
        table.extend_from_slice(&case1.to_le_bytes());
        let img = GuestImage::from_code(prog).with_data(DATA, table);
        let mut cpu = Cpu::new(&img);
        assert_eq!(cpu.run(1000).unwrap(), StopReason::Exit(20));
    }

    #[test]
    fn rep_movs_copies_block() {
        let (cpu, _) = run_with(
            |a| {
                a.cld();
                a.mov_ri(ESI, DATA);
                a.mov_ri(EDI, DATA + 0x100);
                a.mov_ri(ECX, 4);
                a.rep_movs(Size::Dword);
                a.mov_rm(EAX, MemRef::abs(DATA + 0x100 + 12));
                a.exit_with_eax();
            },
            |img| {
                let mut d = vec![0u8; 0x200];
                d[12..16].copy_from_slice(&0xCAFEu32.to_le_bytes());
                img.with_data(DATA, d)
            },
        );
        assert_eq!(cpu.regs[ECX.num() as usize], 0);
    }

    #[test]
    fn rep_stos_fills() {
        let (_, stop) = run_with(
            |a| {
                a.cld();
                a.mov_ri(EDI, DATA);
                a.mov_ri(EAX, 0x5A5A_5A5A);
                a.mov_ri(ECX, 8);
                a.rep_stos(Size::Dword);
                a.mov_rm(EAX, MemRef::abs(DATA + 28));
                a.exit_with_eax();
            },
            |img| img.with_bss(DATA, 64),
        );
        assert_eq!(stop, StopReason::Exit(0x5A5A_5A5A));
    }

    #[test]
    fn write_syscall_output() {
        let (cpu, stop) = run_with(
            |a| {
                a.mov_ri(EAX, 4); // write
                a.mov_ri(EBX, 1);
                a.mov_ri(ECX, DATA);
                a.mov_ri(EDX, 5);
                a.int_(0x80);
                a.exit(0);
            },
            |img| img.with_data(DATA, b"hello".to_vec()),
        );
        assert_eq!(stop, StopReason::Exit(0));
        assert_eq!(cpu.sys.output, b"hello");
    }

    #[test]
    fn insn_limit_stops() {
        let mut asm = Asm::new(BASE);
        let top = asm.here();
        asm.jmp(top);
        let mut cpu = Cpu::new(&GuestImage::from_code(asm.finish()));
        assert_eq!(cpu.run(10).unwrap(), StopReason::InsnLimit);
    }

    #[test]
    fn a_resumed_run_takes_any_budget() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(EAX, 3);
        asm.exit_with_eax();
        let mut cpu = Cpu::new(&GuestImage::from_code(asm.finish()));
        assert_eq!(cpu.run(1).unwrap(), StopReason::InsnLimit);
        assert_eq!(cpu.run(u64::MAX).unwrap(), StopReason::Exit(3));
    }

    /// Each hook's instruction addresses, in call order.
    #[derive(Default)]
    struct Seen {
        before: Vec<u32>,
        after: Vec<u32>,
    }

    impl Observer for Seen {
        fn before(&mut self, cpu: &Cpu, insn: &Insn) {
            assert_eq!(cpu.eip, insn.next_addr(), "EIP points past a counted insn");
            self.before.push(insn.addr);
        }

        fn after(&mut self, _cpu: &Cpu, insn: &Insn) {
            self.after.push(insn.addr);
        }
    }

    #[test]
    fn observer_sees_every_counted_insn_and_after_only_completed_ones() {
        // A loop around a call/ret, then a load through EBX and an exit:
        // with EBX at data the guest exits, with EBX unmapped the load
        // faults.
        let mut asm = Asm::new(BASE);
        let func = asm.label();
        asm.mov_ri(ECX, 5);
        let top = asm.here();
        asm.call(func);
        asm.dec_r(ECX);
        asm.jcc(Cond::Ne, top);
        let load = asm.cur_addr();
        asm.mov_rm(EDX, MemRef::base_disp(EBX, 0));
        asm.exit_with_eax();
        asm.bind(func);
        asm.add_rr(EAX, ECX);
        asm.ret();
        let image = GuestImage::from_code(asm.finish()).with_bss(DATA, 4);
        let unmapped = 0x4000_0000;
        let fault = CpuError::Unmapped {
            addr: unmapped,
            at: load,
        };
        for (ebx, want) in [(DATA, Ok(StopReason::Exit(15))), (unmapped, Err(fault))] {
            let boot = || {
                let mut cpu = Cpu::new(&image);
                cpu.regs[EBX.num() as usize] = ebx;
                cpu
            };
            let (mut plain, mut unobserved, mut watched) = (boot(), boot(), boot());
            let mut seen = Seen::default();
            assert_eq!(plain.run(1000), want);
            assert_eq!(unobserved.run_observed(1000, &mut ()), want);
            assert_eq!(watched.run_observed(1000, &mut seen), want);
            let state = |c: &Cpu| (c.regs, c.eip, c.flags, c.insn_count, c.sys.output.clone());
            assert_eq!(state(&unobserved), state(&plain));
            assert_eq!(state(&watched), state(&plain));
            assert_eq!(seen.before.len() as u64, plain.insn_count);
            // The last counted instruction stopped the guest or faulted;
            // every one before it completed.
            assert_eq!(seen.after, seen.before[..seen.before.len() - 1]);
        }
    }

    #[test]
    fn unmapped_data_access_faults() {
        let mut asm = Asm::new(BASE);
        asm.mov_rm(EAX, MemRef::abs(0x4000_0000));
        let mut cpu = Cpu::new(&GuestImage::from_code(asm.finish()));
        assert!(matches!(cpu.run(10), Err(CpuError::Unmapped { .. })));
    }

    #[test]
    fn word_size_ops_preserve_upper() {
        let (_, stop) = run(|a| {
            a.mov_ri(EAX, 0xFFFF_0000);
            a.raw(&[0x66, 0xB8, 0x34, 0x12]); // mov ax, 0x1234
            a.exit_with_eax();
        });
        assert_eq!(stop, StopReason::Exit(0xFFFF_1234));
    }

    #[test]
    fn adc_carry_chain_64bit_add() {
        let (_, stop) = run(|a| {
            // EBX:EAX = 0x00000001_FFFFFFFF + 0x00000002_00000001
            a.mov_ri(EAX, 0xFFFF_FFFF);
            a.mov_ri(EBX, 1);
            a.add_ri(EAX, 1); // EAX = 0, CF = 1
            a.adc_ri(EBX, 2); // EBX = 1 + 2 + 1 = 4
            a.add_rr(EAX, EBX);
            a.exit_with_eax();
        });
        assert_eq!(stop, StopReason::Exit(4));
    }

    #[test]
    fn xchg_mem_swaps() {
        let (cpu, stop) = run_with(
            |a| {
                a.mov_ri(EAX, 7);
                a.mov_ri(EBX, DATA);
                a.raw(&[0x87, 0x03]); // xchg [ebx], eax
                a.exit_with_eax();
            },
            |img| img.with_data(DATA, 99u32.to_le_bytes().to_vec()),
        );
        assert_eq!(stop, StopReason::Exit(99));
        assert_eq!(cpu.mem.read_u32(DATA), Ok(7));
    }
}
