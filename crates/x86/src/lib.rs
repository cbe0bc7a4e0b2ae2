//! # vta-x86 — IA-32 guest architecture
//!
//! The guest side of the CGO 2006 reproduction: a structured model of a
//! substantial IA-32 subset, a variable-length [`decode`](mod@decode)r, a
//! programmatic [`Asm`] assembler used to author guest programs, the full
//! EFLAGS semantics in [`flags`], a reference interpreter [`Cpu`] that
//! serves as the correctness oracle for the dynamic binary translator, and
//! a [`GuestImage`] loader with a Linux-like `int 0x80` syscall ABI.
//!
//! The subset covers what the paper's translator had to fight with:
//! variable-length encodings (prefixes, ModRM/SIB, displacements),
//! condition codes set by every ALU operation, two-operand instructions
//! that touch memory, push/pop/call/ret stack discipline, indirect jumps,
//! and `rep`-prefixed string operations.
//!
//! # Examples
//!
//! ```
//! use vta_x86::{Asm, Cpu, GuestImage, Reg::*, StopReason};
//!
//! // A guest program: EAX = 6 * 7, then exit(EAX).
//! let mut asm = Asm::new(0x0800_0000);
//! asm.mov_ri(EAX, 6);
//! asm.mov_ri(ECX, 7);
//! asm.imul_rr(EAX, ECX);
//! asm.exit_with_eax();
//! let image = GuestImage::from_code(asm.finish());
//!
//! let mut cpu = Cpu::new(&image);
//! let stop = cpu.run(1_000_000).expect("guest fault");
//! assert_eq!(stop, StopReason::Exit(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod cpu;
pub mod decode;
pub mod elf;
pub mod flags;
mod image;
mod insn;
mod mem;
pub mod syscall;

pub use asm::{Asm, Label, Program};
pub use cpu::{Cpu, CpuError, Leaders, Observer, StopReason};
pub use image::GuestImage;
pub use insn::{Cond, Insn, MemRef, Op, Operand, Reg, Rep, Size};
pub use mem::{GuestMem, UnmappedAccess, PAGE_SIZE};
pub use syscall::{SysState, Syscall, SyscallResult};
