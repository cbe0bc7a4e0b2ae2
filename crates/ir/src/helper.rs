//! Canonical semantics of the runtime helper routines.
//!
//! Translated code calls out-of-line "millicode" for wide divides and for
//! flag-exact shifts/rotates (see [`vta_raw::HelperKind`]). This module is
//! the one implementation both the DBT system and the translator's own
//! tests use, and both routines delegate to [`vta_x86::flags`] (a divide
//! to [`flags::div`], a shift to [`flags::shl`] and its siblings), the
//! functions the reference interpreter executes, so helper behaviour is
//! equal to the interpreter's *by construction*. The translated side's
//! syscall proxy ([`proxy_syscall`]) lives here for the same reason: one
//! implementation over the same fixed register mapping.
//!
//! # Register ABI
//!
//! The registers are codegen's, under codegen's names: guest state in its
//! fixed mapping ([`guest_host_reg`]: `r1..r8` = `EAX..EDI`;
//! [`FLAGS_REG`] `r9` = packed EFLAGS), helper operands in the expansion
//! scratch registers [`OUT0`] (`r24`) and [`OUT1`] (`r25`):
//!
//! | helper  | inputs                            | outputs                |
//! |---------|-----------------------------------|------------------------|
//! | `Div`   | dividend in `EDX:EAX` / `DX:AX` / `AX`, divisor in [`OUT0`] | quotient and remainder per x86 (`EAX`/`EDX`, `AX`/`DX` or `AL`/`AH`) |
//! | `Shift` | value [`OUT0`], count [`OUT1`], flags [`FLAGS_REG`] | result [`OUT0`], flags [`FLAGS_REG`] |

use vta_raw::exec::{CoreState, Fault};
use vta_raw::isa::{HelperKind, RReg, ShiftOp};
use vta_x86::flags::{self, Flags};
use vta_x86::{GuestMem, Reg, Size, SysState, SyscallResult};

use crate::codegen::{guest_host_reg, FLAGS_REG, OUT0, OUT1};

/// Host register holding guest `ESP` (where a run puts the image's
/// initial stack pointer).
pub const R_ESP: RReg = guest_host_reg(Reg::ESP.num() as u32);

/// Host register holding guest register `r`.
fn host(r: Reg) -> RReg {
    guest_host_reg(r.num() as u32)
}

fn size_of_width(width: u8) -> Size {
    match width {
        1 => Size::Byte,
        2 => Size::Word,
        4 => Size::Dword,
        _ => panic!("invalid helper width {width}"),
    }
}

/// Executes one helper routine against a tile register file.
///
/// # Errors
///
/// Returns [`Fault::DivZero`] on x86 divide faults (zero divisor or
/// quotient overflow).
///
/// # Panics
///
/// Panics on a helper width other than 1, 2 or 4.
///
/// # Examples
///
/// ```
/// use vta_ir::apply_helper;
/// use vta_raw::exec::CoreState;
/// use vta_raw::isa::{HelperKind, ShiftOp, RReg};
///
/// let mut s = CoreState::new();
/// s.set(RReg(24), 0b1000_0001); // value
/// s.set(RReg(25), 1); // count
/// apply_helper(HelperKind::Shift { op: ShiftOp::Rol, width: 1 }, &mut s).unwrap();
/// assert_eq!(s.get(RReg(24)), 0b0000_0011);
/// assert_eq!(s.get(RReg(9)) & 1, 1, "CF set from rotated-out bit");
/// ```
pub fn apply_helper(kind: HelperKind, state: &mut CoreState) -> Result<(), Fault> {
    match kind {
        HelperKind::Shift { op, width } => {
            let size = size_of_width(width);
            let mut f = Flags(state.get(FLAGS_REG));
            let a = state.get(OUT0);
            let count = state.get(OUT1);
            let res = match op {
                ShiftOp::Shl => flags::shl(&mut f, size, a, count),
                ShiftOp::Shr => flags::shr(&mut f, size, a, count),
                ShiftOp::Sar => flags::sar(&mut f, size, a, count),
                ShiftOp::Rol => flags::rol(&mut f, size, a, count),
                ShiftOp::Ror => flags::ror(&mut f, size, a, count),
            };
            state.set(OUT0, res);
            state.set(FLAGS_REG, f.0);
            Ok(())
        }
        HelperKind::Div { signed, width } => {
            let (eax, edx) = (state.get(host(Reg::EAX)), state.get(host(Reg::EDX)));
            let divisor = state.get(OUT0);
            let (eax, edx) = flags::div(size_of_width(width), signed, eax, edx, divisor)
                .ok_or(Fault::DivZero)?;
            state.set(host(Reg::EAX), eax);
            state.set(host(Reg::EDX), edx);
            Ok(())
        }
    }
}

/// Proxies the `int 0x80` a translated block just stopped at
/// ([`BlockExit::Sys`](vta_raw::exec::BlockExit::Sys)) to the guest's OS
/// state, in the Linux i386 convention: call number in `EAX`, arguments
/// in `EBX`, `ECX`, `EDX`, result back in `EAX`.
///
/// Returns `Some(code)` when the guest exited. On `None` the guest
/// resumes at the address the block left in
/// [`SYS_RESUME_REG`](crate::codegen::SYS_RESUME_REG). This is the one
/// syscall layer of the translated side — the DBT system and the fuzz
/// oracle both call it — so the marshalling cannot drift from
/// [`vta_x86::Cpu`]'s, which feeds the same [`SysState::dispatch`].
pub fn proxy_syscall(state: &mut CoreState, sys: &mut SysState, mem: &mut GuestMem) -> Option<u32> {
    let nr = state.get(host(Reg::EAX));
    let args = [
        state.get(host(Reg::EBX)),
        state.get(host(Reg::ECX)),
        state.get(host(Reg::EDX)),
    ];
    match sys.dispatch(mem, nr, args) {
        SyscallResult::Continue(ret) => {
            state.set(host(Reg::EAX), ret);
            None
        }
        SyscallResult::Exit(code) => Some(code),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn div_u32_quotient_remainder() {
        let mut s = CoreState::new();
        s.set(host(Reg::EAX), 1000);
        s.set(host(Reg::EDX), 0);
        s.set(OUT0, 7);
        apply_helper(
            HelperKind::Div {
                signed: false,
                width: 4,
            },
            &mut s,
        )
        .unwrap();
        assert_eq!(s.get(host(Reg::EAX)), 142);
        assert_eq!(s.get(host(Reg::EDX)), 6);
    }

    #[test]
    fn div_wide_numerator() {
        let mut s = CoreState::new();
        // EDX:EAX = 0x00000002_00000000 / 0x10000 = 0x20000.
        s.set(host(Reg::EAX), 0);
        s.set(host(Reg::EDX), 2);
        s.set(OUT0, 0x1_0000);
        apply_helper(
            HelperKind::Div {
                signed: false,
                width: 4,
            },
            &mut s,
        )
        .unwrap();
        assert_eq!(s.get(host(Reg::EAX)), 0x2_0000);
        assert_eq!(s.get(host(Reg::EDX)), 0);
    }

    #[test]
    fn idiv_signed() {
        let mut s = CoreState::new();
        s.set(host(Reg::EAX), (-1000i32) as u32);
        s.set(host(Reg::EDX), 0xFFFF_FFFF); // sign extension
        s.set(OUT0, 7);
        apply_helper(
            HelperKind::Div {
                signed: true,
                width: 4,
            },
            &mut s,
        )
        .unwrap();
        assert_eq!(s.get(host(Reg::EAX)) as i32, -142);
        assert_eq!(s.get(host(Reg::EDX)) as i32, -6);
    }

    #[test]
    fn div_zero_and_overflow_fault() {
        let mut s = CoreState::new();
        s.set(host(Reg::EAX), 5);
        s.set(OUT0, 0);
        assert_eq!(
            apply_helper(
                HelperKind::Div {
                    signed: false,
                    width: 4
                },
                &mut s
            ),
            Err(Fault::DivZero)
        );
        // Quotient overflow: EDX:EAX = 2^32 / 1.
        s.set(host(Reg::EAX), 0);
        s.set(host(Reg::EDX), 1);
        s.set(OUT0, 1);
        assert_eq!(
            apply_helper(
                HelperKind::Div {
                    signed: false,
                    width: 4
                },
                &mut s
            ),
            Err(Fault::DivZero)
        );
    }

    #[test]
    fn div8_packs_ax() {
        let mut s = CoreState::new();
        s.set(host(Reg::EAX), 100); // AX = 100
        s.set(OUT0, 7);
        apply_helper(
            HelperKind::Div {
                signed: false,
                width: 1,
            },
            &mut s,
        )
        .unwrap();
        // AL = 14, AH = 2.
        assert_eq!(s.get(host(Reg::EAX)) & 0xFFFF, (2 << 8) | 14);
    }

    #[test]
    fn shift_matches_reference_flags() {
        use vta_sim::Rng;
        let mut rng = Rng::seeded(99);
        for op in [
            ShiftOp::Shl,
            ShiftOp::Shr,
            ShiftOp::Sar,
            ShiftOp::Rol,
            ShiftOp::Ror,
        ] {
            for width in [1u8, 2, 4] {
                for _ in 0..200 {
                    let a = rng.next_u32();
                    let count = rng.next_u32() & 31;
                    let start_flags = rng.next_u32() & 0xFFF;
                    let size = size_of_width(width);

                    let mut f = Flags(start_flags);
                    let want = match op {
                        ShiftOp::Shl => flags::shl(&mut f, size, a, count),
                        ShiftOp::Shr => flags::shr(&mut f, size, a, count),
                        ShiftOp::Sar => flags::sar(&mut f, size, a, count),
                        ShiftOp::Rol => flags::rol(&mut f, size, a, count),
                        ShiftOp::Ror => flags::ror(&mut f, size, a, count),
                    };

                    let mut s = CoreState::new();
                    s.set(OUT0, a & size.mask());
                    s.set(OUT1, count);
                    s.set(FLAGS_REG, start_flags);
                    apply_helper(HelperKind::Shift { op, width }, &mut s).unwrap();
                    assert_eq!(s.get(OUT0), want, "{op:?} w{width} a={a:#x} c={count}");
                    assert_eq!(s.get(FLAGS_REG), f.0, "{op:?} flags");
                }
            }
        }
    }

    #[test]
    fn zero_count_preserves_flags() {
        let mut s = CoreState::new();
        s.set(OUT0, 0xFF);
        s.set(OUT1, 0);
        s.set(FLAGS_REG, 0xAB1);
        apply_helper(
            HelperKind::Shift {
                op: ShiftOp::Shl,
                width: 4,
            },
            &mut s,
        )
        .unwrap();
        assert_eq!(s.get(FLAGS_REG), 0xAB1);
        assert_eq!(s.get(OUT0), 0xFF);
    }
}
