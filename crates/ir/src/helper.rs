//! Canonical semantics of the runtime helper routines.
//!
//! Translated code calls out-of-line "millicode" for wide divides and for
//! flag-exact shifts/rotates (see [`vta_raw::HelperKind`]). This module is
//! the one implementation both the DBT system and the translator's own
//! tests use, and it delegates to [`vta_x86::flags`] so helper behaviour
//! is equal to the reference interpreter *by construction*. The
//! translated side's syscall proxy ([`proxy_syscall`]) lives here for the
//! same reason: one implementation over the same fixed register mapping.
//!
//! # Register ABI
//!
//! Guest state lives in its fixed mapping (`r1..r8` = `EAX..EDI`, `r9` =
//! packed EFLAGS). Helper operands use the scratch registers:
//!
//! | helper  | inputs                            | outputs                |
//! |---------|-----------------------------------|------------------------|
//! | `Div`   | widened accumulator in EAX/EDX (AX for width 1), divisor in `r24` | quotient/remainder per x86 (`EAX`/`EDX`, or `AL`/`AH`) |
//! | `Shift` | value `r24`, count `r25`, flags `r9` | result `r24`, flags `r9` |

use vta_raw::exec::{CoreState, Fault};
use vta_raw::isa::{HelperKind, RReg, ShiftOp};
use vta_x86::flags::{self, Flags};
use vta_x86::{GuestMem, Size, SysState, SyscallResult};

/// Host register holding guest `EAX`.
pub const R_EAX: RReg = RReg(1);
/// Host register holding guest `ECX`.
pub const R_ECX: RReg = RReg(2);
/// Host register holding guest `EDX`.
pub const R_EDX: RReg = RReg(3);
/// Host register holding guest `EBX`.
pub const R_EBX: RReg = RReg(4);
/// Host register holding guest `ESP`.
pub const R_ESP: RReg = RReg(5);
/// Host register holding the packed guest EFLAGS.
pub const R_FLAGS: RReg = RReg(9);
/// First scratch register of the helper ABI.
pub const R_SCRATCH0: RReg = RReg(24);
/// Second scratch register of the helper ABI.
pub const R_SCRATCH1: RReg = RReg(25);

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
            let mut f = Flags(state.get(R_FLAGS));
            let a = state.get(R_SCRATCH0);
            let count = state.get(R_SCRATCH1);
            let res = match op {
                ShiftOp::Shl => flags::shl(&mut f, size, a, count),
                ShiftOp::Shr => flags::shr(&mut f, size, a, count),
                ShiftOp::Sar => flags::sar(&mut f, size, a, count),
                ShiftOp::Rol => flags::rol(&mut f, size, a, count),
                ShiftOp::Ror => flags::ror(&mut f, size, a, count),
            };
            state.set(R_SCRATCH0, res);
            state.set(R_FLAGS, f.0);
            Ok(())
        }
        HelperKind::Div { signed, width } => {
            let divisor = state.get(R_SCRATCH0);
            match width {
                4 => {
                    if divisor == 0 {
                        return Err(Fault::DivZero);
                    }
                    let num_lo = state.get(R_EAX) as u64;
                    let num_hi = state.get(R_EDX) as u64;
                    let num = (num_hi << 32) | num_lo;
                    if signed {
                        let num = num as i64;
                        let den = divisor as i32 as i64;
                        let q = num.wrapping_div(den);
                        if q > i32::MAX as i64 || q < i32::MIN as i64 {
                            return Err(Fault::DivZero);
                        }
                        state.set(R_EAX, q as u32);
                        state.set(R_EDX, num.wrapping_rem(den) as u32);
                    } else {
                        let q = num / divisor as u64;
                        if q > u32::MAX as u64 {
                            return Err(Fault::DivZero);
                        }
                        state.set(R_EAX, q as u32);
                        state.set(R_EDX, (num % divisor as u64) as u32);
                    }
                }
                2 => {
                    let divisor = divisor & 0xFFFF;
                    if divisor == 0 {
                        return Err(Fault::DivZero);
                    }
                    let num = ((state.get(R_EDX) & 0xFFFF) << 16) | (state.get(R_EAX) & 0xFFFF);
                    if signed {
                        let num = num as i32;
                        let den = divisor as u16 as i16 as i32;
                        let q = num.wrapping_div(den);
                        if !(-0x8000..=0x7FFF).contains(&q) {
                            return Err(Fault::DivZero);
                        }
                        set_low16(state, R_EAX, q as u32);
                        set_low16(state, R_EDX, num.wrapping_rem(den) as u32);
                    } else {
                        let q = num / divisor;
                        if q > 0xFFFF {
                            return Err(Fault::DivZero);
                        }
                        set_low16(state, R_EAX, q);
                        set_low16(state, R_EDX, num % divisor);
                    }
                }
                1 => {
                    let divisor = divisor & 0xFF;
                    if divisor == 0 {
                        return Err(Fault::DivZero);
                    }
                    let num = state.get(R_EAX) & 0xFFFF;
                    if signed {
                        let num = num as u16 as i16 as i32;
                        let den = divisor as u8 as i8 as i32;
                        let q = num.wrapping_div(den);
                        if !(-0x80..=0x7F).contains(&q) {
                            return Err(Fault::DivZero);
                        }
                        let r = num.wrapping_rem(den);
                        let ax = ((r as u32 & 0xFF) << 8) | (q as u32 & 0xFF);
                        set_low16(state, R_EAX, ax);
                    } else {
                        let q = num / divisor;
                        if q > 0xFF {
                            return Err(Fault::DivZero);
                        }
                        let ax = ((num % divisor) << 8) | q;
                        set_low16(state, R_EAX, ax);
                    }
                }
                other => panic!("invalid div width {other}"),
            }
            Ok(())
        }
    }
}

fn set_low16(state: &mut CoreState, r: RReg, v: u32) {
    let old = state.get(r);
    state.set(r, (old & 0xFFFF_0000) | (v & 0xFFFF));
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
    let nr = state.get(R_EAX);
    let args = [state.get(R_EBX), state.get(R_ECX), state.get(R_EDX)];
    match sys.dispatch(mem, nr, args) {
        SyscallResult::Continue(ret) => {
            state.set(R_EAX, ret);
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
        s.set(R_EAX, 1000);
        s.set(R_EDX, 0);
        s.set(R_SCRATCH0, 7);
        apply_helper(
            HelperKind::Div {
                signed: false,
                width: 4,
            },
            &mut s,
        )
        .unwrap();
        assert_eq!(s.get(R_EAX), 142);
        assert_eq!(s.get(R_EDX), 6);
    }

    #[test]
    fn div_wide_numerator() {
        let mut s = CoreState::new();
        // EDX:EAX = 0x00000002_00000000 / 0x10000 = 0x20000.
        s.set(R_EAX, 0);
        s.set(R_EDX, 2);
        s.set(R_SCRATCH0, 0x1_0000);
        apply_helper(
            HelperKind::Div {
                signed: false,
                width: 4,
            },
            &mut s,
        )
        .unwrap();
        assert_eq!(s.get(R_EAX), 0x2_0000);
        assert_eq!(s.get(R_EDX), 0);
    }

    #[test]
    fn idiv_signed() {
        let mut s = CoreState::new();
        s.set(R_EAX, (-1000i32) as u32);
        s.set(R_EDX, 0xFFFF_FFFF); // sign extension
        s.set(R_SCRATCH0, 7);
        apply_helper(
            HelperKind::Div {
                signed: true,
                width: 4,
            },
            &mut s,
        )
        .unwrap();
        assert_eq!(s.get(R_EAX) as i32, -142);
        assert_eq!(s.get(R_EDX) as i32, -6);
    }

    #[test]
    fn div_zero_and_overflow_fault() {
        let mut s = CoreState::new();
        s.set(R_EAX, 5);
        s.set(R_SCRATCH0, 0);
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
        s.set(R_EAX, 0);
        s.set(R_EDX, 1);
        s.set(R_SCRATCH0, 1);
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
        s.set(R_EAX, 100); // AX = 100
        s.set(R_SCRATCH0, 7);
        apply_helper(
            HelperKind::Div {
                signed: false,
                width: 1,
            },
            &mut s,
        )
        .unwrap();
        // AL = 14, AH = 2.
        assert_eq!(s.get(R_EAX) & 0xFFFF, (2 << 8) | 14);
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
                    s.set(R_SCRATCH0, a & size.mask());
                    s.set(R_SCRATCH1, count);
                    s.set(R_FLAGS, start_flags);
                    apply_helper(HelperKind::Shift { op, width }, &mut s).unwrap();
                    assert_eq!(
                        s.get(R_SCRATCH0),
                        want,
                        "{op:?} w{width} a={a:#x} c={count}"
                    );
                    assert_eq!(s.get(R_FLAGS), f.0, "{op:?} flags");
                }
            }
        }
    }

    #[test]
    fn zero_count_preserves_flags() {
        let mut s = CoreState::new();
        s.set(R_SCRATCH0, 0xFF);
        s.set(R_SCRATCH1, 0);
        s.set(R_FLAGS, 0xAB1);
        apply_helper(
            HelperKind::Shift {
                op: ShiftOp::Shl,
                width: 4,
            },
            &mut s,
        )
        .unwrap();
        assert_eq!(s.get(R_FLAGS), 0xAB1);
        assert_eq!(s.get(R_SCRATCH0), 0xFF);
    }
}
