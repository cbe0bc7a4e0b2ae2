//! EFLAGS register model and the flag semantics of every ALU operation.
//!
//! These functions are the *single source of truth* for condition-code
//! behaviour: the reference interpreter calls them directly, and the
//! translator's generated host code is property-tested against them
//! (flags the architecture leaves undefined are given one deterministic
//! definition here so both sides always agree).
//!
//! # Shift and rotate conventions
//!
//! x86 masks every shift/rotate count to 5 bits and leaves several flag
//! outcomes architecturally undefined. This module pins them down once,
//! for every operand width, and every other layer (reference interpreter,
//! shift helper, codegen's flag materialisation) inherits the choice:
//!
//! * **Count 0 (after the 5-bit mask)** — the operation is a complete
//!   no-op: value and *all* flags are unchanged.
//! * **`OF` for counts > 1** — architecturally undefined; defined here as
//!   the count-1 formula applied to the final result: [`shl`] uses
//!   `msb(result) ^ CF`, [`shr`] uses `msb(original)`, [`sar`] clears it,
//!   [`rol`] uses `msb(result) ^ CF`, and [`ror`] uses
//!   `msb(result) ^ bit(result, width-2)`.
//! * **Shift counts at or past the operand width** (possible for 8/16-bit
//!   operands, where the 5-bit mask does not clamp to the width) — the
//!   result is fully shifted out (zero, or sign-fill for [`sar`]); `CF` is
//!   the last bit genuinely shifted out, i.e. for `count == width` it is
//!   bit 0 ([`shl`]) or the sign bit ([`shr`]/[`sar`]), and for
//!   `count > width` it is cleared ([`sar`] keeps the sign copy).
//! * **Sub-width rotates by a multiple of the width** (e.g. an 8-bit
//!   rotate by 16): the value is unchanged, but because the *masked* count
//!   is nonzero the rotate still writes `CF`/`OF` from the (unchanged)
//!   result — matching how hardware reports the last rotated-out bit.

use crate::insn::{Cond, Size};

/// Carry flag bit.
pub(crate) const CF: u32 = 1 << 0;
/// Parity flag bit (even parity of the result's low byte).
pub(crate) const PF: u32 = 1 << 2;
/// Auxiliary-carry flag bit (carry out of bit 3).
pub(crate) const AF: u32 = 1 << 4;
/// Zero flag bit.
pub(crate) const ZF: u32 = 1 << 6;
/// Sign flag bit.
pub(crate) const SF: u32 = 1 << 7;
/// Direction flag bit (string ops).
pub(crate) const DF: u32 = 1 << 10;
/// Overflow flag bit.
pub(crate) const OF: u32 = 1 << 11;

/// The guest EFLAGS register.
///
/// Kept packed in a single word, exactly as the paper's emulator keeps the
/// x86 flags packed in one Raw register and uses insert/extract operations
/// to access individual bits (§4.5).
///
/// # Examples
///
/// ```
/// use vta_x86::flags::{Flags, self};
/// use vta_x86::{Cond, Size};
///
/// let mut f = Flags::default();
/// let r = flags::sub(&mut f, Size::Dword, 5, 5);
/// assert_eq!(r, 0);
/// assert!(f.zf());
/// assert!(flags::cond_holds(Cond::E, f));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Flags(pub u32);

macro_rules! flag_accessors {
    ($($get:ident / $set:ident => $bit:ident),* $(,)?) => {
        $(
            #[doc = concat!("Reads `", stringify!($bit), "`.")]
            #[inline]
            pub fn $get(self) -> bool {
                self.0 & $bit != 0
            }

            #[doc = concat!("Writes `", stringify!($bit), "`.")]
            #[inline]
            pub fn $set(&mut self, v: bool) {
                if v {
                    self.0 |= $bit;
                } else {
                    self.0 &= !$bit;
                }
            }
        )*
    };
}

impl Flags {
    flag_accessors! {
        cf / set_cf => CF,
        pf / set_pf => PF,
        af / set_af => AF,
        zf / set_zf => ZF,
        sf / set_sf => SF,
        df / set_df => DF,
        of / set_of => OF,
    }
}

/// Even parity of the low byte (the x86 `PF` definition).
#[inline]
pub fn parity_even(v: u32) -> bool {
    (v as u8).count_ones().is_multiple_of(2)
}

#[inline]
fn set_szp(f: &mut Flags, size: Size, r: u32) {
    f.set_zf(r == 0);
    f.set_sf(r & size.sign_bit() != 0);
    f.set_pf(parity_even(r));
}

/// `ADD`: returns the masked result and sets all six arithmetic flags.
pub fn add(f: &mut Flags, size: Size, a: u32, b: u32) -> u32 {
    let (a, b) = (a & size.mask(), b & size.mask());
    let wide = a as u64 + b as u64;
    let r = (wide as u32) & size.mask();
    f.set_cf(wide > size.mask() as u64);
    f.set_of((a ^ r) & (b ^ r) & size.sign_bit() != 0);
    f.set_af((a ^ b ^ r) & 0x10 != 0);
    set_szp(f, size, r);
    r
}

/// `ADC`: add with the incoming carry.
pub fn adc(f: &mut Flags, size: Size, a: u32, b: u32) -> u32 {
    let c = f.cf() as u64;
    let (a, b) = (a & size.mask(), b & size.mask());
    let wide = a as u64 + b as u64 + c;
    let r = (wide as u32) & size.mask();
    f.set_cf(wide > size.mask() as u64);
    f.set_of((a ^ r) & (b ^ r) & size.sign_bit() != 0);
    f.set_af((a ^ b ^ r) & 0x10 != 0);
    set_szp(f, size, r);
    r
}

/// `SUB`/`CMP`: returns the masked difference and sets all six flags.
pub fn sub(f: &mut Flags, size: Size, a: u32, b: u32) -> u32 {
    let (a, b) = (a & size.mask(), b & size.mask());
    let r = a.wrapping_sub(b) & size.mask();
    f.set_cf(a < b);
    f.set_of((a ^ b) & (a ^ r) & size.sign_bit() != 0);
    f.set_af((a ^ b ^ r) & 0x10 != 0);
    set_szp(f, size, r);
    r
}

/// `SBB`: subtract with the incoming borrow.
pub fn sbb(f: &mut Flags, size: Size, a: u32, b: u32) -> u32 {
    let c = f.cf() as u64;
    let (a, b) = (a & size.mask(), b & size.mask());
    let r = a.wrapping_sub(b).wrapping_sub(c as u32) & size.mask();
    f.set_cf((a as u64) < b as u64 + c);
    f.set_of((a ^ b) & (a ^ r) & size.sign_bit() != 0);
    f.set_af((a ^ b ^ r) & 0x10 != 0);
    set_szp(f, size, r);
    r
}

/// `AND`/`OR`/`XOR`/`TEST`: caller supplies the boolean result.
///
/// Clears `CF`/`OF`; `AF` (architecturally undefined) is defined as cleared.
pub fn logic(f: &mut Flags, size: Size, r: u32) -> u32 {
    let r = r & size.mask();
    f.set_cf(false);
    f.set_of(false);
    f.set_af(false);
    set_szp(f, size, r);
    r
}

/// `INC`: add one, preserving `CF`.
pub(crate) fn inc(f: &mut Flags, size: Size, a: u32) -> u32 {
    let cf = f.cf();
    let r = add(f, size, a, 1);
    f.set_cf(cf);
    r
}

/// `DEC`: subtract one, preserving `CF`.
pub(crate) fn dec(f: &mut Flags, size: Size, a: u32) -> u32 {
    let cf = f.cf();
    let r = sub(f, size, a, 1);
    f.set_cf(cf);
    r
}

/// `NEG`: two's-complement negate.
pub(crate) fn neg(f: &mut Flags, size: Size, a: u32) -> u32 {
    let r = sub(f, size, 0, a);
    f.set_cf(a & size.mask() != 0);
    r
}

/// `SHL`: logical shift left. Count is masked to 5 bits; zero count leaves
/// the flags (and result) unchanged. For counts > 1 the architecturally
/// undefined `OF` is defined as `msb(result) ^ CF`.
pub fn shl(f: &mut Flags, size: Size, a: u32, count: u32) -> u32 {
    let c = count & 31;
    let a = a & size.mask();
    if c == 0 {
        return a;
    }
    let r = if c >= size.bits() {
        0
    } else {
        (a << c) & size.mask()
    };
    let cf = if c <= size.bits() {
        (a >> (size.bits() - c)) & 1 != 0
    } else {
        false
    };
    f.set_cf(cf);
    f.set_of((r & size.sign_bit() != 0) ^ cf);
    f.set_af(false);
    set_szp(f, size, r);
    r
}

/// `SHR`: logical shift right. `OF` is defined as `msb(original)` for every
/// nonzero count (architecturally that holds only for count 1).
pub fn shr(f: &mut Flags, size: Size, a: u32, count: u32) -> u32 {
    let c = count & 31;
    let a = a & size.mask();
    if c == 0 {
        return a;
    }
    let r = if c >= size.bits() { 0 } else { a >> c };
    let cf = if c <= size.bits() {
        (a >> (c - 1)) & 1 != 0
    } else {
        false
    };
    f.set_cf(cf);
    f.set_of(a & size.sign_bit() != 0);
    f.set_af(false);
    set_szp(f, size, r);
    r
}

/// `SAR`: arithmetic shift right. `OF` is cleared.
pub fn sar(f: &mut Flags, size: Size, a: u32, count: u32) -> u32 {
    let c = count & 31;
    let a32 = size.sign_extend(a & size.mask()) as i32;
    if c == 0 {
        return a & size.mask();
    }
    let shift = c.min(size.bits() - 1).min(31);
    let r = ((a32 >> shift) as u32) & size.mask();
    let r = if c >= size.bits() {
        // All bits become copies of the sign bit.
        (if a32 < 0 { size.mask() } else { 0 }) & size.mask()
    } else {
        r
    };
    let cf = if c >= size.bits() {
        a32 < 0
    } else {
        (a32 >> (c - 1)) & 1 != 0
    };
    f.set_cf(cf);
    f.set_of(false);
    f.set_af(false);
    set_szp(f, size, r);
    r
}

/// `ROL`: rotate left within the operand width. Only `CF`/`OF` change.
pub fn rol(f: &mut Flags, size: Size, a: u32, count: u32) -> u32 {
    let bits = size.bits();
    let c = (count & 31) % bits;
    let a = a & size.mask();
    if count & 31 == 0 {
        return a;
    }
    let r = if c == 0 {
        a
    } else {
        ((a << c) | (a >> (bits - c))) & size.mask()
    };
    let cf = r & 1 != 0;
    f.set_cf(cf);
    f.set_of((r & size.sign_bit() != 0) ^ cf);
    r
}

/// `ROR`: rotate right within the operand width. Only `CF`/`OF` change.
pub fn ror(f: &mut Flags, size: Size, a: u32, count: u32) -> u32 {
    let bits = size.bits();
    let c = (count & 31) % bits;
    let a = a & size.mask();
    if count & 31 == 0 {
        return a;
    }
    let r = if c == 0 {
        a
    } else {
        ((a >> c) | (a << (bits - c))) & size.mask()
    };
    let msb = r & size.sign_bit() != 0;
    let next = r & (size.sign_bit() >> 1) != 0;
    f.set_cf(msb);
    f.set_of(msb ^ next);
    r
}

/// Unsigned widening multiply: returns `(lo, hi)`; `CF = OF = hi != 0`.
/// The architecturally undefined `SF`/`ZF`/`PF` are defined from `lo`.
pub(crate) fn mul(f: &mut Flags, size: Size, a: u32, b: u32) -> (u32, u32) {
    let wide = (a & size.mask()) as u64 * (b & size.mask()) as u64;
    let lo = (wide as u32) & size.mask();
    let hi = ((wide >> size.bits()) as u32) & size.mask();
    let over = hi != 0;
    f.set_cf(over);
    f.set_of(over);
    f.set_af(false);
    set_szp(f, size, lo);
    (lo, hi)
}

/// Signed widening multiply: returns `(lo, hi)`; `CF = OF` set when the
/// product does not fit the operand width.
pub(crate) fn imul(f: &mut Flags, size: Size, a: u32, b: u32) -> (u32, u32) {
    let sa = size.sign_extend(a & size.mask()) as i32 as i64;
    let sb = size.sign_extend(b & size.mask()) as i32 as i64;
    let wide = sa * sb;
    let lo = (wide as u32) & size.mask();
    let hi = ((wide >> size.bits()) as u32) & size.mask();
    let fits = wide == size.sign_extend(lo) as i32 as i64;
    f.set_cf(!fits);
    f.set_of(!fits);
    f.set_af(false);
    set_szp(f, size, lo);
    (lo, hi)
}

/// `DIV` (`signed == false`) or `IDIV` of the accumulator by `divisor` at
/// `size`, given the whole of `EAX` and `EDX`: the dividend is `AX`,
/// `DX:AX` or `EDX:EAX`; the quotient replaces `AL` / `AX` / `EAX` and the
/// remainder `AH` / `DX` / `EDX`, every other bit kept. Returns the new
/// `(EAX, EDX)`, or `None` for the divide error (`#DE`): a zero divisor,
/// or a quotient that does not fit `size`. The flags a divide leaves
/// undefined are left unchanged.
pub fn div(size: Size, signed: bool, eax: u32, edx: u32, divisor: u32) -> Option<(u32, u32)> {
    let den = divisor & size.mask();
    if den == 0 {
        return None;
    }
    let num = match size {
        Size::Byte => u64::from(eax & 0xFFFF),
        Size::Word => u64::from(((edx & 0xFFFF) << 16) | (eax & 0xFFFF)),
        Size::Dword => (u64::from(edx) << 32) | u64::from(eax),
    };
    let (q, r) = if signed {
        // Sign-extend the double-width dividend.
        let pad = 64 - 2 * size.bits();
        let num = ((num << pad) as i64) >> pad;
        let den = i64::from(size.sign_extend(den) as i32);
        let q = num.wrapping_div(den);
        let half = 1i64 << (size.bits() - 1);
        if !(-half..half).contains(&q) {
            return None;
        }
        (q as u32, num.wrapping_rem(den) as u32)
    } else {
        let q = num / u64::from(den);
        if q > u64::from(size.mask()) {
            return None;
        }
        (q as u32, (num % u64::from(den)) as u32)
    };
    let (q, r) = (q & size.mask(), r & size.mask());
    Some(match size {
        Size::Byte => ((eax & !0xFFFF) | (r << 8) | q, edx),
        Size::Word => ((eax & !0xFFFF) | q, (edx & !0xFFFF) | r),
        Size::Dword => (q, r),
    })
}

/// Evaluates a branch condition against the flags.
pub fn cond_holds(c: Cond, f: Flags) -> bool {
    match c {
        Cond::O => f.of(),
        Cond::No => !f.of(),
        Cond::B => f.cf(),
        Cond::Ae => !f.cf(),
        Cond::E => f.zf(),
        Cond::Ne => !f.zf(),
        Cond::Be => f.cf() || f.zf(),
        Cond::A => !f.cf() && !f.zf(),
        Cond::S => f.sf(),
        Cond::Ns => !f.sf(),
        Cond::P => f.pf(),
        Cond::Np => !f.pf(),
        Cond::L => f.sf() != f.of(),
        Cond::Ge => f.sf() == f.of(),
        Cond::Le => f.zf() || f.sf() != f.of(),
        Cond::G => !f.zf() && f.sf() == f.of(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_sim::Rng;

    /// Cases per seeded loop below; each checks the operation against
    /// wide (64-bit) arithmetic on random operands at a random width.
    const CASES: usize = 2000;

    fn random_size(rng: &mut Rng) -> Size {
        [Size::Byte, Size::Word, Size::Dword][rng.below(3) as usize]
    }

    /// `v` sign-extended from `size` to 64 bits.
    fn signed(size: Size, v: u32) -> i64 {
        i64::from(size.sign_extend(v) as i32)
    }

    #[test]
    fn add_carry_and_overflow() {
        let mut f = Flags::default();
        let r = add(&mut f, Size::Dword, 0xFFFF_FFFF, 1);
        assert_eq!(r, 0);
        assert!(f.cf() && f.zf() && !f.of());

        let r = add(&mut f, Size::Dword, 0x7FFF_FFFF, 1);
        assert_eq!(r, 0x8000_0000);
        assert!(!f.cf() && f.of() && f.sf());

        let r = add(&mut f, Size::Byte, 0x7F, 1);
        assert_eq!(r, 0x80);
        assert!(f.of() && f.sf() && !f.cf());

        let mut rng = Rng::seeded(0xADD);
        for _ in 0..CASES {
            let size = random_size(&mut rng);
            let (a, b) = (rng.next_u32() & size.mask(), rng.next_u32() & size.mask());
            let r = add(&mut f, size, a, b);
            assert_eq!(r, a.wrapping_add(b) & size.mask());
            assert_eq!(f.cf(), u64::from(a) + u64::from(b) > u64::from(size.mask()));
            assert_eq!(f.zf(), r == 0);
            assert_eq!(f.sf(), r & size.sign_bit() != 0);
            assert_eq!(f.of(), signed(size, a) + signed(size, b) != signed(size, r));
        }
    }

    #[test]
    fn sub_borrow_and_signs() {
        let mut f = Flags::default();
        let r = sub(&mut f, Size::Dword, 3, 5);
        assert_eq!(r, 0xFFFF_FFFE);
        assert!(f.cf() && f.sf() && !f.zf());

        let r = sub(&mut f, Size::Dword, 0x8000_0000, 1);
        assert_eq!(r, 0x7FFF_FFFF);
        assert!(f.of());

        let mut rng = Rng::seeded(0x5B);
        for _ in 0..CASES {
            let size = random_size(&mut rng);
            let (a, b) = (rng.next_u32() & size.mask(), rng.next_u32() & size.mask());
            let r = sub(&mut f, size, a, b);
            assert_eq!(r, a.wrapping_sub(b) & size.mask());
            assert_eq!(f.cf(), a < b);
            assert_eq!(f.of(), signed(size, a) - signed(size, b) != signed(size, r));
        }
    }

    #[test]
    fn adc_sbb_chain_matches_64bit() {
        // 64-bit add via adc: 0xFFFFFFFF_00000001 + 0x00000001_FFFFFFFF.
        let mut f = Flags::default();
        let lo = add(&mut f, Size::Dword, 0x0000_0001, 0xFFFF_FFFF);
        let hi = adc(&mut f, Size::Dword, 0xFFFF_FFFF, 0x0000_0001);
        let got = ((hi as u64) << 32) | lo as u64;
        assert_eq!(
            got,
            0xFFFF_FFFF_0000_0001u64.wrapping_add(0x0000_0001_FFFF_FFFF)
        );

        let mut f = Flags::default();
        let lo = sub(&mut f, Size::Dword, 0, 1);
        let hi = sbb(&mut f, Size::Dword, 0, 0);
        assert_eq!(((hi as u64) << 32) | lo as u64, u64::MAX);

        let mut rng = Rng::seeded(0xADC);
        for _ in 0..CASES {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            let (a_hi, b_hi) = ((a >> 32) as u32, (b >> 32) as u32);
            let lo = add(&mut f, Size::Dword, a as u32, b as u32);
            let hi = adc(&mut f, Size::Dword, a_hi, b_hi);
            assert_eq!(((hi as u64) << 32) | lo as u64, a.wrapping_add(b));
            let lo = sub(&mut f, Size::Dword, a as u32, b as u32);
            let hi = sbb(&mut f, Size::Dword, a_hi, b_hi);
            assert_eq!(((hi as u64) << 32) | lo as u64, a.wrapping_sub(b));
        }
    }

    #[test]
    fn inc_dec_preserve_cf() {
        let mut f = Flags::default();
        f.set_cf(true);
        let r = inc(&mut f, Size::Dword, 0xFFFF_FFFF);
        assert_eq!(r, 0);
        assert!(f.cf() && f.zf());
        f.set_cf(false);
        let r = dec(&mut f, Size::Dword, 0);
        assert_eq!(r, 0xFFFF_FFFF);
        assert!(!f.cf());
    }

    #[test]
    fn neg_flags() {
        let mut f = Flags::default();
        let r = neg(&mut f, Size::Dword, 0);
        assert_eq!(r, 0);
        assert!(!f.cf() && f.zf());
        let r = neg(&mut f, Size::Dword, 5);
        assert_eq!(r, (-5i32) as u32);
        assert!(f.cf());
        neg(&mut f, Size::Dword, 0x8000_0000);
        assert!(f.of());
    }

    #[test]
    fn logic_clears_cf_of() {
        let mut f = Flags::default();
        f.set_cf(true);
        f.set_of(true);
        let r = logic(&mut f, Size::Dword, 0xF0 & 0x0F);
        assert_eq!(r, 0);
        assert!(!f.cf() && !f.of() && f.zf() && f.pf());
    }

    #[test]
    fn parity_matches_low_byte() {
        assert!(parity_even(0x00));
        assert!(parity_even(0x03));
        assert!(!parity_even(0x01));
        // Only the low byte counts.
        assert!(parity_even(0xFF00));

        let mut rng = Rng::seeded(0x9A2);
        let mut f = Flags::default();
        for _ in 0..CASES {
            let v = logic(&mut f, random_size(&mut rng), rng.next_u32());
            assert_eq!(f.pf(), (v as u8).count_ones().is_multiple_of(2));
            assert!(!f.cf() && !f.of());
        }
    }

    #[test]
    fn shl_shift_out_bit() {
        let mut f = Flags::default();
        let r = shl(&mut f, Size::Dword, 0x8000_0001, 1);
        assert_eq!(r, 2);
        assert!(f.cf());
        // Zero count leaves flags untouched.
        f.set_cf(false);
        shl(&mut f, Size::Dword, 0xFFFF_FFFF, 0);
        assert!(!f.cf());
        // ... bit for bit, for every shift and rotate at every width.
        let mut rng = Rng::seeded(0x5410);
        for _ in 0..CASES {
            let size = random_size(&mut rng);
            let a = rng.next_u32() & size.mask();
            let bits = rng.next_u32() & 0xFFF;
            for op in [shl, shr, sar, rol, ror] {
                let mut f = Flags(bits);
                assert_eq!(op(&mut f, size, a, 0), a);
                assert_eq!(f.0, bits);
            }
        }
    }

    #[test]
    fn shr_sar_semantics() {
        let mut f = Flags::default();
        let r = shr(&mut f, Size::Dword, 0x8000_0000, 31);
        assert_eq!(r, 1);
        let r = sar(&mut f, Size::Dword, 0x8000_0000, 31);
        assert_eq!(r, 0xFFFF_FFFF);
        assert!(f.sf());
        let r = sar(&mut f, Size::Byte, 0x80, 2);
        assert_eq!(r, 0xE0);
    }

    #[test]
    fn shift_cf_at_width_boundary() {
        // Sub-width shifts where the 5-bit count mask does not clamp to the
        // operand width: counts width-1, width, width+1 and 31 must follow
        // the documented "last bit genuinely shifted out" convention.
        for (size, bits) in [(Size::Byte, 8u32), (Size::Word, 16u32)] {
            let a = 0x81u32; // bit 0 and bit 7 set, fits both widths
            let msb = size.sign_bit();

            // SHL count == width-1: result keeps only bit 0 shifted up.
            let mut f = Flags::default();
            let r = shl(&mut f, size, a, bits - 1);
            assert_eq!(r, msb, "shl {bits}-bit by width-1");
            assert!(!f.cf(), "shl by width-1 shifts out bit 1 (clear)");

            // SHL count == width: everything out, CF = original bit 0.
            let mut f = Flags::default();
            let r = shl(&mut f, size, a, bits);
            assert_eq!(r, 0);
            assert!(f.cf(), "shl by width: CF = bit 0 of original");
            assert!(f.zf());

            // SHL count == width+1 and 31: zero result, CF cleared.
            for c in [bits + 1, 31] {
                let mut f = Flags::default();
                f.set_cf(true);
                let r = shl(&mut f, size, a, c);
                assert_eq!(r, 0);
                assert!(!f.cf(), "shl {bits}-bit by {c}: CF clears");
            }

            // SHR count == width-1: only the msb survives, at bit 0.
            let mut f = Flags::default();
            let r = shr(&mut f, size, msb | 1, bits - 1);
            assert_eq!(r, 1, "shr {bits}-bit by width-1");
            assert!(!f.cf());

            // SHR count == width: CF = original msb.
            let mut f = Flags::default();
            let r = shr(&mut f, size, msb | 1, bits);
            assert_eq!(r, 0);
            assert!(f.cf(), "shr by width: CF = msb of original");

            for c in [bits + 1, 31] {
                let mut f = Flags::default();
                f.set_cf(true);
                let r = shr(&mut f, size, size.mask(), c);
                assert_eq!(r, 0);
                assert!(!f.cf(), "shr {bits}-bit by {c}: CF clears");
            }

            // SAR: sign-fills at/past the width; CF stays the sign copy.
            for c in [bits, bits + 1, 31] {
                let mut f = Flags::default();
                let r = sar(&mut f, size, msb, c);
                assert_eq!(r, size.mask(), "sar {bits}-bit by {c} sign-fills");
                assert!(f.cf(), "sar negative by {c}: CF = sign copy");
                let mut f = Flags::default();
                f.set_cf(true);
                let r = sar(&mut f, size, msb >> 1, c);
                assert_eq!(r, 0);
                assert!(!f.cf(), "sar positive by {c}: CF clears");
            }
        }
    }

    #[test]
    fn sub_width_rotate_by_width_multiple() {
        // 8-bit rotates by 8/16/24 and 16-bit rotates by 16: the masked
        // count is nonzero but a multiple of the width, so the value is
        // unchanged while CF/OF are still written from the result.
        for c in [8u32, 16, 24] {
            let mut f = Flags::default();
            f.set_of(true);
            let r = rol(&mut f, Size::Byte, 0x81, c);
            assert_eq!(r, 0x81, "8-bit rol by {c} is value-identity");
            assert!(f.cf(), "rol CF = bit 0 of result");
            assert!(!f.of(), "rol OF = msb(r) ^ CF = 1 ^ 1 = 0");
        }

        for c in [8u32, 16, 24] {
            let mut f = Flags::default();
            let r = ror(&mut f, Size::Byte, 0x81, c);
            assert_eq!(r, 0x81, "8-bit ror by {c} is value-identity");
            assert!(f.cf(), "ror CF = msb of result");
            assert!(f.of(), "ror OF = msb ^ bit6 = 1 ^ 0 = 1");
        }

        let mut f = Flags::default();
        let r = rol(&mut f, Size::Word, 0x8001, 16);
        assert_eq!(r, 0x8001, "16-bit rol by 16 is value-identity");
        assert!(f.cf() && !f.of());
        let mut f = Flags::default();
        let r = ror(&mut f, Size::Word, 0x8001, 16);
        assert_eq!(r, 0x8001);
        assert!(f.cf(), "ror CF = msb");
        assert!(f.of(), "ror OF = msb ^ bit14 = 1 ^ 0 = 1");

        // Count 0 after the 5-bit mask really is a full no-op (contrast
        // with the cases above where only the *value* is unchanged).
        let mut f = Flags::default();
        f.set_cf(true);
        f.set_of(true);
        let r = rol(&mut f, Size::Byte, 0x40, 32);
        assert_eq!(r, 0x40);
        assert!(f.cf() && f.of(), "masked count 0 leaves flags alone");
    }

    #[test]
    fn rotates_wrap() {
        let mut f = Flags::default();
        let r = rol(&mut f, Size::Byte, 0x81, 1);
        assert_eq!(r, 0x03);
        assert!(f.cf());
        let r = ror(&mut f, Size::Byte, 0x01, 1);
        assert_eq!(r, 0x80);
        assert!(f.cf());

        // Rotates keep the multiset of bits and invert each other.
        let mut rng = Rng::seeded(0x207);
        for _ in 0..CASES {
            let size = random_size(&mut rng);
            let a = rng.next_u32() & size.mask();
            let count = rng.below(32) as u32;
            let r = rol(&mut f, size, a, count);
            assert_eq!(r.count_ones(), a.count_ones());
            assert_eq!(ror(&mut f, size, r, count), a);
        }
    }

    #[test]
    fn widening_multiplies() {
        let mut f = Flags::default();
        let (lo, hi) = mul(&mut f, Size::Dword, 0xFFFF_FFFF, 2);
        assert_eq!((lo, hi), (0xFFFF_FFFE, 1));
        assert!(f.cf() && f.of());

        let (lo, hi) = imul(&mut f, Size::Dword, (-3i32) as u32, 4);
        assert_eq!(lo, (-12i32) as u32);
        assert_eq!(hi, 0xFFFF_FFFF);
        assert!(!f.cf(), "-12 fits in 32 bits");

        let (_, _) = imul(&mut f, Size::Dword, 0x4000_0000, 4);
        assert!(f.of());

        let mut rng = Rng::seeded(0x3A1);
        for _ in 0..CASES {
            let size = random_size(&mut rng);
            let (a, b) = (rng.next_u32() & size.mask(), rng.next_u32() & size.mask());
            let (lo, hi) = mul(&mut f, size, a, b);
            let wide = u64::from(a) * u64::from(b);
            assert_eq!(lo, wide as u32 & size.mask());
            assert_eq!(hi, (wide >> size.bits()) as u32 & size.mask());
            assert_eq!(f.cf(), hi != 0);

            let (lo, hi) = imul(&mut f, size, a, b);
            let wide = signed(size, a) * signed(size, b);
            assert_eq!(lo, wide as u32 & size.mask());
            assert_eq!(hi, (wide >> size.bits()) as u32 & size.mask());
            assert_eq!(
                f.of(),
                wide != signed(size, lo),
                "OF iff the product does not fit"
            );
        }
    }

    #[test]
    fn cond_table() {
        let mut f = Flags::default();
        sub(&mut f, Size::Dword, 1, 2); // 1 < 2: CF, SF set.
        assert!(cond_holds(Cond::B, f));
        assert!(cond_holds(Cond::L, f));
        assert!(cond_holds(Cond::Ne, f));
        assert!(cond_holds(Cond::Le, f));
        assert!(!cond_holds(Cond::G, f));
        sub(&mut f, Size::Dword, 2, 2);
        assert!(cond_holds(Cond::E, f) && cond_holds(Cond::Be, f) && cond_holds(Cond::Ge, f));

        let mut rng = Rng::seeded(0xC0D);
        for _ in 0..CASES {
            // After a `cmp`, the conditions are the native comparisons.
            let (a, b) = (rng.next_u32(), rng.next_u32());
            sub(&mut f, Size::Dword, a, b);
            let (sa, sb) = (a as i32, b as i32);
            for (cond, holds) in [
                (Cond::L, sa < sb),
                (Cond::Le, sa <= sb),
                (Cond::G, sa > sb),
                (Cond::Ge, sa >= sb),
                (Cond::B, a < b),
                (Cond::A, a > b),
                (Cond::E, a == b),
            ] {
                assert_eq!(
                    cond_holds(cond, f),
                    holds,
                    "{cond:?} after cmp {a:#x}, {b:#x}"
                );
            }
            // On any flags word, every condition negates its pair.
            let f = Flags(rng.next_u32() & 0xFFF);
            for cond in Cond::ALL {
                assert_eq!(cond_holds(cond, f), !cond_holds(cond.negate(), f));
            }
        }
    }
}
