//! Minimal ELF32 executable loader.
//!
//! The paper's system "executes arbitrary, unmodified, userland
//! statically-linked Linux x86 binaries" (§1). This module loads exactly
//! that container: a little-endian, 32-bit, `ET_EXEC` ELF image for
//! `EM_386`, mapping every `PT_LOAD` segment into a [`GuestImage`].
//! Dynamic linking, relocation and TLS are out of scope, as in the paper.

use crate::image::GuestImage;

/// ELF parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElfError {
    /// The file is too short to contain the referenced structure.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// Not an ELF file (bad magic).
    BadMagic,
    /// ELF, but not 32-bit little-endian `ET_EXEC` for `EM_386`.
    Unsupported {
        /// Which header field disqualified the file.
        what: &'static str,
    },
    /// The binary has no loadable segments.
    NoLoadableSegments,
}

impl std::fmt::Display for ElfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElfError::Truncated { what } => write!(f, "truncated ELF while reading {what}"),
            ElfError::BadMagic => write!(f, "not an ELF file"),
            ElfError::Unsupported { what } => {
                write!(
                    f,
                    "unsupported ELF ({what}); need 32-bit LE ET_EXEC for EM_386"
                )
            }
            ElfError::NoLoadableSegments => write!(f, "ELF has no PT_LOAD segments"),
        }
    }
}

impl std::error::Error for ElfError {}

fn u16le(b: &[u8], off: usize, what: &'static str) -> Result<u16, ElfError> {
    b.get(off..off + 2)
        .map(|s| u16::from_le_bytes([s[0], s[1]]))
        .ok_or(ElfError::Truncated { what })
}

fn u32le(b: &[u8], off: usize, what: &'static str) -> Result<u32, ElfError> {
    b.get(off..off + 4)
        .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
        .ok_or(ElfError::Truncated { what })
}

/// Loads a 32-bit static ELF executable into a guest image.
///
/// The first `PT_LOAD` segment becomes the image's code segment (its
/// pages typically hold the entry point); further segments are mapped as
/// initialized data, with `p_memsz > p_filesz` tails zero-filled.
///
/// # Errors
///
/// Returns [`ElfError`] for malformed or unsupported files.
///
/// # Examples
///
/// ```
/// use vta_x86::{elf, Asm, Reg};
///
/// // Wrap an assembled program in an ELF container and load it back.
/// let mut asm = Asm::new(0x0804_8000);
/// asm.mov_ri(Reg::EAX, 7);
/// asm.exit_with_eax();
/// let prog = asm.finish();
/// let bytes = elf::write_minimal_exec(prog.base, &prog.code, prog.base);
/// let image = elf::load(&bytes)?;
/// assert_eq!(image.entry, 0x0804_8000);
/// # Ok::<(), vta_x86::elf::ElfError>(())
/// ```
pub fn load(bytes: &[u8]) -> Result<GuestImage, ElfError> {
    let ident = bytes
        .get(0..16)
        .ok_or(ElfError::Truncated { what: "e_ident" })?;
    if ident[0..4] != [0x7F, b'E', b'L', b'F'] {
        return Err(ElfError::BadMagic);
    }
    if ident[4] != 1 {
        return Err(ElfError::Unsupported { what: "EI_CLASS" });
    }
    if ident[5] != 1 {
        return Err(ElfError::Unsupported { what: "EI_DATA" });
    }
    if u16le(bytes, 16, "e_type")? != 2 {
        return Err(ElfError::Unsupported { what: "e_type" });
    }
    if u16le(bytes, 18, "e_machine")? != 3 {
        return Err(ElfError::Unsupported { what: "e_machine" });
    }
    let entry = u32le(bytes, 24, "e_entry")?;
    let phoff = u32le(bytes, 28, "e_phoff")? as usize;
    let phentsize = u16le(bytes, 42, "e_phentsize")? as usize;
    let phnum = u16le(bytes, 44, "e_phnum")? as usize;
    if phentsize < 32 {
        return Err(ElfError::Unsupported {
            what: "e_phentsize",
        });
    }

    let mut segments: Vec<(u32, Vec<u8>, u32)> = Vec::new();
    for i in 0..phnum {
        let p = phoff + i * phentsize;
        let p_type = u32le(bytes, p, "p_type")?;
        if p_type != 1 {
            continue; // not PT_LOAD
        }
        let p_offset = u32le(bytes, p + 4, "p_offset")? as usize;
        let p_vaddr = u32le(bytes, p + 8, "p_vaddr")?;
        let p_filesz = u32le(bytes, p + 16, "p_filesz")?;
        let p_memsz = u32le(bytes, p + 20, "p_memsz")?;
        // Everything below adds sizes to `p_vaddr` in 32 bits: a segment
        // is `[p_vaddr, p_vaddr + p_memsz)`, its file bytes a prefix.
        if p_filesz > p_memsz {
            return Err(ElfError::Unsupported {
                what: "p_filesz > p_memsz",
            });
        }
        if p_vaddr.checked_add(p_memsz).is_none() {
            return Err(ElfError::Unsupported {
                what: "segment wraps the 32-bit address space",
            });
        }
        let data = bytes
            .get(p_offset..p_offset + p_filesz as usize)
            .ok_or(ElfError::Truncated {
                what: "segment data",
            })?
            .to_vec();
        segments.push((p_vaddr, data, p_memsz));
    }
    if segments.is_empty() {
        return Err(ElfError::NoLoadableSegments);
    }

    // The segment containing the entry point supplies the code bytes;
    // everything else is data.
    let code_idx = segments
        .iter()
        .position(|(va, data, _)| entry >= *va && entry < *va + data.len() as u32)
        .unwrap_or(0);
    let (code_base, code, code_memsz) = segments.remove(code_idx);
    let code_len = code.len() as u32;
    let mut image = GuestImage::from_code(crate::asm::Program {
        base: code_base,
        code,
    })
    .with_entry(entry);
    if code_memsz > code_len {
        image = image.with_bss(code_base + code_len, code_memsz - code_len);
    }
    for (vaddr, data, memsz) in segments {
        let filesz = data.len() as u32;
        image = image.with_data(vaddr, data);
        if memsz > filesz {
            image = image.with_bss(vaddr + filesz, memsz - filesz);
        }
    }
    Ok(image)
}

/// Writes a minimal single-segment ELF32 executable (testing and the
/// example tooling; real binaries come from any i386 toolchain).
pub fn write_minimal_exec(vaddr: u32, code: &[u8], entry: u32) -> Vec<u8> {
    let ehsize = 52u32;
    let phentsize = 32u32;
    let offset = ehsize + phentsize;
    let mut out = Vec::new();
    // e_ident
    out.extend_from_slice(&[0x7F, b'E', b'L', b'F', 1, 1, 1, 0]);
    out.extend_from_slice(&[0; 8]);
    out.extend_from_slice(&2u16.to_le_bytes()); // e_type = ET_EXEC
    out.extend_from_slice(&3u16.to_le_bytes()); // e_machine = EM_386
    out.extend_from_slice(&1u32.to_le_bytes()); // e_version
    out.extend_from_slice(&entry.to_le_bytes());
    out.extend_from_slice(&ehsize.to_le_bytes()); // e_phoff
    out.extend_from_slice(&0u32.to_le_bytes()); // e_shoff
    out.extend_from_slice(&0u32.to_le_bytes()); // e_flags
    out.extend_from_slice(&(ehsize as u16).to_le_bytes());
    out.extend_from_slice(&(phentsize as u16).to_le_bytes());
    out.extend_from_slice(&1u16.to_le_bytes()); // e_phnum
    out.extend_from_slice(&[0u8; 6]); // shentsize/shnum/shstrndx
                                      // Program header.
    out.extend_from_slice(&1u32.to_le_bytes()); // PT_LOAD
    out.extend_from_slice(&offset.to_le_bytes());
    out.extend_from_slice(&vaddr.to_le_bytes());
    out.extend_from_slice(&vaddr.to_le_bytes()); // p_paddr
    out.extend_from_slice(&(code.len() as u32).to_le_bytes());
    out.extend_from_slice(&(code.len() as u32).to_le_bytes());
    out.extend_from_slice(&5u32.to_le_bytes()); // R+X
    out.extend_from_slice(&0x1000u32.to_le_bytes()); // p_align
    debug_assert_eq!(out.len() as u32, offset);
    out.extend_from_slice(code);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asm, Cpu, Reg, StopReason};

    fn sample_elf() -> Vec<u8> {
        let mut asm = Asm::new(0x0804_8000);
        asm.mov_ri(Reg::EAX, 40);
        asm.add_ri(Reg::EAX, 2);
        asm.exit_with_eax();
        let p = asm.finish();
        write_minimal_exec(p.base, &p.code, p.base)
    }

    #[test]
    fn roundtrip_loads_and_runs() {
        let image = load(&sample_elf()).expect("loads");
        assert_eq!(image.entry, 0x0804_8000);
        let mut cpu = Cpu::new(&image);
        assert_eq!(cpu.run(1000).unwrap(), StopReason::Exit(42));
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(
            load(b"\x7fBAD############").unwrap_err(),
            ElfError::BadMagic
        );
        // Too short for even the identification bytes: truncated.
        assert!(matches!(load(b"\x7fEL"), Err(ElfError::Truncated { .. })));
    }

    #[test]
    fn rejects_64_bit() {
        let mut e = sample_elf();
        e[4] = 2; // ELFCLASS64
        assert_eq!(
            load(&e).unwrap_err(),
            ElfError::Unsupported { what: "EI_CLASS" }
        );
    }

    #[test]
    fn rejects_wrong_machine() {
        let mut e = sample_elf();
        e[18] = 62; // EM_X86_64
        assert_eq!(
            load(&e).unwrap_err(),
            ElfError::Unsupported { what: "e_machine" }
        );
    }

    #[test]
    fn truncated_segment_reports_cleanly() {
        let mut e = sample_elf();
        e.truncate(60); // header intact, code bytes missing
        assert!(matches!(load(&e), Err(ElfError::Truncated { .. })));
    }

    #[test]
    fn bss_tail_is_zero_mapped() {
        // Hand-build an ELF whose segment has memsz > filesz.
        let mut asm = Asm::new(0x0804_8000);
        // Read a bss word that lives past the file contents.
        asm.mov_rm(Reg::EAX, crate::MemRef::abs(0x0804_8100));
        asm.exit_with_eax();
        let p = asm.finish();
        let mut e = write_minimal_exec(p.base, &p.code, p.base);
        // Patch p_memsz (header 52 + 20) to 0x200.
        e[52 + 20..52 + 24].copy_from_slice(&0x200u32.to_le_bytes());
        let image = load(&e).expect("loads");
        let mut cpu = Cpu::new(&image);
        assert_eq!(cpu.run(1000).unwrap(), StopReason::Exit(0));
    }

    #[test]
    fn rejects_segments_whose_arithmetic_overflows() {
        const E_ENTRY: usize = 24;
        const P_VADDR: usize = 52 + 8;
        const P_FILESZ: usize = 52 + 16;
        const P_MEMSZ: usize = 52 + 20;
        let patched = |fields: &[(usize, u32)]| {
            let mut e = write_minimal_exec(0x0804_8000, &[0x90; 0x20], 0x0804_8000);
            for &(off, v) in fields {
                e[off..off + 4].copy_from_slice(&v.to_le_bytes());
            }
            e
        };
        let rows = [
            // Entry and segment at the top of the address space: `p_vaddr
            // + p_filesz` overflowed while looking for the code segment.
            (
                "wraps",
                patched(&[(E_ENTRY, 0xFFFF_FFF0), (P_VADDR, 0xFFFF_FFF0)]),
            ),
            // A bss tail reaching past 4 GiB overflowed in `build_mem`.
            ("bss past 4 GiB", patched(&[(P_MEMSZ, 0xFFFF_FFFF)])),
            // More file bytes than the segment has memory for.
            ("filesz > memsz", patched(&[(P_MEMSZ, 1)])),
        ];
        assert_eq!(rows[0].1[P_FILESZ], 0x20);
        for (what, e) in rows {
            let got = load(&e).map(|image| image.bss);
            assert!(
                matches!(got, Err(ElfError::Unsupported { .. })),
                "{what}: {got:?}"
            );
        }
    }

    #[test]
    fn loaded_elf_runs_on_the_vm_too() {
        // End-to-end through vta-dbt happens in the workspace tests; here
        // just confirm the image shape is standard.
        let image = load(&sample_elf()).expect("loads");
        assert_eq!(image.code_base, 0x0804_8000);
        assert!(image.data.is_empty());
    }
}
