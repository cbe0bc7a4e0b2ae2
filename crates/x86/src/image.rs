//! Guest program images: code, data, stack and heap layout.

use crate::asm::Program;
use crate::mem::GuestMem;

/// Default top-of-stack for guest programs.
pub(crate) const DEFAULT_STACK_TOP: u32 = 0x0C00_0000;
/// Default stack reservation (grows down from [`DEFAULT_STACK_TOP`]).
pub(crate) const DEFAULT_STACK_SIZE: u32 = 0x0004_0000;
/// Default initial program break (heap base).
pub(crate) const DEFAULT_BRK_BASE: u32 = 0x0A00_0000;

/// A loadable guest program: code plus initialized/zeroed data segments.
///
/// This plays the role of the statically-linked Linux binaries the paper
/// runs — everything the loader needs to build the initial address space.
///
/// # Examples
///
/// ```
/// use vta_x86::{Asm, GuestImage};
///
/// let mut asm = Asm::new(0x0800_0000);
/// asm.exit(0);
/// let image = GuestImage::from_code(asm.finish())
///     .with_data(0x0900_0000, b"lookup table".to_vec())
///     .with_input(b"stdin bytes".to_vec());
/// assert_eq!(image.entry, 0x0800_0000);
/// ```
#[derive(Debug, Clone)]
pub struct GuestImage {
    /// Guest address of the code segment.
    pub code_base: u32,
    /// Machine code bytes.
    pub code: Vec<u8>,
    /// Initialized data segments `(addr, bytes)`.
    pub data: Vec<(u32, Vec<u8>)>,
    /// Zero-initialized segments `(addr, len)`.
    pub bss: Vec<(u32, u32)>,
    /// Entry point.
    pub entry: u32,
    /// Initial `ESP` (16 bytes below the stack top).
    pub stack_top: u32,
    /// Stack reservation size.
    pub stack_size: u32,
    /// Initial program break.
    pub brk_base: u32,
    /// Bytes served to `read(0, ..)`.
    pub input: Vec<u8>,
}

impl GuestImage {
    /// Wraps an assembled program with the default memory layout.
    pub fn from_code(prog: Program) -> Self {
        GuestImage {
            entry: prog.base,
            code_base: prog.base,
            code: prog.code,
            data: Vec::new(),
            bss: Vec::new(),
            stack_top: DEFAULT_STACK_TOP,
            stack_size: DEFAULT_STACK_SIZE,
            brk_base: DEFAULT_BRK_BASE,
            input: Vec::new(),
        }
    }

    /// Adds an initialized data segment.
    #[must_use]
    pub fn with_data(mut self, addr: u32, bytes: Vec<u8>) -> Self {
        self.data.push((addr, bytes));
        self
    }

    /// Adds a zero-initialized segment.
    #[must_use]
    pub fn with_bss(mut self, addr: u32, len: u32) -> Self {
        self.bss.push((addr, len));
        self
    }

    /// Sets the entry point (defaults to the code base).
    #[must_use]
    pub fn with_entry(mut self, entry: u32) -> Self {
        self.entry = entry;
        self
    }

    /// Sets the synthetic stdin contents.
    #[must_use]
    pub fn with_input(mut self, input: Vec<u8>) -> Self {
        self.input = input;
        self
    }

    /// Builds the initial guest address space: code, data, bss, stack.
    /// A zero-length segment maps nothing, and a segment reaching past
    /// 2^32 is cut off at the top of the address space (see
    /// [`GuestMem::load_bytes`]).
    pub fn build_mem(&self) -> GuestMem {
        let mut mem = GuestMem::new();
        mem.load_bytes(self.code_base, &self.code);
        for (addr, bytes) in &self.data {
            mem.load_bytes(*addr, bytes);
        }
        for &(addr, len) in &self.bss {
            mem.map_span(addr, len.into());
        }
        mem.map_zeroed(self.stack_top - self.stack_size, self.stack_top);
        mem
    }

    /// Initial `ESP` value.
    pub fn initial_esp(&self) -> u32 {
        self.stack_top - 16
    }

    /// End of the code segment (exclusive).
    pub fn code_end(&self) -> u32 {
        self.code_base + self.code.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    fn tiny_image() -> GuestImage {
        let mut asm = Asm::new(0x0800_0000);
        asm.exit(0);
        GuestImage::from_code(asm.finish())
    }

    #[test]
    fn layout_maps_all_segments() {
        let img = tiny_image()
            .with_data(0x0900_0000, vec![1, 2, 3])
            .with_bss(0x0980_0000, 64);
        let mem = img.build_mem();
        assert!(mem.is_mapped(0x0800_0000));
        assert_eq!(mem.read_u8(0x0900_0002), Ok(3));
        assert_eq!(mem.read_u8(0x0980_0000), Ok(0));
        assert!(mem.is_mapped(img.initial_esp()));
    }

    #[test]
    fn entry_defaults_to_base() {
        let img = tiny_image();
        assert_eq!(img.entry, img.code_base);
        let img = img.with_entry(0x0800_0010);
        assert_eq!(img.entry, 0x0800_0010);
    }

    #[test]
    fn code_end_is_exclusive() {
        let img = tiny_image();
        assert_eq!(img.code_end(), img.code_base + img.code.len() as u32);
    }
}
