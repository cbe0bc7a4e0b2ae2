//! Sparse, paged guest memory.

use std::collections::HashMap;

/// Guest page size in bytes (4 KiB, as the paper's MMU tile translates).
pub const PAGE_SIZE: u32 = 4096;
const PAGE_MASK: u32 = PAGE_SIZE - 1;

/// A sparse 32-bit guest address space backed by 4 KiB pages.
///
/// Accesses to unmapped pages are errors rather than silently reading
/// zero — the reference interpreter uses this to catch wild guest accesses,
/// and the DBT's software MMU uses the same page map to build its page
/// tables.
///
/// # Examples
///
/// ```
/// use vta_x86::GuestMem;
///
/// let mut mem = GuestMem::new();
/// mem.map_zeroed(0x1000, 0x2000);
/// mem.write_u32(0x1ffc, 0xdead_beef).unwrap();
/// assert_eq!(mem.read_u32(0x1ffc), Ok(0xdead_beef));
/// assert!(mem.read_u8(0x3000).is_err());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GuestMem {
    pages: HashMap<u32, Box<[u8; PAGE_SIZE as usize]>>,
}

/// An access to an address whose page is not mapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnmappedAccess {
    /// The faulting guest virtual address.
    pub addr: u32,
}

impl std::fmt::Display for UnmappedAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "access to unmapped guest address {:#010x}", self.addr)
    }
}

impl std::error::Error for UnmappedAccess {}

impl GuestMem {
    /// Creates an empty (fully unmapped) address space.
    pub fn new() -> Self {
        GuestMem::default()
    }

    /// Maps the page range covering `[start, end)` with zeroed pages.
    /// Already-mapped pages are left untouched.
    pub fn map_zeroed(&mut self, start: u32, end: u32) {
        let first = start / PAGE_SIZE;
        let last = end.saturating_sub(1) / PAGE_SIZE;
        for page in first..=last {
            self.pages
                .entry(page)
                .or_insert_with(|| Box::new([0; PAGE_SIZE as usize]));
        }
    }

    /// Whether the page containing `addr` is mapped.
    pub fn is_mapped(&self, addr: u32) -> bool {
        self.pages.contains_key(&(addr / PAGE_SIZE))
    }

    /// Page numbers of all mapped pages, sorted.
    pub fn mapped_pages(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.pages.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] if the page is not mapped.
    pub fn read_u8(&self, addr: u32) -> Result<u8, UnmappedAccess> {
        self.pages
            .get(&(addr / PAGE_SIZE))
            .map(|p| p[(addr & PAGE_MASK) as usize])
            .ok_or(UnmappedAccess { addr })
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] if the page is not mapped.
    pub fn write_u8(&mut self, addr: u32, v: u8) -> Result<(), UnmappedAccess> {
        self.pages
            .get_mut(&(addr / PAGE_SIZE))
            .map(|p| p[(addr & PAGE_MASK) as usize] = v)
            .ok_or(UnmappedAccess { addr })
    }

    /// Reads a little-endian 16-bit value (may straddle pages).
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] on the first unmapped byte.
    pub fn read_u16(&self, addr: u32) -> Result<u16, UnmappedAccess> {
        Ok(u16::from_le_bytes([
            self.read_u8(addr)?,
            self.read_u8(addr.wrapping_add(1))?,
        ]))
    }

    /// Reads a little-endian 32-bit value (may straddle pages).
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] on the first unmapped byte.
    pub fn read_u32(&self, addr: u32) -> Result<u32, UnmappedAccess> {
        Ok(u32::from_le_bytes([
            self.read_u8(addr)?,
            self.read_u8(addr.wrapping_add(1))?,
            self.read_u8(addr.wrapping_add(2))?,
            self.read_u8(addr.wrapping_add(3))?,
        ]))
    }

    /// Writes a little-endian 16-bit value.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] on the first unmapped byte.
    pub fn write_u16(&mut self, addr: u32, v: u16) -> Result<(), UnmappedAccess> {
        for (i, b) in v.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), b)?;
        }
        Ok(())
    }

    /// Writes a little-endian 32-bit value.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] on the first unmapped byte.
    pub fn write_u32(&mut self, addr: u32, v: u32) -> Result<(), UnmappedAccess> {
        for (i, b) in v.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), b)?;
        }
        Ok(())
    }

    /// Reads a value of `size` bytes (1, 2 or 4), zero-extended.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] on the first unmapped byte.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2 or 4.
    pub fn read_sized(&self, addr: u32, size: u32) -> Result<u32, UnmappedAccess> {
        match size {
            1 => self.read_u8(addr).map(u32::from),
            2 => self.read_u16(addr).map(u32::from),
            4 => self.read_u32(addr),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Writes the low `size` bytes (1, 2 or 4) of `v`.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] on the first unmapped byte.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2 or 4.
    pub fn write_sized(&mut self, addr: u32, v: u32, size: u32) -> Result<(), UnmappedAccess> {
        match size {
            1 => self.write_u8(addr, v as u8),
            2 => self.write_u16(addr, v as u16),
            4 => self.write_u32(addr, v),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Copies a byte slice into guest memory, mapping pages as needed.
    pub fn load_bytes(&mut self, addr: u32, bytes: &[u8]) {
        self.map_zeroed(addr, addr + bytes.len() as u32);
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr + i as u32, b)
                .expect("just mapped this range");
        }
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] on the first unmapped byte.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, UnmappedAccess> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_access_errors() {
        let mem = GuestMem::new();
        assert_eq!(mem.read_u8(0x42), Err(UnmappedAccess { addr: 0x42 }));
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = GuestMem::new();
        mem.map_zeroed(0, PAGE_SIZE);
        mem.write_u32(0, 0x0403_0201).unwrap();
        assert_eq!(mem.read_u8(0), Ok(0x01));
        assert_eq!(mem.read_u8(3), Ok(0x04));
        assert_eq!(mem.read_u16(1), Ok(0x0302));
    }

    #[test]
    fn cross_page_access() {
        let mut mem = GuestMem::new();
        mem.map_zeroed(0, 2 * PAGE_SIZE);
        mem.write_u32(PAGE_SIZE - 2, 0xAABB_CCDD).unwrap();
        assert_eq!(mem.read_u32(PAGE_SIZE - 2), Ok(0xAABB_CCDD));
    }

    #[test]
    fn load_bytes_maps_and_copies() {
        let mut mem = GuestMem::new();
        mem.load_bytes(0x1000, &[1, 2, 3]);
        assert_eq!(mem.read_bytes(0x1000, 3).unwrap(), vec![1, 2, 3]);
        assert!(mem.is_mapped(0x1000));
        assert!(!mem.is_mapped(0x5000));
    }

    #[test]
    fn sized_access_roundtrip() {
        let mut mem = GuestMem::new();
        mem.map_zeroed(0, PAGE_SIZE);
        mem.write_sized(8, 0xDEAD_BEEF, 2).unwrap();
        assert_eq!(mem.read_sized(8, 2), Ok(0xBEEF));
        assert_eq!(mem.read_sized(8, 4), Ok(0x0000_BEEF));
    }

    #[test]
    fn map_zeroed_is_idempotent() {
        let mut mem = GuestMem::new();
        mem.map_zeroed(0, PAGE_SIZE);
        mem.write_u8(4, 9).unwrap();
        mem.map_zeroed(0, PAGE_SIZE);
        assert_eq!(mem.read_u8(4), Ok(9), "remap must not clear data");
    }

    #[test]
    fn mapped_pages_sorted() {
        let mut mem = GuestMem::new();
        mem.map_zeroed(3 * PAGE_SIZE, 4 * PAGE_SIZE);
        mem.map_zeroed(0, PAGE_SIZE);
        assert_eq!(mem.mapped_pages(), vec![0, 3]);
    }
}
