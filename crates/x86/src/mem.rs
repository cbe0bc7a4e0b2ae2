//! Sparse, paged guest memory: a two-level flat page table.
//!
//! The paper's memory system starts at an MMU/TLB tile that walks a page
//! table for every guest access; this is the host-side stand-in for that
//! table, shaped the way a hardware walker's is. The top 10 bits of a
//! guest address index a directory, the next 10 a page inside it, the low
//! 12 a byte inside the page, so any access that stays inside one page is
//! two indexed loads and a slice access — no hashing anywhere. Directories
//! (8 KiB of pointers each) are allocated when their first page is mapped;
//! a typical guest (code, data, bss, heap, stack) touches five or six.
//!
//! Multi-byte accesses take the in-page path whenever they do not cross
//! a page edge and fall back to a byte-at-a-time loop only when they do,
//! which keeps two behaviours exact: the address an [`UnmappedAccess`]
//! names is the first unmapped *byte*, and a straddling write whose
//! second page is unmapped has already written its first page's bytes.

use std::fmt;

/// Guest page size in bytes (4 KiB, as the paper's MMU tile translates).
pub const PAGE_SIZE: u32 = 4096;
const PAGE_MASK: u32 = PAGE_SIZE - 1;
/// Entries per table level: 1024 directories of 1024 pages cover 2^32.
const FANOUT: usize = 1024;

type Page = [u8; PAGE_SIZE as usize];
type Directory = [Option<Box<Page>>; FANOUT];

/// A sparse 32-bit guest address space backed by 4 KiB pages, held in a
/// two-level table (directory, then page) indexed by address bits.
///
/// Accesses to unmapped pages are errors rather than silently reading
/// zero — the reference interpreter uses this to catch wild guest accesses,
/// and the DBT's software MMU uses the same page map to build its page
/// tables. Two memories are equal when they map the same pages with the
/// same contents, however they were built.
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
#[derive(Clone)]
pub struct GuestMem {
    dirs: Box<[Option<Box<Directory>>; FANOUT]>,
}

impl Default for GuestMem {
    fn default() -> Self {
        GuestMem {
            dirs: Box::new([const { None }; FANOUT]),
        }
    }
}

impl PartialEq for GuestMem {
    fn eq(&self, other: &Self) -> bool {
        self.pages().eq(other.pages())
    }
}

impl Eq for GuestMem {}

impl fmt::Debug for GuestMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Pages<'a>(&'a GuestMem);
        impl fmt::Debug for Pages<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.pages()).finish()
            }
        }
        f.debug_struct("GuestMem")
            .field("pages", &Pages(self))
            .finish()
    }
}

/// An access to an address whose page is not mapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnmappedAccess {
    /// The faulting guest virtual address.
    pub addr: u32,
}

impl fmt::Display for UnmappedAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "access to unmapped guest address {:#010x}", self.addr)
    }
}

impl std::error::Error for UnmappedAccess {}

impl GuestMem {
    /// Creates an empty (fully unmapped) address space.
    pub fn new() -> Self {
        GuestMem::default()
    }

    /// The contents of page number `page_no` (address / [`PAGE_SIZE`]),
    /// or `None` if it is not mapped.
    #[inline]
    pub fn page(&self, page_no: u32) -> Option<&[u8; PAGE_SIZE as usize]> {
        let dir = self.dirs.get(page_no as usize / FANOUT)?.as_deref()?;
        dir[page_no as usize % FANOUT].as_deref()
    }

    #[inline]
    fn page_mut(&mut self, page_no: u32) -> Option<&mut Page> {
        let dir = self
            .dirs
            .get_mut(page_no as usize / FANOUT)?
            .as_deref_mut()?;
        dir[page_no as usize % FANOUT].as_deref_mut()
    }

    /// Every mapped page with its number, in ascending order.
    fn pages(&self) -> impl Iterator<Item = (u32, &Page)> {
        self.dirs.iter().enumerate().flat_map(|(d, dir)| {
            dir.iter()
                .flat_map(|dir| dir.iter())
                .enumerate()
                .filter_map(move |(p, page)| Some(((d * FANOUT + p) as u32, page.as_deref()?)))
        })
    }

    /// Maps, zeroed, the pages covering `len` bytes from `addr`, leaving
    /// already-mapped ones untouched. The address space ends at 2^32: a
    /// span reaching past it is cut off there, never wrapped to 0.
    pub(crate) fn map_span(&mut self, addr: u32, len: u64) {
        let Some(last) = len.checked_sub(1) else {
            return;
        };
        let last = u64::from(addr)
            .saturating_add(last)
            .min(u64::from(u32::MAX)) as u32;
        for page_no in (addr / PAGE_SIZE) as usize..=(last / PAGE_SIZE) as usize {
            let dir = self.dirs[page_no / FANOUT]
                .get_or_insert_with(|| Box::new([const { None }; FANOUT]));
            dir[page_no % FANOUT].get_or_insert_with(|| Box::new([0; PAGE_SIZE as usize]));
        }
    }

    /// Maps the page range covering `[start, end)` with zeroed pages.
    /// Already-mapped pages are left untouched; an empty range
    /// (`start >= end`) maps nothing.
    pub fn map_zeroed(&mut self, start: u32, end: u32) {
        self.map_span(start, u64::from(end.saturating_sub(start)));
    }

    /// Whether the page containing `addr` is mapped.
    pub fn is_mapped(&self, addr: u32) -> bool {
        self.page(addr / PAGE_SIZE).is_some()
    }

    /// Page numbers of all mapped pages, sorted.
    pub fn mapped_pages(&self) -> Vec<u32> {
        self.pages().map(|(page_no, _)| page_no).collect()
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] if the page is not mapped.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> Result<u8, UnmappedAccess> {
        self.page(addr / PAGE_SIZE)
            .map(|p| p[(addr & PAGE_MASK) as usize])
            .ok_or(UnmappedAccess { addr })
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] if the page is not mapped.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, v: u8) -> Result<(), UnmappedAccess> {
        self.page_mut(addr / PAGE_SIZE)
            .map(|p| p[(addr & PAGE_MASK) as usize] = v)
            .ok_or(UnmappedAccess { addr })
    }

    /// Reads `N` bytes: one page lookup when they sit inside one page,
    /// byte by byte (wrapping at 2^32) when they straddle an edge.
    #[inline]
    fn read_array<const N: usize>(&self, addr: u32) -> Result<[u8; N], UnmappedAccess> {
        let off = (addr & PAGE_MASK) as usize;
        let mut out = [0; N];
        if off + N <= PAGE_SIZE as usize {
            let page = self.page(addr / PAGE_SIZE).ok_or(UnmappedAccess { addr })?;
            out.copy_from_slice(&page[off..off + N]);
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32))?;
            }
        }
        Ok(out)
    }

    /// Writes `N` bytes, as [`read_array`](Self::read_array) reads them:
    /// a straddling write faults at its first unmapped byte with the
    /// bytes before it already written.
    #[inline]
    fn write_array<const N: usize>(
        &mut self,
        addr: u32,
        bytes: [u8; N],
    ) -> Result<(), UnmappedAccess> {
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE as usize {
            let page = self
                .page_mut(addr / PAGE_SIZE)
                .ok_or(UnmappedAccess { addr })?;
            page[off..off + N].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.into_iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), b)?;
            }
        }
        Ok(())
    }

    /// Reads a little-endian 16-bit value (may straddle pages).
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] on the first unmapped byte.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> Result<u16, UnmappedAccess> {
        self.read_array(addr).map(u16::from_le_bytes)
    }

    /// Reads a little-endian 32-bit value (may straddle pages).
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] on the first unmapped byte.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Result<u32, UnmappedAccess> {
        self.read_array(addr).map(u32::from_le_bytes)
    }

    /// Writes a little-endian 16-bit value.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] on the first unmapped byte.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, v: u16) -> Result<(), UnmappedAccess> {
        self.write_array(addr, v.to_le_bytes())
    }

    /// Writes a little-endian 32-bit value.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] on the first unmapped byte.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, v: u32) -> Result<(), UnmappedAccess> {
        self.write_array(addr, v.to_le_bytes())
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
    /// The address space ends at 2^32: a slice reaching exactly that far
    /// is loaded whole, and the part of one that would run past it is
    /// dropped rather than wrapped to address 0.
    pub fn load_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let room = (1u64 << 32) - u64::from(addr);
        let bytes = &bytes[..bytes.len().min(usize::try_from(room).unwrap_or(usize::MAX))];
        self.map_span(addr, bytes.len() as u64);
        self.write_bytes(addr, bytes)
            .expect("just mapped this range");
    }

    /// Copies `bytes` over already-mapped memory at `addr` a page at a
    /// time, wrapping at 2^32.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] on the first unmapped byte; the bytes
    /// before it have been written.
    pub(crate) fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), UnmappedAccess> {
        let (mut addr, mut rest) = (addr, bytes);
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE as usize - off));
            let page = self
                .page_mut(addr / PAGE_SIZE)
                .ok_or(UnmappedAccess { addr })?;
            page[off..off + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u32);
            rest = tail;
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `addr` (wrapping at 2^32), a page
    /// at a time. Nothing is reserved up front: `len` may come from the
    /// guest.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedAccess`] on the first unmapped byte.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, UnmappedAccess> {
        let (mut addr, mut left) = (addr, len);
        let mut out = Vec::new();
        while left > 0 {
            let off = addr & PAGE_MASK;
            let n = left.min(PAGE_SIZE - off);
            let page = self.page(addr / PAGE_SIZE).ok_or(UnmappedAccess { addr })?;
            out.extend_from_slice(&page[off as usize..(off + n) as usize]);
            addr = addr.wrapping_add(n);
            left -= n;
        }
        Ok(out)
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
