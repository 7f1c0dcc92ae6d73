use std::collections::HashMap;

const PAGE_SIZE: u64 = 4096;

/// What an unallocated page reads as.
static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

/// Sparse flat physical memory backed by 4 KiB pages.
///
/// Unwritten memory reads as zero. Addresses are full 64-bit; pages are
/// allocated on first write.
///
/// # Example
///
/// ```
/// use microsampler_sim::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0x8000_0000, 0xDEAD_BEEF);
/// assert_eq!(m.read_u64(0x8000_0000), 0xDEAD_BEEF);
/// assert_eq!(m.read_u64(0x9000_0000), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
}

impl Memory {
    /// Creates empty (all-zero) memory.
    pub fn new() -> Memory {
        Memory { pages: HashMap::new() }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read_le(addr, 1) as u8
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.write_bytes(addr, &[value]);
    }

    /// Visits `addr..addr + len` as one slice per page touched: one page
    /// lookup per in-page run instead of one per byte.
    fn for_each_run(&self, addr: u64, len: u64, mut f: impl FnMut(&[u8])) {
        let mut a = addr;
        let end = addr.wrapping_add(len);
        while a != end {
            let off = (a % PAGE_SIZE) as usize;
            let n = (PAGE_SIZE as usize - off).min(end.wrapping_sub(a) as usize);
            let page = self.pages.get(&(a / PAGE_SIZE)).map_or(&ZERO_PAGE, |p| &**p);
            f(&page[off..off + n]);
            a = a.wrapping_add(n as u64);
        }
    }

    /// Writes `bytes` at `addr`, one page lookup per in-page run.
    pub fn write_bytes(&mut self, addr: u64, mut bytes: &[u8]) {
        let mut a = addr;
        while !bytes.is_empty() {
            let off = (a % PAGE_SIZE) as usize;
            let n = (PAGE_SIZE as usize - off).min(bytes.len());
            let page = self
                .pages
                .entry(a / PAGE_SIZE)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]));
            page[off..off + n].copy_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            a = a.wrapping_add(n as u64);
        }
    }

    /// Reads `N` little-endian bytes as an integer, `N <= 8`.
    pub fn read_le(&self, addr: u64, size: u64) -> u64 {
        debug_assert!(size <= 8);
        let mut bytes = [0u8; 8];
        let mut at = 0;
        self.for_each_run(addr, size, |run| {
            bytes[at..at + run.len()].copy_from_slice(run);
            at += run.len();
        });
        u64::from_le_bytes(bytes)
    }

    /// Writes the low `size` bytes of `value` little-endian.
    pub fn write_le(&mut self, addr: u64, size: u64, value: u64) {
        debug_assert!(size <= 8);
        self.write_bytes(addr, &value.to_le_bytes()[..size as usize]);
    }

    /// Reads a 32-bit little-endian word.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_le(addr, 4) as u32
    }

    /// Reads a 64-bit little-endian word.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_le(addr, 8)
    }

    /// Writes a 64-bit little-endian word.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_le(addr, 8, value);
    }

    /// Reads `len` bytes into a new vector.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.for_each_run(addr, len as u64, |run| out.extend_from_slice(run));
        out
    }

    /// A 64-bit digest of one cache line's content, used by the LFB-Data
    /// trace feature (equal lines hash equal; distinct lines almost surely
    /// differ).
    pub fn line_digest(&self, line_addr: u64, line_bytes: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        self.for_each_run(line_addr, line_bytes, |run| {
            for &b in run {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        });
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(u64::MAX - 8), 0);
    }

    #[test]
    fn byte_roundtrip_across_pages() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 1;
        m.write_u8(addr, 0xAB);
        m.write_u8(addr + 1, 0xCD);
        assert_eq!(m.read_u8(addr), 0xAB);
        assert_eq!(m.read_u8(addr + 1), 0xCD);
        assert_eq!(m.read_le(addr, 2), 0xCDAB);
        let v = 0x0102_0304_0506_0708u64;
        m.write_u64(PAGE_SIZE * 3 - 3, v);
        assert_eq!(m.read_u64(PAGE_SIZE * 3 - 3), v);
        assert_eq!(m.read_bytes(PAGE_SIZE * 3 - 3, 8), v.to_le_bytes());
    }

    #[test]
    fn le_roundtrip() {
        let mut m = Memory::new();
        for size in 1..=8u64 {
            let v = 0x0102_0304_0506_0708u64;
            m.write_le(100, size, v);
            let mask = if size == 8 { u64::MAX } else { (1 << (8 * size)) - 1 };
            assert_eq!(m.read_le(100, size), v & mask, "size {size}");
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..100).collect();
        m.write_bytes(5000, &data);
        assert_eq!(m.read_bytes(5000, 100), data);
    }

    #[test]
    fn line_digest_distinguishes_content() {
        let mut m = Memory::new();
        let d0 = m.line_digest(0, 64);
        m.write_u8(63, 1);
        let d1 = m.line_digest(0, 64);
        assert_ne!(d0, d1);
        // Identical content on a different line address digests the same.
        m.write_u8(64 + 63, 1);
        assert_eq!(m.line_digest(64, 64), d1);
    }
}
