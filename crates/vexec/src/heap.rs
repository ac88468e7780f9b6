//! Guest memory: a flat byte arena holding globals and the heap, plus block
//! bookkeeping for allocation-site diagnostics ("Address 0x... is N bytes
//! inside a block of size M alloc'd by thread T" — Fig 9 of the paper).
//!
//! The VM heap is bump-only: guest `free` marks a block freed but addresses
//! are never recycled at this level. Address reuse — the libstdc++ pooled
//! allocator behaviour the paper flags in §4 — is modelled *in guest code*
//! by `cxxmodel`'s pool allocator, which recycles addresses without emitting
//! `Free`/`Alloc` events, exactly like a user-space pool that Helgrind
//! cannot see through.

use crate::event::ThreadId;

/// Lowest guest address; accesses below this are wild.
pub const GUEST_BASE: u64 = 0x1000;
/// Alignment of every allocation.
pub const ALIGN: u64 = 16;

/// A guest allocation record.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    pub addr: u64,
    pub size: u64,
    pub alloc_tid: ThreadId,
    pub freed: bool,
}

/// Errors raised by guest memory operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemError {
    /// Access to an address outside any mapped range.
    Wild { addr: u64, size: u64 },
    /// `free` of an address that is not the start of a live block.
    BadFree { addr: u64 },
    /// `free` of an already-freed block.
    DoubleFree { addr: u64 },
    /// Unsupported access size (must be 1, 2, 4 or 8).
    BadSize { size: u8 },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Wild { addr, size } => {
                write!(f, "wild access of {size} bytes at {addr:#x}")
            }
            MemError::BadFree { addr } => write!(f, "free of non-block address {addr:#x}"),
            MemError::DoubleFree { addr } => write!(f, "double free at {addr:#x}"),
            MemError::BadSize { size } => write!(f, "unsupported access size {size}"),
        }
    }
}

/// Guest memory arena.
#[derive(Debug)]
pub struct Heap {
    mem: Vec<u8>,
    next: u64,
    /// Every block, in allocation order — which the bump allocator makes
    /// address order too, so lookups binary-search it.
    blocks: Vec<Block>,
}

impl Heap {
    pub fn new() -> Self {
        Heap { mem: Vec::new(), next: GUEST_BASE, blocks: Vec::new() }
    }

    /// Grow the arena to cover every byte below `end`, zero-filling only
    /// those bytes (`Vec` growth keeps the pushes amortised).
    fn ensure(&mut self, end: u64) {
        let need = (end - GUEST_BASE) as usize;
        if self.mem.len() < need {
            self.mem.resize(need, 0);
        }
    }

    /// Index of the last block starting at or below `addr`.
    fn block_at_or_below(&self, addr: u64) -> Option<usize> {
        self.blocks.partition_point(|b| b.addr <= addr).checked_sub(1)
    }

    /// Allocate `size` bytes (zero-initialised). Zero-size requests get one
    /// byte so every allocation has a unique address, like malloc(0).
    pub fn alloc(&mut self, size: u64, tid: ThreadId) -> u64 {
        let size = size.max(1);
        let addr = self.next;
        let padded = (size + ALIGN - 1) & !(ALIGN - 1);
        self.next += padded;
        self.ensure(self.next);
        // The block is already zeroed: `ensure` zero-fills on growth, every
        // write is bounded below the `next` of its time by `check`, and the
        // bump allocator never hands an address out twice — so no byte of a
        // fresh block can have been written.
        self.blocks.push(Block { addr, size, alloc_tid: tid, freed: false });
        addr
    }

    /// Release a block. Returns the block record (for the `Free` event's
    /// size) or an error for bad/double frees.
    pub fn free(&mut self, addr: u64) -> Result<Block, MemError> {
        let b = match self.block_at_or_below(addr) {
            Some(i) if self.blocks[i].addr == addr => &mut self.blocks[i],
            _ => return Err(MemError::BadFree { addr }),
        };
        if b.freed {
            return Err(MemError::DoubleFree { addr });
        }
        b.freed = true;
        Ok(*b)
    }

    #[inline]
    fn check(&self, addr: u64, size: u8) -> Result<usize, MemError> {
        if !matches!(size, 1 | 2 | 4 | 8) {
            return Err(MemError::BadSize { size });
        }
        if addr < GUEST_BASE {
            return Err(MemError::Wild { addr, size: size as u64 });
        }
        let off = (addr - GUEST_BASE) as usize;
        if addr + size as u64 > self.next {
            return Err(MemError::Wild { addr, size: size as u64 });
        }
        Ok(off)
    }

    /// Read a little-endian value of `size` bytes. Each size compiles to a
    /// fixed-width load — a dynamic-length slice copy here would put a
    /// `memcpy` call on the hot path of every memory-access slot.
    #[inline]
    pub fn read(&self, addr: u64, size: u8) -> Result<u64, MemError> {
        let off = self.check(addr, size)?;
        let m = &self.mem;
        Ok(match size {
            1 => m[off] as u64,
            2 => u16::from_le_bytes(m[off..off + 2].try_into().unwrap()) as u64,
            4 => u32::from_le_bytes(m[off..off + 4].try_into().unwrap()) as u64,
            _ => u64::from_le_bytes(m[off..off + 8].try_into().unwrap()),
        })
    }

    /// Write a little-endian value of `size` bytes (value truncated).
    #[inline]
    pub fn write(&mut self, addr: u64, size: u8, value: u64) -> Result<(), MemError> {
        let off = self.check(addr, size)?;
        let b = value.to_le_bytes();
        let m = &mut self.mem;
        match size {
            1 => m[off] = b[0],
            2 => m[off..off + 2].copy_from_slice(&b[..2]),
            4 => m[off..off + 4].copy_from_slice(&b[..4]),
            _ => m[off..off + 8].copy_from_slice(&b[..8]),
        }
        Ok(())
    }

    /// The live or freed block containing `addr`, if any.
    pub fn block_containing(&self, addr: u64) -> Option<&Block> {
        let b = &self.blocks[self.block_at_or_below(addr)?];
        (addr < b.addr + b.size).then_some(b)
    }

    /// Every block ever allocated, in allocation order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of allocations performed.
    pub fn alloc_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total bytes currently reserved (high-water mark).
    pub fn reserved(&self) -> u64 {
        self.next - GUEST_BASE
    }

    /// `(count, bytes)` of live (never-freed) blocks allocated by `tid` —
    /// what an abruptly killed thread leaks.
    pub fn live_blocks_by(&self, tid: ThreadId) -> (usize, u64) {
        self.blocks
            .iter()
            .filter(|b| !b.freed && b.alloc_tid == tid)
            .fold((0, 0), |(n, bytes), b| (n + 1, bytes + b.size))
    }
}

impl Default for Heap {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Heap {
        Heap::new()
    }

    const T: ThreadId = ThreadId(0);

    #[test]
    fn alloc_returns_aligned_distinct_addresses() {
        let mut heap = h();
        let a = heap.alloc(24, T);
        let b = heap.alloc(8, T);
        assert_eq!(a % ALIGN, 0);
        assert_eq!(b % ALIGN, 0);
        assert!(b >= a + 24);
    }

    #[test]
    fn read_write_roundtrip_all_sizes() {
        let mut heap = h();
        let a = heap.alloc(64, T);
        for &(size, val) in &[(1u8, 0xABu64), (2, 0xBEEF), (4, 0xDEADBEEF), (8, 0x0123456789ABCDEF)]
        {
            heap.write(a, size, val).unwrap();
            assert_eq!(heap.read(a, size).unwrap(), val);
        }
    }

    #[test]
    fn write_truncates_to_size() {
        let mut heap = h();
        let a = heap.alloc(16, T);
        heap.write(a, 1, 0x1FF).unwrap();
        assert_eq!(heap.read(a, 1).unwrap(), 0xFF);
        // Neighbouring byte untouched.
        assert_eq!(heap.read(a + 1, 1).unwrap(), 0);
    }

    #[test]
    fn fresh_allocations_are_zeroed() {
        let mut heap = h();
        let a = heap.alloc(32, T);
        assert_eq!(heap.read(a + 24, 8).unwrap(), 0);
    }

    #[test]
    fn wild_access_rejected() {
        let mut heap = h();
        let a = heap.alloc(8, T);
        assert!(matches!(heap.read(a + 4096, 8), Err(MemError::Wild { .. })));
        assert!(matches!(heap.read(0x10, 8), Err(MemError::Wild { .. })));
    }

    #[test]
    fn bad_size_rejected() {
        let mut heap = h();
        let a = heap.alloc(8, T);
        assert!(matches!(heap.read(a, 3), Err(MemError::BadSize { .. })));
    }

    #[test]
    fn free_and_double_free() {
        let mut heap = h();
        let a = heap.alloc(8, T);
        let b = heap.free(a).unwrap();
        assert_eq!(b.size, 8);
        assert!(matches!(heap.free(a), Err(MemError::DoubleFree { .. })));
        assert!(matches!(heap.free(a + 1), Err(MemError::BadFree { .. })));
    }

    #[test]
    fn block_containing_finds_interior_addresses() {
        let mut heap = h();
        let a = heap.alloc(21, T);
        let blk = heap.block_containing(a + 8).unwrap();
        assert_eq!(blk.addr, a);
        assert_eq!(blk.size, 21);
        assert!(
            heap.block_containing(a + 21).is_none()
                || heap.block_containing(a + 21).unwrap().addr != a
        );
    }

    #[test]
    fn block_containing_covers_first_and_last_byte_and_misses_gaps() {
        let mut heap = h();
        let a = heap.alloc(21, T);
        let b = heap.alloc(40, T);
        let c = heap.alloc(1, T);
        for (base, size) in [(a, 21), (b, 40), (c, 1)] {
            assert_eq!(heap.block_containing(base).unwrap().addr, base);
            assert_eq!(heap.block_containing(base + size - 1).unwrap().addr, base);
        }
        // Alignment padding after each block belongs to no block, and so
        // does everything below the first and above the last.
        for gap in [a + 21, b - 1, b + 40, c - 1, c + 1, c + 15, GUEST_BASE - 1, 0] {
            assert!(heap.block_containing(gap).is_none(), "{gap:#x} is in a gap");
        }
        // Freed blocks still answer, marked.
        heap.free(b).unwrap();
        let blk = heap.block_containing(b + 39).unwrap();
        assert!(blk.freed && blk.addr == b);
    }

    #[test]
    fn free_takes_only_block_starts_and_only_once() {
        let mut heap = h();
        let a = heap.alloc(24, T);
        let b = heap.alloc(24, T);
        let c = heap.alloc(24, T);
        // Interior bytes, the last byte, padding and unmapped addresses
        // are not block starts.
        for bad in [a + 1, a + 23, a + 24, c + 31, GUEST_BASE - 16, 0, c + 4096] {
            assert_eq!(heap.free(bad).unwrap_err(), MemError::BadFree { addr: bad });
        }
        assert_eq!(heap.free(b).unwrap().addr, b);
        assert_eq!(heap.free(b).unwrap_err(), MemError::DoubleFree { addr: b });
        // Neighbours are untouched by the free and the failed frees.
        assert!(!heap.block_containing(a).unwrap().freed);
        assert!(!heap.block_containing(c).unwrap().freed);
        assert_eq!(heap.free(c).unwrap().addr, c);
        assert_eq!(heap.free(a).unwrap().addr, a);
        assert_eq!(heap.free(a).unwrap_err(), MemError::DoubleFree { addr: a });
    }

    #[test]
    fn arena_grows_to_exactly_the_reserved_bytes() {
        let mut heap = h();
        heap.alloc(5000, T);
        assert_eq!(heap.mem.len() as u64, heap.reserved());
        let last = heap.alloc(3, T);
        assert_eq!(heap.mem.len() as u64, heap.reserved());
        heap.write(last + 2, 1, 7).unwrap();
        assert!(heap.write(last + 16, 1, 7).is_err());
    }

    #[test]
    fn zero_size_alloc_gets_unique_address() {
        let mut heap = h();
        let a = heap.alloc(0, T);
        let b = heap.alloc(0, T);
        assert_ne!(a, b);
    }
}
