//! Identifier newtypes: physical frame numbers, address space
//! identifiers, and process identifiers.

use core::fmt;

use crate::{PhysAddr, PAGE_SHIFT};

/// A physical frame number: a 4KB-granular index into physical memory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pfn(pub u32);

impl fmt::Debug for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pfn({:#x})", self.0)
    }
}

impl Pfn {
    /// Creates a frame number from a raw index.
    pub const fn new(raw: u32) -> Self {
        Pfn(raw)
    }

    /// Returns the raw frame index.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the physical base address of the frame.
    pub const fn base(self) -> PhysAddr {
        PhysAddr::new(self.0 << PAGE_SHIFT)
    }

    /// Creates a frame number from the physical address it contains.
    pub const fn containing(pa: PhysAddr) -> Self {
        Pfn(pa.raw() >> PAGE_SHIFT)
    }
}

/// An address space identifier, as held in the ARMv7 CONTEXTIDR.
///
/// ARMv7 ASIDs are 8 bits. TLB entries whose *global* bit is clear are
/// tagged with the ASID that loaded them; a lookup only matches when
/// the current ASID equals the entry's tag. Entries with the global
/// bit set match regardless of ASID — that is the mechanism the paper
/// leverages to share TLB entries for zygote-preloaded shared code.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asid(pub u8);

impl fmt::Debug for Asid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Asid({})", self.0)
    }
}

impl Asid {
    /// Creates an ASID from its raw 8-bit value.
    pub const fn new(raw: u8) -> Self {
        Asid(raw)
    }

    /// Returns the raw 8-bit value.
    pub const fn raw(self) -> u8 {
        self.0
    }
}

/// A process identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pid({})", self.0)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Pid {
    /// The reverse-map owner of a PTE in a *shared* page-table page:
    /// no process owns such a PTE (sharers come and go while it lives
    /// on), so its entry is filed under this value, which no process
    /// is ever given — pids are handed out from 1.
    pub const SHARED_TABLE: Pid = Pid(0);

    /// Creates a PID from its raw value.
    pub const fn new(raw: u32) -> Self {
        Pid(raw)
    }

    /// Returns the raw value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pfn_address_round_trip() {
        let pfn = Pfn::new(0x1234);
        assert_eq!(pfn.base().raw(), 0x0123_4000);
        assert_eq!(Pfn::containing(pfn.base()), pfn);
        assert_eq!(Pfn::containing(PhysAddr::new(0x0123_4FFF)), pfn);
    }
}
