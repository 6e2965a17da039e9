//! Access permissions and access types.

use core::fmt;
use core::ops::{BitAnd, BitOr, BitOrAssign};

/// The kind of memory access being performed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessType {
    /// A data load.
    Read,
    /// A data store.
    Write,
    /// An instruction fetch.
    Execute,
}

impl AccessType {
    /// Returns `true` for instruction fetches.
    pub const fn is_fetch(self) -> bool {
        matches!(self, AccessType::Execute)
    }

    /// Returns `true` for data stores.
    pub const fn is_write(self) -> bool {
        matches!(self, AccessType::Write)
    }
}

/// A read/write/execute permission set.
///
/// Stored as a compact bit set so memory regions and PTEs can carry it
/// cheaply. Combine with `|`, test with [`Perms::allows`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Perms(u8);

impl Perms {
    /// No access at all.
    pub const NONE: Perms = Perms(0);
    /// Read permission.
    pub const R: Perms = Perms(1);
    /// Write permission.
    pub const W: Perms = Perms(2);
    /// Execute permission.
    pub const X: Perms = Perms(4);
    /// Read + write.
    pub const RW: Perms = Perms(1 | 2);
    /// Read + execute (the typical code-segment permission).
    pub const RX: Perms = Perms(1 | 4);
    /// Read + write + execute.
    pub const RWX: Perms = Perms(1 | 2 | 4);

    /// The set as three bits: bit 0 read, bit 1 write, bit 2 execute.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// The set [`Perms::bits`] encodes; bits above the third are
    /// ignored.
    pub const fn from_bits(bits: u8) -> Perms {
        Perms(bits & 7)
    }

    /// Returns `true` if read access is permitted.
    pub const fn read(self) -> bool {
        self.0 & 1 != 0
    }

    /// Returns `true` if write access is permitted.
    pub const fn write(self) -> bool {
        self.0 & 2 != 0
    }

    /// Returns `true` if execute access is permitted.
    pub const fn execute(self) -> bool {
        self.0 & 4 != 0
    }

    /// Returns `true` if the given access type is permitted.
    pub const fn allows(self, access: AccessType) -> bool {
        match access {
            AccessType::Read => self.read(),
            AccessType::Write => self.write(),
            AccessType::Execute => self.execute(),
        }
    }

    /// Returns this permission set with write access removed.
    ///
    /// Used when write-protecting PTEs to enforce copy-on-write over a
    /// shared page-table page.
    pub const fn without_write(self) -> Perms {
        Perms(self.0 & !2)
    }

    /// Returns `true` if no access is permitted at all.
    pub const fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if `self` permits everything `other` permits.
    pub const fn covers(self, other: Perms) -> bool {
        self.0 & other.0 == other.0
    }
}

impl BitOr for Perms {
    type Output = Perms;
    fn bitor(self, rhs: Perms) -> Perms {
        Perms(self.0 | rhs.0)
    }
}

impl BitOrAssign for Perms {
    fn bitor_assign(&mut self, rhs: Perms) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for Perms {
    type Output = Perms;
    fn bitand(self, rhs: Perms) -> Perms {
        Perms(self.0 & rhs.0)
    }
}

impl fmt::Debug for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read() { 'r' } else { '-' },
            if self.write() { 'w' } else { '-' },
            if self.execute() { 'x' } else { '-' },
        )
    }
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allows_matches_bits() {
        assert!(Perms::RX.allows(AccessType::Read));
        assert!(Perms::RX.allows(AccessType::Execute));
        assert!(!Perms::RX.allows(AccessType::Write));
        assert!(Perms::RW.allows(AccessType::Write));
        assert!(!Perms::NONE.allows(AccessType::Read));
    }

    #[test]
    fn bits_round_trip_every_set() {
        for bits in 0u8..8 {
            assert_eq!(Perms::from_bits(bits).bits(), bits);
        }
        assert_eq!(Perms::from_bits(Perms::RX.bits()), Perms::RX);
        assert_eq!(Perms::from_bits(0xF8 | 2), Perms::W);
    }

    #[test]
    fn without_write_strips_only_write() {
        assert_eq!(Perms::RWX.without_write(), Perms::RX);
        assert_eq!(Perms::RW.without_write(), Perms::R);
        assert_eq!(Perms::RX.without_write(), Perms::RX);
    }

    #[test]
    fn covers_is_superset() {
        assert!(Perms::RWX.covers(Perms::RX));
        assert!(!Perms::RX.covers(Perms::RW));
        assert!(Perms::R.covers(Perms::NONE));
    }

    #[test]
    fn display_formats_rwx() {
        assert_eq!(Perms::RX.to_string(), "r-x");
        assert_eq!(Perms::RW.to_string(), "rw-");
        assert_eq!(Perms::NONE.to_string(), "---");
    }
}
