//! The 32-bit ARM domain protection model.
//!
//! A *domain* is a collection of memory regions. ARMv7's
//! short-descriptor translation scheme supports 16 domains for 4KB and
//! 64KB pages; each first-level PTE carries a 4-bit domain field that
//! its second-level PTEs (and the TLB entries loaded from them)
//! inherit. The Domain Access Control Register (DACR) holds two bits
//! per domain describing the *current process's* rights to that
//! domain: no access, client (permission bits checked), or manager
//! (permission bits overridden).
//!
//! The paper leverages this model to protect globally-shared TLB
//! entries: zygote-preloaded shared code lives in a dedicated *zygote
//! domain* to which only zygote-like processes have client access, so
//! a non-zygote process touching a stale global entry takes a domain
//! fault instead of silently using the wrong translation.

use core::fmt;

/// Number of domains in the 32-bit ARM architecture.
pub const NUM_DOMAINS: usize = 16;

/// A domain identifier (0..16).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Domain(u8);

impl Domain {
    /// The kernel domain, as used by stock Linux/ARM.
    pub const KERNEL: Domain = Domain(0);
    /// The user domain, as used by stock Linux/ARM.
    pub const USER: Domain = Domain(1);
    /// The zygote domain added by the paper for shared code.
    pub const ZYGOTE: Domain = Domain(2);

    /// Creates a domain from its raw id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 16`.
    pub const fn new(id: u8) -> Self {
        assert!(id < NUM_DOMAINS as u8, "domain id out of range");
        Domain(id)
    }

    /// Returns the raw domain id.
    pub const fn raw(self) -> u8 {
        self.0
    }
}

impl fmt::Debug for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Domain::KERNEL => write!(f, "Domain::KERNEL"),
            Domain::USER => write!(f, "Domain::USER"),
            Domain::ZYGOTE => write!(f, "Domain::ZYGOTE"),
            Domain(n) => write!(f, "Domain({n})"),
        }
    }
}

/// A process's access rights to one domain (two bits in the DACR).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DomainAccess {
    /// Any access generates a domain fault.
    #[default]
    NoAccess,
    /// Accesses are checked against the PTE permission bits.
    Client,
    /// Accesses are NOT checked against the PTE permission bits.
    Manager,
}

impl DomainAccess {
    /// Encodes the access as its two-bit DACR field value.
    pub const fn bits(self) -> u32 {
        match self {
            DomainAccess::NoAccess => 0b00,
            DomainAccess::Client => 0b01,
            DomainAccess::Manager => 0b11,
        }
    }

    /// Decodes a two-bit DACR field value.
    ///
    /// The reserved encoding `0b10` decodes as [`DomainAccess::NoAccess`],
    /// matching the architecture's UNPREDICTABLE-but-safe treatment.
    pub const fn from_bits(bits: u32) -> Self {
        match bits & 0b11 {
            0b01 => DomainAccess::Client,
            0b11 => DomainAccess::Manager,
            _ => DomainAccess::NoAccess,
        }
    }
}

/// The Domain Access Control Register: 16 two-bit fields.
///
/// Each process carries a DACR value in its task control block; a
/// context switch loads it into the (simulated) hardware register.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dacr(u32);

impl Default for Dacr {
    fn default() -> Self {
        Dacr::stock_user()
    }
}

impl Dacr {
    /// A DACR granting no access to any domain.
    pub const fn empty() -> Self {
        Dacr(0)
    }

    /// The stock Linux/ARM user-process DACR: client access to the
    /// kernel and user domains, nothing else.
    pub fn stock_user() -> Self {
        let mut d = Dacr::empty();
        d.set(Domain::KERNEL, DomainAccess::Client);
        d.set(Domain::USER, DomainAccess::Client);
        d
    }

    /// The paper's zygote-like DACR: stock access plus client access
    /// to the zygote domain.
    pub fn zygote_like() -> Self {
        let mut d = Dacr::stock_user();
        d.set(Domain::ZYGOTE, DomainAccess::Client);
        d
    }

    /// Returns the raw register value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the access rights for `domain`.
    pub const fn access(self, domain: Domain) -> DomainAccess {
        DomainAccess::from_bits(self.0 >> (domain.raw() as u32 * 2))
    }

    /// Sets the access rights for `domain`.
    pub fn set(&mut self, domain: Domain, access: DomainAccess) {
        let shift = domain.raw() as u32 * 2;
        self.0 = (self.0 & !(0b11 << shift)) | (access.bits() << shift);
    }
}

impl fmt::Debug for Dacr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dacr({:#010x})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get_round_trip() {
        let mut d = Dacr::empty();
        for i in 0..NUM_DOMAINS as u8 {
            d.set(Domain::new(i), DomainAccess::Client);
        }
        for i in 0..NUM_DOMAINS as u8 {
            assert_eq!(d.access(Domain::new(i)), DomainAccess::Client);
        }
        d.set(Domain::new(5), DomainAccess::Manager);
        assert_eq!(d.access(Domain::new(5)), DomainAccess::Manager);
        assert_eq!(d.access(Domain::new(4)), DomainAccess::Client);
        assert_eq!(d.access(Domain::new(6)), DomainAccess::Client);
    }

    #[test]
    fn stock_user_grants_kernel_and_user_only() {
        let d = Dacr::stock_user();
        assert_eq!(d.access(Domain::KERNEL), DomainAccess::Client);
        assert_eq!(d.access(Domain::USER), DomainAccess::Client);
        assert_eq!(d.access(Domain::ZYGOTE), DomainAccess::NoAccess);
    }

    #[test]
    fn zygote_like_adds_zygote_domain() {
        let d = Dacr::zygote_like();
        assert_eq!(d.access(Domain::ZYGOTE), DomainAccess::Client);
        assert_eq!(d.access(Domain::new(3)), DomainAccess::NoAccess);
    }

    #[test]
    fn reserved_encoding_decodes_as_no_access() {
        assert_eq!(DomainAccess::from_bits(0b10), DomainAccess::NoAccess);
    }
}
