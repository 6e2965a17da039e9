//! TLB model for the Cortex-A9 two-level TLB hierarchy.
//!
//! Each Cortex-A9 core has small micro-TLBs (instruction and data)
//! backed by a unified 128-entry main TLB. The micro-TLBs are flushed
//! on every context switch, which is why the paper's evaluation
//! focuses on the *main* TLB. Main-TLB entries are tagged with an
//! 8-bit ASID unless their *global* bit is set, in which case they
//! match in every address space — the hardware hook the paper uses to
//! share translations of zygote-preloaded shared code. Every entry
//! also carries a *domain* field; at access time the domain is checked
//! against the current DACR, and a mismatch raises a domain fault
//! (distinguishable in the FSR), which the paper's kernel uses to keep
//! non-zygote processes from consuming shared global entries.
//!
//! # Examples
//!
//! One global entry serves every address space; a tagged entry serves
//! only its own:
//!
//! ```
//! use sat_tlb::{MainTlb, TlbEntry, TlbLookup};
//! use sat_types::{Asid, Domain, PageSize, Perms, Pfn, VirtAddr};
//!
//! let mut tlb = MainTlb::new(8);
//! let entry = TlbEntry {
//!     va_base: VirtAddr::new(0x4000_0000),
//!     size: PageSize::Small4K,
//!     asid: None, // global
//!     pfn: Pfn::new(0x123),
//!     perms: Perms::RX,
//!     domain: Domain::ZYGOTE,
//! };
//! tlb.insert(entry, Asid::new(1));
//! // A different process (ASID 2) hits the same entry.
//! assert!(matches!(
//!     tlb.lookup(VirtAddr::new(0x4000_0ABC), Asid::new(2)),
//!     TlbLookup::Hit(_)
//! ));
//! assert_eq!(tlb.stats().cross_asid_hits, 1);
//! ```

#![forbid(unsafe_code)]

pub mod entry;
pub mod index;
pub mod main_tlb;
pub mod micro;
pub mod reference;

pub use entry::TlbEntry;
pub use main_tlb::{MainTlb, TlbLookup, TlbStats};
pub use micro::MicroTlb;
pub use reference::{RefMainTlb, RefMicroTlb};
