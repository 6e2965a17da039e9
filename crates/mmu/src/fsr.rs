//! The ARM Fault Status and Fault Address registers.
//!
//! On a memory abort the ARMv7 MMU latches the cause into the FSR and
//! the faulting virtual address into the FAR. The paper's TLB-sharing
//! protection depends on this being *precise*: the domain-fault
//! handler "checks the FSR \[and\] when it finds that the reason for the
//! exception is a domain fault, it flushes all TLB entries that match
//! the faulting address" (Section 3.2.3). This module provides the
//! short-descriptor FSR encodings for the fault classes the simulator
//! raises, with faithful status-field bit patterns.

use core::fmt;

use sat_types::{Domain, VirtAddr};

/// The fault classes of the ARMv7 short-descriptor FSR that this
/// simulator can raise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultStatus {
    /// Translation fault, section (no valid level-1 descriptor):
    /// FS = 0b00101.
    TranslationSection,
    /// Translation fault, page (no valid level-2 descriptor):
    /// FS = 0b00111.
    TranslationPage,
    /// Domain fault, section: FS = 0b01001.
    DomainSection,
    /// Domain fault, page: FS = 0b01011.
    DomainPage,
    /// Permission fault, section: FS = 0b01101.
    PermissionSection,
    /// Permission fault, page: FS = 0b01111.
    PermissionPage,
}

impl FaultStatus {
    /// The five-bit FS field value (`{FS[4], FS[3:0]}`).
    pub const fn fs(self) -> u32 {
        match self {
            FaultStatus::TranslationSection => 0b00101,
            FaultStatus::TranslationPage => 0b00111,
            FaultStatus::DomainSection => 0b01001,
            FaultStatus::DomainPage => 0b01011,
            FaultStatus::PermissionSection => 0b01101,
            FaultStatus::PermissionPage => 0b01111,
        }
    }

    /// Decodes a five-bit FS field, if it is a fault class the
    /// simulator models.
    pub const fn from_fs(fs: u32) -> Option<FaultStatus> {
        match fs & 0b11111 {
            0b00101 => Some(FaultStatus::TranslationSection),
            0b00111 => Some(FaultStatus::TranslationPage),
            0b01001 => Some(FaultStatus::DomainSection),
            0b01011 => Some(FaultStatus::DomainPage),
            0b01101 => Some(FaultStatus::PermissionSection),
            0b01111 => Some(FaultStatus::PermissionPage),
            _ => None,
        }
    }

    /// Returns `true` for the domain-fault classes — the test the
    /// paper's exception handler performs before flushing stale
    /// global TLB entries.
    pub const fn is_domain_fault(self) -> bool {
        matches!(self, FaultStatus::DomainSection | FaultStatus::DomainPage)
    }

    /// Returns `true` for translation faults (the demand-paging
    /// entry).
    pub const fn is_translation_fault(self) -> bool {
        matches!(
            self,
            FaultStatus::TranslationSection | FaultStatus::TranslationPage
        )
    }
}

/// A latched abort: the (data or prefetch) FSR plus the FAR.
///
/// The data FSR layout in the short-descriptor format:
/// `[12]` ExT, `[11]` WnR, `[10]` `FS[4]`, `[7:4]` domain, `[3:0]`
/// `FS[3:0]`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Fault classification.
    pub status: FaultStatus,
    /// Domain field latched for the faulting access (valid for domain
    /// and some permission faults).
    pub domain: Domain,
    /// The access was a write (WnR).
    pub write: bool,
    /// The Fault Address Register: the faulting virtual address.
    pub far: VirtAddr,
}

impl FaultRecord {
    /// Encodes the FSR register value.
    pub fn fsr(&self) -> u32 {
        let fs = self.status.fs();
        ((self.write as u32) << 11)
            | ((fs >> 4) << 10)
            | ((self.domain.raw() as u32) << 4)
            | (fs & 0b1111)
    }

    /// Decodes an FSR value plus a FAR into a record, if the fault
    /// class is modeled.
    pub fn decode(fsr: u32, far: VirtAddr) -> Option<FaultRecord> {
        let fs = ((fsr >> 10) & 1) << 4 | (fsr & 0b1111);
        Some(FaultRecord {
            status: FaultStatus::from_fs(fs)?,
            domain: Domain::new(((fsr >> 4) & 0xF) as u8),
            write: fsr & (1 << 11) != 0,
            far,
        })
    }
}

impl fmt::Debug for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FaultRecord {{ {:?}, domain {:?}, {} at {} }}",
            self.status,
            self.domain,
            if self.write { "write" } else { "read" },
            self.far,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fs_encodings_match_the_arm_arm() {
        // ARMv7-A short-descriptor FS encodings (DDI 0406C, B3.13).
        assert_eq!(FaultStatus::TranslationSection.fs(), 0b00101);
        assert_eq!(FaultStatus::TranslationPage.fs(), 0b00111);
        assert_eq!(FaultStatus::DomainSection.fs(), 0b01001);
        assert_eq!(FaultStatus::DomainPage.fs(), 0b01011);
        assert_eq!(FaultStatus::PermissionSection.fs(), 0b01101);
        assert_eq!(FaultStatus::PermissionPage.fs(), 0b01111);
    }

    #[test]
    fn record_round_trips_through_register_encoding() {
        for status in [
            FaultStatus::TranslationSection,
            FaultStatus::TranslationPage,
            FaultStatus::DomainSection,
            FaultStatus::DomainPage,
            FaultStatus::PermissionSection,
            FaultStatus::PermissionPage,
        ] {
            for write in [false, true] {
                let rec = FaultRecord {
                    status,
                    domain: Domain::ZYGOTE,
                    write,
                    far: VirtAddr::new(0x4000_1234),
                };
                let back = FaultRecord::decode(rec.fsr(), rec.far).expect("modeled class");
                assert_eq!(back, rec);
            }
        }
    }

    #[test]
    fn handler_dispatch_predicates() {
        assert!(FaultStatus::DomainPage.is_domain_fault());
        assert!(!FaultStatus::DomainPage.is_translation_fault());
        assert!(FaultStatus::TranslationPage.is_translation_fault());
        assert!(!FaultStatus::PermissionPage.is_domain_fault());
    }

    #[test]
    fn unmodeled_fs_decodes_to_none() {
        assert_eq!(FaultStatus::from_fs(0b00001), None); // alignment
        assert_eq!(FaultRecord::decode(0b00001, VirtAddr::new(0)), None);
    }
}
