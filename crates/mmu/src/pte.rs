//! Second-level page table entries: the hardware descriptor and the
//! parallel Linux "software" entry.

use sat_types::{PageSize, Perms, Pfn};

/// A hardware second-level PTE (small or large page descriptor).
///
/// Virtually all bits of a level-2 entry are reserved for the MMU. The
/// fields modeled here are the ones that affect translation behaviour:
/// the frame number, the access permissions (simplified to a
/// user-writable / user-readable / execute-never triple), the nG
/// (not-global) bit — exposed inverted as [`HwPte::global`] — and the
/// page size. [`HwPte::encode`]/[`HwPte::decode`] give the faithful
/// ARMv7 short-descriptor bit layout.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HwPte {
    /// Physical frame mapped (base frame for 64KB pages).
    pub pfn: Pfn,
    /// Page size; [`PageSize::Small4K`] or [`PageSize::Large64K`].
    pub size: PageSize,
    /// User-mode access permissions.
    pub perms: Perms,
    /// Global bit (inverse of the hardware nG bit): the translation is
    /// valid in every address space, regardless of ASID.
    pub global: bool,
}

impl HwPte {
    /// Creates a small-page hardware PTE.
    pub fn small(pfn: Pfn, perms: Perms, global: bool) -> Self {
        HwPte {
            pfn,
            size: PageSize::Small4K,
            perms,
            global,
        }
    }

    /// Creates a large-page (64KB) hardware PTE. `pfn` is the first of
    /// the sixteen frames.
    pub fn large(pfn: Pfn, perms: Perms, global: bool) -> Self {
        HwPte {
            pfn,
            size: PageSize::Large64K,
            perms,
            global,
        }
    }

    /// Returns the 4KB frame referenced by the copy of this
    /// descriptor stored at second-level slot `l2_idx`.
    ///
    /// A small page references its own frame; a 64KB large page is
    /// sixteen replicated descriptors whose slot at index `i` within
    /// the sixteen-slot group covers frame `base + i`.
    pub fn frame_for_slot(&self, l2_idx: usize) -> Pfn {
        match self.size {
            PageSize::Small4K => self.pfn,
            PageSize::Large64K => Pfn::new(self.pfn.raw() + (l2_idx as u32 % 16)),
            _ => unreachable!("level-2 slots are 4KB or 64KB"),
        }
    }

    /// Returns a copy with write permission removed, as done when
    /// COW-protecting a page or write-protecting a shared PTP.
    pub fn write_protected(self) -> Self {
        HwPte {
            perms: self.perms.without_write(),
            ..self
        }
    }

    /// Encodes the entry as an ARMv7 short-descriptor second-level
    /// descriptor word.
    ///
    /// Small page layout: `[31:12]` base, `[11]` nG, `[9]` AP2 (the
    /// read-only bit), `[5:4]` AP1:0, `[1]` 1, `[0]` XN.
    /// Large page layout: `[31:16]` base, `[15]` XN, `[11]` nG, `[9]`
    /// AP2, `[5:4]` AP1:0, `[1:0] = 0b01`.
    pub fn encode(self) -> u32 {
        let ng = !self.global as u32;
        // AP model: AP[1] = 1 grants unprivileged access; AP[2] = 1
        // makes the mapping read-only.
        let ap10: u32 = if self.perms.read() || self.perms.execute() || self.perms.write() {
            0b11
        } else {
            0b01
        };
        let ap2 = !self.perms.write() as u32;
        let xn = !self.perms.execute() as u32;
        match self.size {
            PageSize::Small4K => {
                (self.pfn.raw() << 12) | (ng << 11) | (ap2 << 9) | (ap10 << 4) | 0b10 | xn
            }
            PageSize::Large64K => {
                ((self.pfn.raw() << 12) & 0xFFFF_0000)
                    | (xn << 15)
                    | (ng << 11)
                    | (ap2 << 9)
                    | (ap10 << 4)
                    | 0b01
            }
            _ => unreachable!("level-2 descriptors are 4KB or 64KB only"),
        }
    }

    /// Decodes an ARMv7 second-level descriptor word; returns `None`
    /// for a fault (invalid) descriptor.
    pub fn decode(word: u32) -> Option<HwPte> {
        let ty = word & 0b11;
        if ty == 0 {
            return None;
        }
        let (size, pfn, xn) = if ty == 0b01 {
            (
                PageSize::Large64K,
                Pfn::new((word & 0xFFFF_0000) >> 12),
                word & (1 << 15) != 0,
            )
        } else {
            (PageSize::Small4K, Pfn::new(word >> 12), word & 1 != 0)
        };
        let ng = word & (1 << 11) != 0;
        let ap2 = word & (1 << 9) != 0;
        let ap10 = (word >> 4) & 0b11;
        let mut perms = Perms::NONE;
        if ap10 & 0b10 != 0 {
            perms |= Perms::R;
            if !ap2 {
                perms |= Perms::W;
            }
            if !xn {
                perms |= Perms::X;
            }
        }
        Some(HwPte {
            pfn,
            size,
            perms,
            global: !ng,
        })
    }
}

/// The parallel Linux "software" PTE.
///
/// ARM level-2 entries have neither a referenced nor a dirty bit, so
/// Linux keeps a shadow entry per hardware entry holding the flags the
/// VM system requires. The simulator also records here whether the
/// *mapping* (as opposed to the current hardware permission) allows
/// writing, which is what distinguishes a COW fault from a genuine
/// protection violation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SwPte {
    /// Software "young"/referenced bit, set on first access.
    pub young: bool,
    /// Software dirty bit, set when a write is performed.
    pub dirty: bool,
    /// The mapping logically permits writes (the hardware entry may
    /// still be write-protected for COW or PTP sharing).
    pub writable: bool,
    /// The page belongs to a MAP_SHARED mapping (writes go to the
    /// shared frame rather than triggering COW).
    pub shared: bool,
    /// The page is file-backed (its frame lives in the page cache).
    pub file_backed: bool,
}

impl SwPte {
    /// Packs the flags into the five bits the PTP's slot word keeps
    /// them in (bit 0 young, 1 dirty, 2 writable, 3 shared, 4
    /// file-backed).
    pub fn pack(self) -> u8 {
        (self.young as u8)
            | (self.dirty as u8) << 1
            | (self.writable as u8) << 2
            | (self.shared as u8) << 3
            | (self.file_backed as u8) << 4
    }

    /// Unpacks the low five bits of `b`, as written by
    /// [`SwPte::pack`].
    pub fn unpack(b: u8) -> SwPte {
        SwPte {
            young: b & 1 != 0,
            dirty: b & 2 != 0,
            writable: b & 4 != 0,
            shared: b & 8 != 0,
            file_backed: b & 16 != 0,
        }
    }

    /// Software flags for a fresh anonymous private mapping.
    pub fn anon(writable: bool) -> Self {
        SwPte {
            writable,
            ..SwPte::default()
        }
    }

    /// Software flags for a file-backed mapping.
    pub fn file(writable: bool, shared: bool) -> Self {
        SwPte {
            writable,
            shared,
            file_backed: true,
            ..SwPte::default()
        }
    }
}

/// A populated second-level slot: the hardware descriptor plus its
/// Linux shadow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PteSlot {
    /// The hardware descriptor.
    pub hw: HwPte,
    /// The Linux software entry.
    pub sw: SwPte,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(pte: HwPte) {
        let word = pte.encode();
        let back = HwPte::decode(word).expect("valid descriptor");
        assert_eq!(back, pte, "round trip through {word:#010x}");
    }

    #[test]
    fn small_page_encode_decode_round_trip() {
        for perms in [Perms::R, Perms::RW, Perms::RX, Perms::RWX] {
            for global in [false, true] {
                round_trip(HwPte::small(Pfn::new(0x12345), perms, global));
            }
        }
    }

    #[test]
    fn large_page_encode_decode_round_trip() {
        // Large-page base frames are 16-frame aligned.
        for perms in [Perms::R, Perms::RW, Perms::RX] {
            round_trip(HwPte::large(Pfn::new(0x5430), perms, false));
        }
    }

    #[test]
    fn fault_descriptor_decodes_to_none() {
        assert_eq!(HwPte::decode(0), None);
        assert_eq!(HwPte::decode(0xFFFF_F000), None); // type bits 00
    }

    #[test]
    fn sw_pte_pack_round_trips_every_flag_combination() {
        for bits in 0u8..32 {
            let sw = SwPte::unpack(bits);
            assert_eq!(sw.pack(), bits);
        }
        let sw = SwPte::file(true, false);
        assert_eq!(SwPte::unpack(sw.pack()), sw);
    }

    #[test]
    fn write_protected_clears_write_only() {
        let pte = HwPte::small(Pfn::new(1), Perms::RWX, true);
        let wp = pte.write_protected();
        assert_eq!(wp.perms, Perms::RX);
        assert!(wp.global);
        assert_eq!(wp.pfn, pte.pfn);
    }

    #[test]
    fn ng_bit_is_inverse_of_global() {
        let g = HwPte::small(Pfn::new(2), Perms::RX, true).encode();
        let ng = HwPte::small(Pfn::new(2), Perms::RX, false).encode();
        assert_eq!(g & (1 << 11), 0);
        assert_ne!(ng & (1 << 11), 0);
    }

    #[test]
    fn small_page_type_bits() {
        let x = HwPte::small(Pfn::new(3), Perms::RX, false).encode();
        assert_eq!(x & 0b11, 0b10); // small page, XN clear
        let nx = HwPte::small(Pfn::new(3), Perms::R, false).encode();
        assert_eq!(nx & 0b11, 0b11); // small page, XN set
        let l = HwPte::large(Pfn::new(16), Perms::R, false).encode();
        assert_eq!(l & 0b11, 0b01);
    }
}
