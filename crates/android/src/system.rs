//! The simulated Android system: zygote boot, application spawning,
//! and steady-state execution.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sat_core::{Kernel, KernelConfig};
use sat_phys::FileId;
use sat_sim::Machine;
use sat_trace::{
    zygote_preload_pages, AppProfile, Catalog, CodePage, FetchEvent, FetchStream, LibId,
};
use sat_types::{
    AccessType, Perms, Pid, SatError, SatResult, VirtAddr, KERNEL_SPACE_START, PAGE_SHIFT,
    PAGE_SIZE,
};
use sat_vm::MmapRequest;

use crate::layout::{LibraryLayout, LibraryMap};

/// Boot-time sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct BootOptions {
    /// Instruction PTEs the zygote populates during preload (the
    /// paper measured ≈5,900).
    pub preload_pages: u32,
    /// Anonymous regions the zygote creates (ART heaps, caches, ...).
    pub anon_regions: u32,
    /// Pages written in each anonymous region.
    pub anon_pages_each: u32,
    /// Data-segment pages the zygote writes per library (relocation
    /// processing).
    pub data_pages_per_lib: u32,
    /// How many preloaded libraries (largest first) get relocation
    /// writes; the rest are lazily relocated.
    pub data_write_libs: u32,
}

impl BootOptions {
    /// The paper-calibrated sizing: a stock zygote fork copies ≈3,900
    /// PTEs over ≈38 PTPs, and preload populates ≈5,900 file PTEs.
    pub fn paper() -> BootOptions {
        BootOptions {
            preload_pages: 5_900,
            anon_regions: 24,
            anon_pages_each: 160,
            data_pages_per_lib: 1,
            data_write_libs: 32,
        }
    }

    /// A scaled-down sizing for fast unit tests.
    pub fn small() -> BootOptions {
        BootOptions {
            preload_pages: 400,
            anon_regions: 6,
            anon_pages_each: 20,
            data_pages_per_lib: 1,
            data_write_libs: 32,
        }
    }
}

/// A launched application process.
pub struct RunningApp {
    /// Its process id.
    pub pid: Pid,
    /// Index into the suite (selects its libraries and profile).
    pub app_index: usize,
    /// Base of the application's private code image.
    pub private_base: VirtAddr,
    /// Where its non-preloaded libraries were mapped.
    pub other_code: HashMap<LibId, VirtAddr>,
    /// Its generated footprint.
    pub profile: AppProfile,
}

/// Steady-state counters harvested from one application's run
/// (Figures 10-12).
#[derive(Clone, Copy, Debug, Default)]
pub struct SteadyReport {
    /// Page faults on file-backed mappings.
    pub file_faults: u64,
    /// PTPs allocated for the process (fork + faults + unshares).
    pub ptps_allocated: u64,
    /// PTEs copied (fork + unshare) — the Section 4.2.3 cost metric.
    pub ptes_copied: u64,
    /// PTPs currently referenced that are shared with other processes.
    pub ptps_shared_now: usize,
    /// Total PTPs currently referenced.
    pub ptps_total_now: usize,
    /// Unshare operations the process performed.
    pub unshares: u64,
}

/// The booted system.
pub struct AndroidSystem {
    /// The machine (kernel + cores + caches + TLBs).
    pub machine: Machine,
    /// The shared-code universe.
    pub catalog: Catalog,
    /// Preloaded-library placement (inherited by every app).
    pub map: LibraryMap,
    /// The zygote's pid.
    pub zygote: Pid,
    /// Files backing each library.
    pub lib_files: HashMap<LibId, FileId>,
    /// Launched applications.
    pub apps: Vec<RunningApp>,
    /// Base seed for deterministic generation.
    pub seed: u64,
    opts: BootOptions,
    launch_seq: u64,
    /// The code pages the zygote touched during preload, in touch
    /// order ([`zygote_preload_pages`] at `opts.preload_pages`).
    pub(crate) preload: Vec<CodePage>,
}

/// Base address for anonymous zygote regions (ART heaps etc.).
const ANON_BASE: u32 = 0x0800_0000;

/// Base address for per-application private images.
const APP_BASE: u32 = 0x7000_0000;

/// Address-space stride between applications' private regions.
const APP_STRIDE: u32 = 0x0400_0000;

/// The zygote stack location.
const STACK_BASE: u32 = 0xBF00_0000;

impl AndroidSystem {
    /// Boots the system: creates the zygote, preloads the shared
    /// code, and populates its anonymous memory.
    pub fn boot(
        config: KernelConfig,
        layout: LibraryLayout,
        seed: u64,
        app_count: usize,
        opts: BootOptions,
    ) -> SatResult<AndroidSystem> {
        let catalog = Catalog::generate(seed, app_count);
        let mut kernel = Kernel::nexus7(config);

        // Register one file per library (code pages, then data pages).
        let mut lib_files = HashMap::new();
        for (i, lib) in catalog.libs.iter().enumerate() {
            let id = LibId(i as u32);
            let f = kernel.files.register(
                lib.name.clone(),
                (lib.code_pages + lib.data_pages) * PAGE_SIZE,
            );
            lib_files.insert(id, f);
        }

        let zygote = kernel.create_process()?;
        kernel.exec_zygote(zygote)?;

        let preloaded = catalog.zygote_preloaded();
        let map = LibraryMap::place(&catalog, &preloaded, layout);
        let preload = zygote_preload_pages(&catalog, opts.preload_pages);

        let mut machine = Machine::single_core(kernel);
        machine.context_switch(0, zygote)?;

        let mut sys = AndroidSystem {
            machine,
            catalog,
            map,
            zygote,
            lib_files,
            apps: Vec::new(),
            seed,
            opts,
            launch_seq: 0,
            preload,
        };

        // Map every preloaded library's code and data segments.
        for &lib in &preloaded {
            sys.map_library(zygote, lib, None)?;
        }

        // Preload: touch the hot pages, populating ≈5,900 PTEs.
        for &page in &sys.preload {
            let va = sys
                .map
                .code_page_va(page, VirtAddr::new(0))
                .expect("preload pages are library pages");
            sys.machine.access(0, va, AccessType::Execute)?;
        }

        // Relocation processing: write the first data page(s) of the
        // most-used (largest) preloaded libraries; smaller ones are
        // relocated lazily.
        let mut by_size: Vec<LibId> = preloaded.clone();
        by_size.sort_by_key(|id| std::cmp::Reverse(sys.catalog.lib(*id).code_pages));
        by_size.truncate(opts.data_write_libs as usize);
        for lib in by_size {
            let base = sys.map.data_base(lib).expect("preloaded lib mapped");
            let pages = sys.catalog.lib(lib).data_pages.min(opts.data_pages_per_lib);
            for p in 0..pages {
                sys.machine.access(
                    0,
                    VirtAddr::new(base.raw() + p * PAGE_SIZE),
                    AccessType::Write,
                )?;
            }
        }

        // Anonymous memory: ART heaps, caches, JIT areas — scattered
        // regions, each in its own 2MB chunk, all written.
        for r in 0..opts.anon_regions {
            let base = VirtAddr::new(ANON_BASE + r * 0x40_0000);
            let req = MmapRequest::anon(
                opts.anon_pages_each * PAGE_SIZE,
                Perms::RW,
                sat_types::RegionTag::Heap,
                &format!("[anon:dalvik-{r}]"),
            )
            .at(base);
            sys.machine.mmap(0, zygote, &req)?;
            for p in 0..opts.anon_pages_each {
                sys.machine.access(
                    0,
                    VirtAddr::new(base.raw() + p * PAGE_SIZE),
                    AccessType::Write,
                )?;
            }
        }

        // The zygote stack: 16 pages mapped, 7 touched (Table 4).
        let stack = MmapRequest::anon(
            16 * PAGE_SIZE,
            Perms::RW,
            sat_types::RegionTag::Stack,
            "[stack]",
        )
        .at(VirtAddr::new(STACK_BASE));
        sys.machine.mmap(0, zygote, &stack)?;
        for p in 0..7 {
            sys.machine.access(
                0,
                VirtAddr::new(STACK_BASE + p * PAGE_SIZE),
                AccessType::Write,
            )?;
        }
        Ok(sys)
    }

    /// Maps one library's code and data segments into `pid`. For
    /// preloaded libraries the placement comes from the layout map;
    /// for others, `at` gives the code base (data follows the code).
    fn map_library(&mut self, pid: Pid, lib: LibId, at: Option<VirtAddr>) -> SatResult<VirtAddr> {
        let spec = self.catalog.lib(lib).clone();
        let file = *self.lib_files.get(&lib).ok_or(SatError::NoSuchFile)?;
        let (code_base, data_base) = match at {
            None => (
                self.map.code_base(lib).ok_or(SatError::InvalidArgument)?,
                self.map.data_base(lib).ok_or(SatError::InvalidArgument)?,
            ),
            Some(base) => (
                base,
                VirtAddr::new(base.raw() + (spec.code_pages << PAGE_SHIFT)),
            ),
        };
        let code = MmapRequest::file(
            spec.code_pages * PAGE_SIZE,
            Perms::RX,
            file,
            0,
            spec.category,
            &spec.name,
        )
        .at(code_base);
        self.machine.mmap(0, pid, &code)?;
        let data = MmapRequest::file(
            spec.data_pages * PAGE_SIZE,
            Perms::RW,
            file,
            spec.code_pages,
            spec.data_tag(),
            &spec.name,
        )
        .at(data_base);
        self.machine.mmap(0, pid, &data)?;
        Ok(code_base)
    }

    /// Forks an application process from the zygote and loads its
    /// application-specific code (its own image plus non-preloaded
    /// libraries). Returns the index into [`AndroidSystem::apps`] and
    /// the fork outcome.
    pub fn spawn_app(
        &mut self,
        profile: AppProfile,
    ) -> SatResult<(usize, sat_core::ForkOutcome, u64)> {
        let (outcome, fork_cycles) = self.machine.fork(0, self.zygote)?;
        self.machine.context_switch(0, outcome.child)?;
        let slot = self.attach_app(outcome.child, profile)?;
        Ok((slot, outcome, fork_cycles))
    }

    /// Loads application-specific code (non-preloaded libraries plus
    /// the app's own AOT image) into an already-forked zygote child
    /// and registers it as a running app. In the paper's launch
    /// timeline this happens *after* the measured launch window.
    pub fn attach_app(&mut self, pid: Pid, profile: AppProfile) -> SatResult<usize> {
        let app_index = profile.app_index;
        self.machine.context_switch(0, pid)?;

        // Load application-specific code at the app's private area.
        let slot = self.apps.len() as u32;
        let mut cursor = APP_BASE + slot * APP_STRIDE;
        let mut other_code = HashMap::new();
        let other_libs: Vec<LibId> = self.catalog.other_per_app[app_index].clone();
        for lib in other_libs {
            let base = self.map_library(pid, lib, Some(VirtAddr::new(cursor)))?;
            other_code.insert(lib, base);
            let spec = self.catalog.lib(lib);
            cursor = base.raw() + ((spec.code_pages + spec.data_pages) << PAGE_SHIFT) + PAGE_SIZE;
        }
        // The app's own AOT-compiled image (private code).
        let private_pages = profile
            .pages
            .iter()
            .filter(|(p, _)| matches!(p, CodePage::Private { .. }))
            .count()
            .max(1) as u32;
        cursor = (cursor + PAGE_SIZE - 1) & !(PAGE_SIZE - 1);
        let private_base = VirtAddr::new(cursor);
        let own_file = self
            .machine
            .kernel
            .files
            .register(format!("app{app_index}.oat"), private_pages * PAGE_SIZE);
        let own = MmapRequest::file(
            private_pages * PAGE_SIZE,
            Perms::RX,
            own_file,
            0,
            sat_types::RegionTag::AppCode,
            &format!("app{app_index}.oat"),
        )
        .at(private_base);
        self.machine.mmap(0, pid, &own)?;

        self.apps.push(RunningApp {
            pid,
            app_index,
            private_base,
            other_code,
            profile,
        });
        Ok(self.apps.len() - 1)
    }

    /// Resolves a code page to a virtual address for app `slot`.
    pub fn resolve(&self, slot: usize, page: CodePage) -> VirtAddr {
        let app = &self.apps[slot];
        match page {
            CodePage::Lib { lib, page } => {
                if let Some(base) = self.map.code_base(lib) {
                    VirtAddr::new(base.raw() + (page << PAGE_SHIFT))
                } else if let Some(base) = app.other_code.get(&lib) {
                    VirtAddr::new(base.raw() + (page << PAGE_SHIFT))
                } else {
                    // A library of another app's profile; should not
                    // be fetched by this app.
                    panic!("app {slot} fetched unmapped {lib:?}");
                }
            }
            CodePage::Private { page } => {
                VirtAddr::new(app.private_base.raw() + (page << PAGE_SHIFT))
            }
        }
    }

    /// Runs `events` instruction fetches of app `slot`'s steady-state
    /// workload, with interspersed heap and library-data writes (which
    /// exercise the unsharing paths).
    pub fn run_steady(&mut self, slot: usize, events: usize) -> SatResult<()> {
        let app = &self.apps[slot];
        let pid = app.pid;
        let app_index = app.app_index;
        self.machine.context_switch(0, pid)?;

        // A private heap for the app.
        let heap_base = VirtAddr::new(0x3000_0000 + (slot as u32) * 0x0080_0000);
        let heap_pages: u32 = 256;
        let req = MmapRequest::anon(
            heap_pages * PAGE_SIZE,
            Perms::RW,
            sat_types::RegionTag::Heap,
            "[anon:app-heap]",
        )
        .at(heap_base);
        self.machine.mmap(0, pid, &req)?;

        // A content file the app reads through mmap (web cache, PDF,
        // video, audio, documents — never shared with anyone). I/O
        // heavy applications (Table 1's high kernel fraction) read
        // proportionally more.
        let content_pages: u32 = 4_096;
        let content_file = self.machine.kernel.files.register(
            format!("content-{app_index}.dat"),
            content_pages * PAGE_SIZE,
        );
        let content_base = VirtAddr::new(0x1000_0000 + (slot as u32) * 0x0200_0000);
        let content_req = MmapRequest::file(
            content_pages * PAGE_SIZE,
            Perms::R,
            content_file,
            0,
            sat_types::RegionTag::AppData,
            &format!("content-{app_index}.dat"),
        )
        .at(content_base);
        self.machine.mmap(0, pid, &content_req)?;
        let kernel_pct = self.apps[slot].profile.spec.kernel_fetch_pct;
        let content_every = (28.0 - kernel_pct / 2.0).max(4.0) as usize;
        let mut content_cursor = 0u32;

        // Data pages the app will write over its run: library
        // initialization reaches the dependency closure — most of the
        // preloaded libraries, not just those whose code the app
        // executes heavily.
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xDA7A ^ (app_index as u64));
        let used_libs: Vec<LibId> = self.catalog.zygote_preloaded();

        let mut stream = FetchStream::new(&self.apps[slot].profile, self.seed ^ (slot as u64));
        let mut heap_cursor = 0u32;
        for i in 0..events {
            let ev = stream.next_event();
            let va = match ev {
                FetchEvent::User { page, line } => {
                    let base = self.resolve(slot, page);
                    VirtAddr::new(base.raw() + line * 32)
                }
                FetchEvent::Kernel { page, line } => {
                    VirtAddr::new(KERNEL_SPACE_START + page * PAGE_SIZE + line * 32)
                }
            };
            self.machine.access(0, va, AccessType::Execute)?;

            // Every 64 fetches: a heap write.
            if i % 64 == 63 {
                let va = VirtAddr::new(heap_base.raw() + (heap_cursor % heap_pages) * PAGE_SIZE);
                heap_cursor += 1;
                self.machine.access(0, va, AccessType::Write)?;
            }
            // Writes to the inherited zygote heap (ART allocates into
            // the heap the zygote created): classic COW traffic that
            // unshares the anonymous chunks in any layout.
            if i % 96 == 95 {
                let region = ((i / 96) as u32) % self.opts.anon_regions;
                let page = ((i / 96) as u32 / self.opts.anon_regions) % self.opts.anon_pages_each;
                let va = VirtAddr::new(ANON_BASE + region * 0x40_0000 + page * PAGE_SIZE);
                self.machine.access(0, va, AccessType::Write)?;
            }
            // Content I/O: a fresh page of the app's own data file.
            // These faults are unshareable — they dilute the paper's
            // fault-reduction percentage to its measured ~38%.
            if i % content_every == content_every - 1 {
                let va = VirtAddr::new(
                    content_base.raw() + (content_cursor % content_pages) * PAGE_SIZE,
                );
                content_cursor += 1;
                self.machine.access(0, va, AccessType::Read)?;
            }
            // Every 64 fetches (offset from the heap writes so the
            // two event streams stay independent): a library-data
            // write (a global variable update) — the event that costs
            // a shared PTP. Over a long run most libraries in the
            // dependency closure get initialized.
            if i % 64 == 31 && !used_libs.is_empty() {
                let lib = used_libs[(i / 64) % used_libs.len()];
                if let Some(base) = self.map.data_base(lib) {
                    let off = rng.gen_range(0..self.catalog.lib(lib).data_pages.max(1));
                    self.machine.access(
                        0,
                        VirtAddr::new(base.raw() + off * PAGE_SIZE),
                        AccessType::Write,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Harvests the steady-state counters for app `slot`.
    pub fn steady_report(&self, slot: usize) -> SatResult<SteadyReport> {
        let pid = self.apps[slot].pid;
        let mm = self.machine.kernel.mm(pid)?;
        let (shared, total) = self.machine.kernel.ptp_share_snapshot(pid)?;
        Ok(SteadyReport {
            file_faults: mm.counters.faults_file,
            ptps_allocated: mm.counters.ptps_allocated,
            ptes_copied: mm.counters.ptes_copied_total(),
            ptps_shared_now: shared,
            ptps_total_now: total,
            unshares: mm.counters.ptps_unshared,
        })
    }

    /// The boot options used.
    pub fn opts(&self) -> BootOptions {
        self.opts
    }

    /// Returns the next launch sequence number (each launch gets a
    /// slightly different tail of its code set).
    pub fn next_launch_seq(&mut self) -> u64 {
        let s = self.launch_seq;
        self.launch_seq += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_trace::app_specs;

    fn boot(config: KernelConfig) -> AndroidSystem {
        AndroidSystem::boot(config, LibraryLayout::Original, 1, 2, BootOptions::small()).unwrap()
    }

    fn profile(sys: &AndroidSystem, i: usize) -> AppProfile {
        let mut spec = app_specs()[i].clone();
        // Shrink footprints for test speed.
        spec.footprint_pages = 300;
        AppProfile::generate(&sys.catalog, &spec, i, sys.seed)
    }

    #[test]
    fn boot_populates_zygote() {
        let sys = boot(KernelConfig::stock());
        let mm = sys.machine.kernel.mm(sys.zygote).unwrap();
        assert!(mm.is_zygote);
        // Preload touched file pages and anonymous pages.
        assert!(mm.counters.faults_file >= 400);
        assert!(mm.counters.ptps_allocated > 10);
        assert!(mm.vma_count() > 150); // 93 libs × 2 segments + anon
    }

    #[test]
    fn spawn_app_inherits_shared_code() {
        let mut sys = boot(KernelConfig::shared_ptp());
        let p = profile(&sys, 0);
        let (slot, outcome, _cycles) = sys.spawn_app(p).unwrap();
        assert!(outcome.ptps_shared > 5);
        assert_eq!(outcome.ptps_allocated, 1); // the stack chunk
        let report = sys.steady_report(slot).unwrap();
        assert!(report.ptps_shared_now > 0);
    }

    #[test]
    fn stock_spawn_copies_instead_of_sharing() {
        let mut sys = boot(KernelConfig::stock());
        let p = profile(&sys, 0);
        let (_slot, outcome, _cycles) = sys.spawn_app(p).unwrap();
        assert_eq!(outcome.ptps_shared, 0);
        assert!(outcome.ptes_copied > 50);
    }

    #[test]
    fn steady_run_reduces_file_faults_with_sharing() {
        let mut stock = boot(KernelConfig::stock());
        let mut shared = boot(KernelConfig::shared_ptp());
        let (s1, _, _) = {
            let p = profile(&stock, 0);
            stock.spawn_app(p).unwrap()
        };
        let (s2, _, _) = {
            let p = profile(&shared, 0);
            shared.spawn_app(p).unwrap()
        };
        stock.run_steady(s1, 3000).unwrap();
        shared.run_steady(s2, 3000).unwrap();
        let r1 = stock.steady_report(s1).unwrap();
        let r2 = shared.steady_report(s2).unwrap();
        assert!(
            r2.file_faults < r1.file_faults,
            "shared {} vs stock {}",
            r2.file_faults,
            r1.file_faults
        );
    }

    #[test]
    fn data_writes_unshare_ptps_over_time() {
        let mut sys = boot(KernelConfig::shared_ptp());
        let p = profile(&sys, 0);
        let (slot, _, _) = sys.spawn_app(p).unwrap();
        sys.run_steady(slot, 4000).unwrap();
        let r = sys.steady_report(slot).unwrap();
        assert!(r.unshares > 0, "no unshares after data writes");
    }
}
