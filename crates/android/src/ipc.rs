//! The binder IPC microbenchmark (Section 4.2.4 / Figure 13).
//!
//! A server process offers a service; a client binds to it and
//! invokes its API in a tight loop. Both are forked from the zygote
//! and both execute the zygote-preloaded `libbinder.so` intensively,
//! so their translations for it are identical — the perfect target
//! for shared (global) TLB entries. Client and server are pinned to
//! one core (the paper uses `cpuset`), so every call is two context
//! switches on that core.
//!
//! The combined instruction working set (binder library + each side's
//! private code + the kernel binder path) exceeds the 128-entry main
//! TLB, so under the stock kernel the two processes' duplicate entries
//! evict each other; with the global bit one set of binder entries
//! serves both.

use sat_types::{AccessType, Perms, Pid, SatResult, VirtAddr, PAGE_SIZE};
use sat_vm::MmapRequest;

use crate::launch::{core0_cycles, phase_span};
use crate::system::AndroidSystem;

/// Sizing for the microbenchmark.
#[derive(Clone, Copy, Debug)]
pub struct BinderOptions {
    /// API invocations (the paper uses 100,000).
    pub iterations: usize,
    /// Pages of `libbinder` code both sides execute.
    pub binder_pages: u32,
    /// Pages of client-private code.
    pub client_pages: u32,
    /// Pages of server-private code.
    pub server_pages: u32,
    /// Pages each side walks through per call.
    pub pages_per_call: u32,
}

impl BinderOptions {
    /// Paper-like sizing (scaled iteration count; the shape of the
    /// result is iteration-independent once the TLB reaches steady
    /// state).
    pub fn paper() -> BinderOptions {
        BinderOptions {
            iterations: 4_000,
            binder_pages: 20,
            client_pages: 48,
            server_pages: 104,
            pages_per_call: 12,
        }
    }

    /// Small sizing for tests.
    pub fn small() -> BinderOptions {
        BinderOptions {
            iterations: 400,
            ..BinderOptions::paper()
        }
    }
}

/// Per-side measurements (Figure 13).
#[derive(Clone, Copy, Debug, Default)]
pub struct BinderReport {
    /// Client instruction main-TLB stall cycles.
    pub client_tlb_stall: u64,
    /// Server instruction main-TLB stall cycles.
    pub server_tlb_stall: u64,
    /// Client cycles.
    pub client_cycles: u64,
    /// Server cycles.
    pub server_cycles: u64,
    /// Client file-backed page faults.
    pub client_file_faults: u64,
    /// Main-TLB cross-address-space hits (shared-entry reuse).
    pub cross_asid_hits: u64,
    /// Iterations executed.
    pub iterations: usize,
}

/// Runs the microbenchmark on a freshly booted system. Returns the
/// per-side TLB and cycle measurements.
pub fn run_binder_benchmark(
    sys: &mut AndroidSystem,
    opts: &BinderOptions,
) -> SatResult<BinderReport> {
    // Fork server and client from the zygote.
    let (server_o, _) = sys.machine.fork(0, sys.zygote)?;
    let server = server_o.child;
    let (client_o, _) = sys.machine.fork(0, sys.zygote)?;
    let client = client_o.child;

    // `libbinder`: the first preloaded native library with enough
    // code. Both sides inherited its mapping from the zygote.
    let binder_lib = *sys
        .catalog
        .zygote_native
        .iter()
        .find(|id| sys.catalog.lib(**id).code_pages >= opts.binder_pages)
        .expect("catalog has a large enough library for libbinder");
    let binder_base = sys.map.code_base(binder_lib).expect("binder lib mapped");

    // Private code images, mapped at distinct addresses per side.
    let client_base = map_private(sys, client, "binder-client", opts.client_pages, 0xB000_0000)?;
    let server_base = map_private(sys, server, "binder-server", opts.server_pages, 0xB100_0000)?;

    let mut report = BinderReport {
        iterations: opts.iterations,
        ..BinderReport::default()
    };

    // The client's fault count is measured from before warm-up: PTE
    // inheritance through shared PTPs shows up as eliminated warm-up
    // faults (the paper's 54 → 14).
    let faults0 = sys.machine.kernel.mm(client)?.counters.faults_file;

    // Warm-up: the server starts first and publishes its service (the
    // client binds to an *existing* service), so the server's pass
    // populates the binder PTEs that the client — under shared PTPs —
    // then inherits without faulting.
    let warmup0 = core0_cycles(sys);
    let warmup_span = phase_span(sys, client, "ipc.warmup");
    sys.machine.context_switch(0, server)?;
    touch_range(sys, binder_base, opts.binder_pages)?;
    touch_range(sys, server_base, opts.server_pages)?;
    sys.machine.context_switch(0, client)?;
    touch_range(sys, binder_base, opts.binder_pages)?;
    touch_range(sys, client_base, opts.client_pages)?;

    warmup_span.close(core0_cycles(sys) - warmup0, sat_obs::SpanUnit::Cycles);

    let cross0 = sys.machine.cores[0].main_tlb.stats().cross_asid_hits;
    // One span per side summarizing the whole iteration loop (per-call
    // spans would dominate the ring at 100k iterations). Client and
    // server spans overlap but live on distinct pids, so each side's
    // begin/end stack still pairs cleanly.
    let client_span = phase_span(sys, client, "ipc.client");
    let server_span = phase_span(sys, server, "ipc.server");

    let mut client_cursor = 0u32;
    let mut server_cursor = 0u32;
    for _ in 0..opts.iterations {
        // Client side: marshal the call through libbinder plus its own
        // code, then trap into the kernel binder path.
        sys.machine.context_switch(0, client)?;
        let c0 = snapshot(sys);
        walk_pages(
            sys,
            binder_base,
            opts.binder_pages,
            &mut client_cursor,
            opts.pages_per_call,
        )?;
        walk_pages(
            sys,
            client_base,
            opts.client_pages,
            &mut client_cursor,
            opts.pages_per_call / 2,
        )?;
        sys.machine
            .run_kernel_lines(0, sat_sim::machine::BINDER_PATH_PAGE, 120)?;
        let c1 = snapshot(sys);
        report.client_tlb_stall += c1.0 - c0.0;
        report.client_cycles += c1.1 - c0.1;

        // Server side: unmarshal, execute the API, reply. The server
        // spends most of its instructions in its own service code and
        // proportionally less in libbinder than the client does, so
        // TLB-entry sharing helps it less (the paper's asymmetric 36%
        // vs 19%).
        sys.machine.context_switch(0, server)?;
        let s0 = snapshot(sys);
        walk_pages(
            sys,
            binder_base,
            opts.binder_pages,
            &mut server_cursor,
            opts.pages_per_call / 2,
        )?;
        walk_pages(
            sys,
            server_base,
            opts.server_pages,
            &mut server_cursor,
            opts.pages_per_call,
        )?;
        sys.machine
            .run_kernel_lines(0, sat_sim::machine::BINDER_PATH_PAGE, 100)?;
        let s1 = snapshot(sys);
        report.server_tlb_stall += s1.0 - s0.0;
        report.server_cycles += s1.1 - s0.1;
    }

    report.client_file_faults = sys.machine.kernel.mm(client)?.counters.faults_file - faults0;
    report.cross_asid_hits = sys.machine.cores[0].main_tlb.stats().cross_asid_hits - cross0;
    server_span.close(report.server_cycles, sat_obs::SpanUnit::Cycles);
    client_span.close(report.client_cycles, sat_obs::SpanUnit::Cycles);
    Ok(report)
}

fn snapshot(sys: &AndroidSystem) -> (u64, u64) {
    let s = sys.machine.cores[0].stats;
    (s.inst_main_tlb_stall_cycles, s.cycles)
}

/// Kernel binder lines a served request crosses on ingress (dispatch
/// into the server process). Matches the microbenchmark's client→
/// kernel trap above.
pub const REQUEST_INGRESS_LINES: u32 = 120;

/// Kernel binder lines on egress (marshalling the reply out).
pub const REQUEST_EGRESS_LINES: u32 = 100;

/// Runs the kernel binder ingress path for an accepted request on
/// `core`, announcing the flow's service start. The `FlowBegin` is
/// emitted *before* the kernel lines run so every cycle of binder
/// dispatch falls inside the request's serviced window; the caller
/// must already have bound `flow` to `pid` (the ingress lines charge
/// to whatever flow is active on the core).
pub fn request_ingress(
    sys: &mut AndroidSystem,
    core: usize,
    pid: Pid,
    flow: u32,
) -> SatResult<u64> {
    if sat_obs::flow_tracing() {
        sat_obs::emit(
            sat_obs::Subsystem::Android,
            pid.raw(),
            0,
            sat_obs::Payload::FlowBegin { flow },
        );
    }
    sys.machine.run_kernel_lines(
        core,
        sat_sim::machine::BINDER_PATH_PAGE,
        REQUEST_INGRESS_LINES,
    )
}

/// Runs the kernel binder egress (reply) path for a completing
/// request on `core` and closes the flow: emits `FlowEnd` carrying
/// the request's wall time in `core` cycles since `arrived_at` —
/// measured *after* the reply lines, so the egress cost is inside the
/// wall. Returns that wall; the caller still owns unbinding the flow.
pub fn request_egress(
    sys: &mut AndroidSystem,
    core: usize,
    pid: Pid,
    flow: u32,
    arrived_at: u64,
) -> SatResult<u64> {
    sys.machine.run_kernel_lines(
        core,
        sat_sim::machine::BINDER_PATH_PAGE,
        REQUEST_EGRESS_LINES,
    )?;
    let wall = sys.machine.cores[core].stats.cycles - arrived_at;
    if sat_obs::flow_tracing() {
        sat_obs::emit(
            sat_obs::Subsystem::Android,
            pid.raw(),
            0,
            sat_obs::Payload::FlowEnd { flow, wall },
        );
    }
    Ok(wall)
}

fn map_private(
    sys: &mut AndroidSystem,
    pid: Pid,
    name: &str,
    pages: u32,
    at: u32,
) -> SatResult<VirtAddr> {
    let file = sys
        .machine
        .kernel
        .files
        .register(name.to_string(), pages * PAGE_SIZE);
    let req = MmapRequest::file(
        pages * PAGE_SIZE,
        Perms::RX,
        file,
        0,
        sat_types::RegionTag::AppCode,
        name,
    )
    .at(VirtAddr::new(at));
    sys.machine.mmap(0, pid, &req)
}

fn touch_range(sys: &mut AndroidSystem, base: VirtAddr, pages: u32) -> SatResult<()> {
    for p in 0..pages {
        sys.machine.access(
            0,
            VirtAddr::new(base.raw() + p * PAGE_SIZE),
            AccessType::Execute,
        )?;
    }
    Ok(())
}

/// Executes `count` pages of the working set starting from a rotating
/// cursor, two lines per page.
fn walk_pages(
    sys: &mut AndroidSystem,
    base: VirtAddr,
    pages: u32,
    cursor: &mut u32,
    count: u32,
) -> SatResult<()> {
    for _ in 0..count {
        let p = *cursor % pages;
        *cursor += 1;
        let va = VirtAddr::new(base.raw() + p * PAGE_SIZE);
        sys.machine.access(0, va, AccessType::Execute)?;
        sys.machine
            .access(0, VirtAddr::new(va.raw() + 64), AccessType::Execute)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LibraryLayout;
    use crate::system::{AndroidSystem, BootOptions};
    use sat_core::KernelConfig;

    fn run(config: KernelConfig) -> BinderReport {
        let mut sys =
            AndroidSystem::boot(config, LibraryLayout::Original, 1, 1, BootOptions::small())
                .unwrap();
        run_binder_benchmark(&mut sys, &BinderOptions::small()).unwrap()
    }

    #[test]
    fn tlb_sharing_reduces_instruction_tlb_stalls() {
        let stock = run(KernelConfig::stock());
        let shared = run(KernelConfig::shared_ptp_tlb());
        assert!(
            shared.client_tlb_stall < stock.client_tlb_stall,
            "client: shared {} vs stock {}",
            shared.client_tlb_stall,
            stock.client_tlb_stall
        );
        assert!(
            shared.server_tlb_stall < stock.server_tlb_stall,
            "server: shared {} vs stock {}",
            shared.server_tlb_stall,
            stock.server_tlb_stall
        );
        assert!(shared.cross_asid_hits > 0);
        assert_eq!(stock.cross_asid_hits, 0);
    }

    #[test]
    fn disabling_asids_makes_tlb_stalls_worse() {
        let stock = run(KernelConfig::stock());
        let no_asid = run(KernelConfig::stock().without_asid());
        assert!(
            no_asid.client_tlb_stall > stock.client_tlb_stall,
            "no-asid client {} vs stock {}",
            no_asid.client_tlb_stall,
            stock.client_tlb_stall
        );
        assert!(no_asid.server_tlb_stall > stock.server_tlb_stall);
    }

    #[test]
    fn shared_ptp_alone_reduces_client_faults_not_tlb() {
        let stock = run(KernelConfig::stock());
        let ptp_only = run(KernelConfig::shared_ptp());
        // PTP sharing eliminates the client's soft faults on binder
        // code (Section 4.2.4: 54 → 14).
        assert!(ptp_only.client_file_faults < stock.client_file_faults);
        // But it loads no global entries.
        assert_eq!(ptp_only.cross_asid_hits, 0);
    }
}
