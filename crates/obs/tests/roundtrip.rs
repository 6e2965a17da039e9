//! JSON round-trip tests for the trace exporter: serialize → parse →
//! field-level equality against the source recording, including the
//! ring-overflow path (the dropped counter must survive export).

use sat_obs::json::Json;
use sat_obs::{
    chrome_trace_json, parse_chrome_trace, ChargeCause, DemoteCause, FaultClass, FlushReason,
    FlushScope, Payload, RegionOpKind, SpanUnit, Subsystem, UnshareCause,
};

/// One event of every payload shape, exercising every arg type.
fn emit_one_of_each() {
    // Mapped before the fork, so the child inherits the pages and the
    // report's footprint matrix has a pair to compare.
    sat_obs::emit(
        Subsystem::Kernel,
        1,
        1,
        Payload::RegionOp {
            op: RegionOpKind::Mmap,
            va: 0x4000_0000,
            pages: 8,
            unshared: 0,
        },
    );
    sat_obs::emit(
        Subsystem::Kernel,
        1,
        1,
        Payload::Fork {
            child: 2,
            ptps_shared: 6,
            ptes_copied: 7,
            shared: true,
        },
    );
    sat_obs::emit(Subsystem::Kernel, 2, 2, Payload::Exit);
    sat_obs::emit(
        Subsystem::Kernel,
        1,
        1,
        Payload::RegionOp {
            op: RegionOpKind::Mprotect,
            va: 0x4000_0000,
            pages: 8,
            unshared: 1,
        },
    );
    sat_obs::emit(
        Subsystem::Kernel,
        2,
        2,
        Payload::RegionOp {
            op: RegionOpKind::Munmap,
            va: 0x4000_6000,
            pages: 2,
            unshared: 0,
        },
    );
    sat_obs::emit(
        Subsystem::Kernel,
        3,
        3,
        Payload::DomainFault { va: 0x4000_2000 },
    );
    sat_obs::emit(
        Subsystem::Share,
        2,
        2,
        Payload::PtpShare {
            ptps: 5,
            write_protect_ops: 3,
        },
    );
    sat_obs::emit(
        Subsystem::Share,
        2,
        2,
        Payload::PtpUnshare {
            cause: UnshareCause::WriteFault,
            ptes_copied: 12,
            last_sharer: false,
            va: 0x0800_0000,
        },
    );
    sat_obs::emit(
        Subsystem::VmFault,
        2,
        2,
        Payload::PageFault {
            class: FaultClass::Cow,
            va: 0x0800_0000,
            file_backed: false,
        },
    );
    sat_obs::emit(
        Subsystem::VmFault,
        3,
        3,
        Payload::PageFault {
            class: FaultClass::Minor,
            va: 0x4000_1000,
            file_backed: true,
        },
    );
    sat_obs::emit(
        Subsystem::Tlb,
        0,
        2,
        Payload::TlbFlush {
            scope: FlushScope::Asid,
            reason: FlushReason::Unshare,
            entries: 4,
        },
    );
    sat_obs::emit(
        Subsystem::Tlb,
        0,
        2,
        Payload::TlbFlush {
            scope: FlushScope::MicroAll,
            reason: FlushReason::ContextSwitch,
            entries: 6,
        },
    );
    sat_obs::emit(
        Subsystem::Kernel,
        0,
        0,
        Payload::AsidRollover { generation: 3 },
    );
    sat_obs::emit(
        Subsystem::Sim,
        0,
        5,
        Payload::TlbShootdown {
            asid: 5,
            scope: FlushScope::Asid,
            cores_targeted: 2,
            cores_local: 1,
            cores_skipped: 2,
        },
    );
    sat_obs::emit(
        Subsystem::Sim,
        0,
        5,
        Payload::TlbShootdown {
            asid: 5,
            scope: FlushScope::Range,
            cores_targeted: 1,
            cores_local: 0,
            cores_skipped: 3,
        },
    );
    sat_obs::emit(
        Subsystem::Tlb,
        0,
        2,
        Payload::TlbFlush {
            scope: FlushScope::Range,
            reason: FlushReason::RegionOp,
            entries: 3,
        },
    );
    sat_obs::emit(
        Subsystem::Tlb,
        0,
        2,
        Payload::TlbFlush {
            scope: FlushScope::Page,
            reason: FlushReason::Unshare,
            entries: 1,
        },
    );
    sat_obs::emit(
        Subsystem::Tlb,
        0,
        2,
        Payload::FlushBatch {
            ops: 5,
            coalesced: 3,
            escalated: 1,
        },
    );
    sat_obs::emit(
        Subsystem::Sched,
        7,
        2,
        Payload::Preempt { core: 2, next: 9 },
    );
    // Counter-track points: published gauges snapshotted twice, so
    // the parsed trace must reproduce a moving series, not one value.
    sat_obs::sample(|| {
        sat_obs::gauge_set("phys.frames.free", 1000);
        sat_obs::gauge_set("sched.runq.c1", 3);
    });
    sat_obs::sample(|| {
        sat_obs::gauge_set("phys.frames.free", 863);
    });
    sat_obs::emit(
        Subsystem::Android,
        4,
        4,
        Payload::SpanBegin {
            name: "launch.exec".to_string(),
        },
    );
    sat_obs::emit(
        Subsystem::Android,
        4,
        4,
        Payload::SpanEnd {
            name: "launch.exec".to_string(),
            value: 123_456,
            unit: SpanUnit::Cycles,
        },
    );
    sat_obs::emit(
        Subsystem::Bench,
        0,
        0,
        Payload::SpanBegin {
            name: "cell-0 \"quoted\"".to_string(),
        },
    );
    sat_obs::emit(
        Subsystem::Bench,
        0,
        0,
        Payload::SpanEnd {
            name: "cell-0 \"quoted\"".to_string(),
            value: 900,
            unit: SpanUnit::Ticks,
        },
    );
    sat_obs::emit(Subsystem::Sched, 11, 0, Payload::FlowArrive { flow: 7 });
    sat_obs::emit(Subsystem::Sched, 11, 0, Payload::FlowBegin { flow: 7 });
    sat_obs::emit(
        Subsystem::Sim,
        0,
        0,
        Payload::CycleCharge {
            flow: 7,
            cause: ChargeCause::TlbStall,
            cycles: 4_321,
        },
    );
    // The run-queue wait fills the request's preempted gap, so flow 7
    // reconciles exactly (4,321 + 94,444 == its 98,765-cycle wall).
    sat_obs::emit(
        Subsystem::Sim,
        0,
        0,
        Payload::CycleCharge {
            flow: 7,
            cause: ChargeCause::RunqWait,
            cycles: 94_444,
        },
    );
    sat_obs::emit(
        Subsystem::Sched,
        11,
        0,
        Payload::FlowEnd {
            flow: 7,
            wall: 98_765,
        },
    );
    // A second, faster request plus an idle-core charge (flow 0), so
    // `tails` ranks two rows and keeps an unattributed bucket.
    sat_obs::emit(Subsystem::Sched, 12, 0, Payload::FlowBegin { flow: 8 });
    for (flow, cause, cycles) in [
        (8, ChargeCause::Exec, 2_000),
        (0, ChargeCause::Ipi, 500),
        (8, ChargeCause::Fault, 345),
    ] {
        sat_obs::emit(
            Subsystem::Sim,
            0,
            0,
            Payload::CycleCharge {
                flow,
                cause,
                cycles,
            },
        );
    }
    sat_obs::emit(
        Subsystem::Sched,
        12,
        0,
        Payload::FlowEnd {
            flow: 8,
            wall: 2_345,
        },
    );
    sat_obs::emit(
        Subsystem::Kernel,
        0,
        0,
        Payload::Reclaim {
            pages: 12,
            pte_tears: 9,
            shared_tears: 3,
        },
    );
    sat_obs::emit(
        Subsystem::Kernel,
        3,
        4,
        Payload::Promote {
            va: 0x4004_0000,
            bytes: 0x1_0000,
            pages: 16,
            filled: 10,
        },
    );
    sat_obs::emit(
        Subsystem::Kernel,
        3,
        4,
        Payload::Demote {
            va: 0x4004_0000,
            bytes: 0x1_0000,
            pages: 16,
            cause: DemoteCause::Munmap,
        },
    );
}

#[test]
fn chrome_trace_round_trips_field_by_field() {
    sat_obs::install(64);
    emit_one_of_each();
    let rec = sat_obs::uninstall().unwrap();
    assert_eq!(rec.dropped, 0);

    let doc = Json::parse(&chrome_trace_json(&rec)).expect("exporter must emit valid JSON");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert_eq!(events.len(), rec.events.len());

    for (json, src) in events.iter().zip(rec.events.iter()) {
        assert_eq!(json.get("name").unwrap().as_str(), Some(src.payload.name()));
        assert_eq!(
            json.get("cat").unwrap().as_str(),
            Some(src.subsystem.as_str())
        );
        assert_eq!(json.get("ts").unwrap().as_u64(), Some(src.tick));
        assert_eq!(json.get("pid").unwrap().as_u64(), Some(u64::from(src.pid)));
        assert_eq!(json.get("tid").unwrap().as_u64(), Some(u64::from(src.asid)));
        let expected_ph = match &src.payload {
            Payload::SpanBegin { .. } => "B",
            Payload::SpanEnd { .. } => "E",
            Payload::Sample { .. } => "C",
            _ => "i",
        };
        assert_eq!(json.get("ph").unwrap().as_str(), Some(expected_ph));
        let args = json.get("args").unwrap();
        match &src.payload {
            Payload::Fork {
                child,
                ptps_shared,
                ptes_copied,
                shared,
            } => {
                assert_eq!(args.get("child").unwrap().as_u64(), Some(u64::from(*child)));
                assert_eq!(
                    args.get("ptps_shared").unwrap().as_u64(),
                    Some(*ptps_shared)
                );
                assert_eq!(
                    args.get("ptes_copied").unwrap().as_u64(),
                    Some(*ptes_copied)
                );
                assert_eq!(args.get("shared").unwrap().as_bool(), Some(*shared));
            }
            Payload::Exit => assert!(args.as_object().unwrap().is_empty()),
            Payload::RegionOp {
                op,
                va,
                pages,
                unshared,
            } => {
                assert_eq!(args.get("op").unwrap().as_str(), Some(op.as_str()));
                assert_eq!(args.get("va").unwrap().as_u64(), Some(u64::from(*va)));
                assert_eq!(args.get("pages").unwrap().as_u64(), Some(u64::from(*pages)));
                assert_eq!(args.get("unshared").unwrap().as_u64(), Some(*unshared));
            }
            Payload::DomainFault { va } => {
                assert_eq!(args.get("va").unwrap().as_u64(), Some(u64::from(*va)));
            }
            Payload::PtpShare {
                ptps,
                write_protect_ops,
            } => {
                assert_eq!(args.get("ptps").unwrap().as_u64(), Some(*ptps));
                assert_eq!(
                    args.get("write_protect_ops").unwrap().as_u64(),
                    Some(*write_protect_ops)
                );
            }
            Payload::PtpUnshare {
                cause,
                ptes_copied,
                last_sharer,
                va,
            } => {
                assert_eq!(args.get("cause").unwrap().as_str(), Some(cause.as_str()));
                assert_eq!(
                    args.get("ptes_copied").unwrap().as_u64(),
                    Some(*ptes_copied)
                );
                assert_eq!(
                    args.get("last_sharer").unwrap().as_bool(),
                    Some(*last_sharer)
                );
                assert_eq!(args.get("va").unwrap().as_u64(), Some(u64::from(*va)));
            }
            Payload::PageFault {
                class,
                va,
                file_backed,
            } => {
                assert_eq!(args.get("class").unwrap().as_str(), Some(class.as_str()));
                assert_eq!(args.get("va").unwrap().as_u64(), Some(u64::from(*va)));
                assert_eq!(
                    args.get("file_backed").unwrap().as_bool(),
                    Some(*file_backed)
                );
            }
            Payload::TlbFlush {
                scope,
                reason,
                entries,
            } => {
                assert_eq!(args.get("scope").unwrap().as_str(), Some(scope.as_str()));
                assert_eq!(args.get("reason").unwrap().as_str(), Some(reason.as_str()));
                assert_eq!(args.get("entries").unwrap().as_u64(), Some(*entries));
            }
            Payload::AsidRollover { generation } => {
                assert_eq!(args.get("generation").unwrap().as_u64(), Some(*generation));
            }
            Payload::TlbShootdown {
                asid,
                scope,
                cores_targeted,
                cores_local,
                cores_skipped,
            } => {
                assert_eq!(args.get("asid").unwrap().as_u64(), Some(u64::from(*asid)));
                assert_eq!(args.get("scope").unwrap().as_str(), Some(scope.as_str()));
                assert_eq!(
                    args.get("cores_targeted").unwrap().as_u64(),
                    Some(u64::from(*cores_targeted))
                );
                assert_eq!(
                    args.get("cores_local").unwrap().as_u64(),
                    Some(u64::from(*cores_local))
                );
                assert_eq!(
                    args.get("cores_skipped").unwrap().as_u64(),
                    Some(u64::from(*cores_skipped))
                );
            }
            Payload::FlushBatch {
                ops,
                coalesced,
                escalated,
            } => {
                assert_eq!(args.get("ops").unwrap().as_u64(), Some(*ops));
                assert_eq!(args.get("coalesced").unwrap().as_u64(), Some(*coalesced));
                assert_eq!(args.get("escalated").unwrap().as_u64(), Some(*escalated));
            }
            Payload::Preempt { core, next } => {
                assert_eq!(args.get("core").unwrap().as_u64(), Some(u64::from(*core)));
                assert_eq!(args.get("next").unwrap().as_u64(), Some(u64::from(*next)));
            }
            Payload::Sample { gauge, value } => {
                // The counter track is keyed on the event name (the
                // gauge), and Perfetto plots args.value.
                assert_eq!(json.get("name").unwrap().as_str(), Some(gauge.as_str()));
                assert_eq!(args.get("value").unwrap().as_u64(), Some(*value));
            }
            Payload::SpanBegin { .. } => assert!(args.as_object().unwrap().is_empty()),
            Payload::SpanEnd { value, unit, .. } => {
                assert_eq!(args.get("value").unwrap().as_u64(), Some(*value));
                assert_eq!(args.get("unit").unwrap().as_str(), Some(unit.as_str()));
            }
            Payload::CycleCharge {
                flow,
                cause,
                cycles,
            } => {
                assert_eq!(args.get("flow").unwrap().as_u64(), Some(u64::from(*flow)));
                assert_eq!(args.get("cause").unwrap().as_str(), Some(cause.as_str()));
                assert_eq!(args.get("cycles").unwrap().as_u64(), Some(*cycles));
            }
            Payload::FlowArrive { flow } | Payload::FlowBegin { flow } => {
                assert_eq!(args.get("flow").unwrap().as_u64(), Some(u64::from(*flow)));
            }
            Payload::FlowEnd { flow, wall } => {
                assert_eq!(args.get("flow").unwrap().as_u64(), Some(u64::from(*flow)));
                assert_eq!(args.get("wall").unwrap().as_u64(), Some(*wall));
            }
            Payload::Reclaim {
                pages,
                pte_tears,
                shared_tears,
            } => {
                assert_eq!(args.get("pages").unwrap().as_u64(), Some(*pages));
                assert_eq!(args.get("pte_tears").unwrap().as_u64(), Some(*pte_tears));
                assert_eq!(
                    args.get("shared_tears").unwrap().as_u64(),
                    Some(*shared_tears)
                );
            }
            Payload::Promote {
                va,
                bytes,
                pages,
                filled,
            } => {
                assert_eq!(args.get("va").unwrap().as_u64(), Some(u64::from(*va)));
                assert_eq!(args.get("bytes").unwrap().as_u64(), Some(u64::from(*bytes)));
                assert_eq!(args.get("pages").unwrap().as_u64(), Some(*pages));
                assert_eq!(args.get("filled").unwrap().as_u64(), Some(*filled));
            }
            Payload::Demote {
                va,
                bytes,
                pages,
                cause,
            } => {
                assert_eq!(args.get("va").unwrap().as_u64(), Some(u64::from(*va)));
                assert_eq!(args.get("bytes").unwrap().as_u64(), Some(u64::from(*bytes)));
                assert_eq!(args.get("pages").unwrap().as_u64(), Some(*pages));
                assert_eq!(args.get("cause").unwrap().as_str(), Some(cause.as_str()));
            }
        }
    }

    let other = doc.get("otherData").unwrap();
    assert_eq!(other.get("dropped_events").unwrap().as_u64(), Some(0));
    assert_eq!(
        other.get("event_count").unwrap().as_u64(),
        Some(rec.events.len() as u64)
    );
}

#[test]
fn parsed_trace_reproduces_the_recording_exactly() {
    sat_obs::install(64);
    emit_one_of_each();
    let rec = sat_obs::uninstall().unwrap();

    let doc = Json::parse(&chrome_trace_json(&rec)).unwrap();
    let parsed = parse_chrome_trace(&doc).expect("exporter output must re-ingest");
    assert_eq!(parsed.dropped, rec.dropped);
    assert_eq!(parsed.events.len(), rec.events.len());
    for (got, want) in parsed.events.iter().zip(rec.events.iter()) {
        assert_eq!(got.tick, want.tick);
        assert_eq!(got.pid, want.pid);
        assert_eq!(got.asid, want.asid);
        assert_eq!(got.subsystem, want.subsystem);
        assert_eq!(got.payload, want.payload);
    }
}

/// The parser is strict about widths: a hand-edited field that does
/// not fit its payload type is an error naming the field, never a
/// silent wrap (`"tid": 300` used to re-ingest as ASID 44).
#[test]
fn out_of_range_fields_fail_to_re_ingest_by_name() {
    sat_obs::install(64);
    emit_one_of_each();
    let trace = chrome_trace_json(&sat_obs::uninstall().unwrap());
    let reingest_edited = |from: &str, to: &str| -> String {
        assert!(trace.contains(from), "fixture no longer carries {from}");
        let doc = Json::parse(&trace.replacen(from, to, 1)).unwrap();
        parse_chrome_trace(&doc).unwrap_err()
    };
    for (field, from, to) in [
        ("tid", "\"tid\": 2,", "\"tid\": 300,"),
        ("pid", "\"pid\": 7,", "\"pid\": 4294967296,"),
        ("va", "\"va\": 1073750016}", "\"va\": 4294967296}"),
        ("core", "\"core\": 2,", "\"core\": 4294967296,"),
        ("asid", "\"asid\": 5,", "\"asid\": 256,"),
        ("pages", "\"pages\": 8,", "\"pages\": 99999999999,"),
    ] {
        let err = reingest_edited(from, to);
        assert!(err.contains(&format!("\"{field}\"")), "{field}: {err}");
        assert!(err.contains("out of range"), "{field}: {err}");
    }
    // A tick past u64 is refused, never saturated to u64::MAX.
    for big in ["1e30", "18446744073709551616"] {
        let err = reingest_edited("\"ts\": 1,", &format!("\"ts\": {big},"));
        assert!(err.contains("\"ts\""), "{big}: {err}");
    }
    // In range still re-ingests: the edges are the types' own.
    let doc = Json::parse(&trace.replacen("\"tid\": 2,", "\"tid\": 255,", 1)).unwrap();
    assert_eq!(parse_chrome_trace(&doc).unwrap().events[2].asid, 255);
}

/// Events that decode field by field yet that the exporter could not
/// have written: more local flushes than flushing cores (the IPI count
/// `cores_targeted - cores_local` would go negative downstream), and a
/// region op whose `args` name a different syscall than the event.
#[test]
fn impossible_events_fail_to_re_ingest() {
    sat_obs::install(64);
    emit_one_of_each();
    let trace = chrome_trace_json(&sat_obs::uninstall().unwrap());
    for (from, to, want) in [
        (
            "\"cores_local\": 1,",
            "\"cores_local\": 3,",
            "\"cores_local\" 3 exceeds \"cores_targeted\" 2",
        ),
        (
            "\"op\": \"mprotect\"",
            "\"op\": \"munmap\"",
            "(mprotect): args describe a \"munmap\" event",
        ),
    ] {
        assert!(trace.contains(from), "fixture no longer carries {from}");
        let doc = Json::parse(&trace.replacen(from, to, 1)).unwrap();
        let err = parse_chrome_trace(&doc).unwrap_err();
        assert!(err.contains(want), "{err}");
    }
}

/// Every renderer's output for the `emit_one_of_each` recording, byte
/// for byte: the files under `tests/golden/` were captured from the
/// renderers as they stood before `Rollup` lost its shadow counters,
/// so a number that moves here moved for `repro report` / `timeline` /
/// `tails` users too. The trace itself is pinned as well — the wire
/// format is what every saved trace file depends on.
#[test]
fn renderers_match_the_goldens() {
    use sat_obs::analyze::{FlowTable, Rollup, Timeline};
    use sat_obs::report::{render, render_tails, render_timeline, ReportFormat};

    sat_obs::install(64);
    emit_one_of_each();
    let rec = sat_obs::uninstall().unwrap();
    let trace = chrome_trace_json(&rec);
    let parsed = parse_chrome_trace(&Json::parse(&trace).unwrap()).unwrap();
    let rollup = Rollup::from_events(&parsed.events, parsed.dropped);
    let timeline = Timeline::from_events(&parsed.events, 0).unwrap();
    let flows = FlowTable::from_events(&parsed.events);

    for (name, got, want) in [
        ("trace.json", trace, include_str!("golden/trace.json")),
        (
            "report.txt",
            render(&rollup, ReportFormat::Text),
            include_str!("golden/report.txt"),
        ),
        (
            "report.json",
            render(&rollup, ReportFormat::Json),
            include_str!("golden/report.json"),
        ),
        (
            "report.folded",
            render(&rollup, ReportFormat::Folded),
            include_str!("golden/report.folded"),
        ),
        (
            "timeline.txt",
            render_timeline(&timeline),
            include_str!("golden/timeline.txt"),
        ),
        (
            "tails.txt",
            render_tails("whole trace", &flows, 5),
            include_str!("golden/tails.txt"),
        ),
    ] {
        assert_eq!(got, want, "{name} differs from its golden");
    }
}

/// The counter-track round trip in isolation: every sample exported as
/// a `"ph":"C"` event re-ingests into the identical `Payload::Sample`
/// series, and the replayed registry reconstructs the same gauges
/// (values and high-water marks) as the live recorder.
#[test]
fn counter_tracks_round_trip_to_identical_samples() {
    sat_obs::install(256);
    for (free, runq) in [(4096u64, 0u64), (2048, 5), (3072, 2), (512, 9)] {
        sat_obs::sample(|| {
            sat_obs::gauge_set("phys.frames.free", free);
            sat_obs::gauge_set("sched.runq.c0", runq);
        });
    }
    let rec = sat_obs::uninstall().unwrap();

    let doc = Json::parse(&chrome_trace_json(&rec)).unwrap();
    let parsed = parse_chrome_trace(&doc).unwrap();
    let samples = |events: &[sat_obs::Event]| -> Vec<(u64, String, u64)> {
        events
            .iter()
            .filter_map(|e| match &e.payload {
                Payload::Sample { gauge, value } => Some((e.tick, gauge.clone(), *value)),
                _ => None,
            })
            .collect()
    };
    let want = samples(&rec.events);
    assert_eq!(want.len(), 8, "4 sample points x 2 gauges");
    assert_eq!(samples(&parsed.events), want);

    // Replaying the parsed stream reconstructs the gauges exactly.
    let rollup = sat_obs::analyze::Rollup::from_events(&parsed.events, parsed.dropped);
    assert_eq!(
        rollup.metrics.gauge("phys.frames.free"),
        rec.metrics.gauge("phys.frames.free")
    );
    assert_eq!(
        rollup
            .metrics
            .gauge("phys.frames.free")
            .unwrap()
            .window_high_water,
        Some(4096)
    );
    assert_eq!(rollup.gauges["sched.runq.c0"].max, 9);
    assert_eq!(rollup.gauges.values().map(|g| g.samples).sum::<u64>(), 8);
}

#[test]
fn overflow_is_reported_in_the_trace_and_counters_stay_exact() {
    sat_obs::install(4);
    for i in 0..9u64 {
        sat_obs::emit(
            Subsystem::Tlb,
            0,
            1,
            Payload::TlbFlush {
                scope: FlushScope::Page,
                reason: FlushReason::FaultRepair,
                entries: i,
            },
        );
    }
    let rec = sat_obs::uninstall().unwrap();
    assert_eq!(rec.events.len(), 4);
    assert_eq!(rec.dropped, 5);

    let trace = Json::parse(&chrome_trace_json(&rec)).unwrap();
    assert_eq!(
        trace
            .get("otherData")
            .and_then(|o| o.get("dropped_events"))
            .unwrap()
            .as_u64(),
        Some(5),
        "ring overflow must never be silent"
    );
    // The ring keeps the newest events: ticks 5..9.
    let first_ts = trace.get("traceEvents").unwrap().as_array().unwrap()[0]
        .get("ts")
        .unwrap()
        .as_u64();
    assert_eq!(first_ts, Some(5));

    // The registry saw every event, dropped ones included.
    assert_eq!(rec.metrics.counter("tlb.flush.scope.page"), 9);
}
