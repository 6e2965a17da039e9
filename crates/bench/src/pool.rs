//! A scoped worker pool for fanning independent experiment cells
//! across cores.
//!
//! Each sweep in the harness runs a grid of fully independent cells —
//! every (configuration, layout) cell boots its own [`AndroidSystem`]
//! from the same seed, so cells share no state and their results do
//! not depend on execution order. The pool runs them on
//! `std::thread::scope` threads and reassembles results in submission
//! order, which keeps `repro` output byte-identical to a serial run:
//! parallelism changes wall time, never bytes.
//!
//! Sizing comes from `SAT_BENCH_THREADS` (default: all cores;
//! `SAT_BENCH_THREADS=1` forces the serial path, which runs jobs
//! inline in submission order with no threads spawned at all).
//!
//! [`AndroidSystem`]: sat_android::AndroidSystem

use std::sync::Mutex;

/// Parses a `SAT_BENCH_THREADS` value. `Ok(None)` means unset (use
/// the machine's available parallelism); `Err` carries the warning
/// for an unparseable or zero value — the fallback is never silent.
pub fn parse_thread_count(var: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = var else {
        return Ok(None);
    };
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(format!(
            "sat-bench: ignoring SAT_BENCH_THREADS={raw:?} (want a positive integer); \
             using all available cores"
        )),
    }
}

/// Worker count: `SAT_BENCH_THREADS` if set and valid, otherwise the
/// machine's available parallelism. An unparseable value warns on
/// stderr once per process.
pub fn thread_count() -> usize {
    let var = std::env::var("SAT_BENCH_THREADS").ok();
    let parsed = match parse_thread_count(var.as_deref()) {
        Ok(n) => n,
        Err(warning) => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| eprintln!("{warning}"));
            None
        }
    };
    parsed.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs every job and returns their results in submission order.
///
/// With one worker (or one job) the jobs run inline, serially, in
/// order. Otherwise workers pull jobs from a shared queue and write
/// results back by index, so the returned `Vec` is identical to the
/// serial run's regardless of completion order. A panicking job
/// propagates, with its own message, once every worker has joined.
pub fn run_cells<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_cells_with(thread_count(), jobs)
}

fn run_cells_with<T, F>(workers: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let workers = workers.min(n);
    if workers <= 1 {
        // Inline path: events flow straight into the caller's
        // recorder; a `bench` span brackets each cell.
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| {
                emit_cell_begin(i);
                let t0 = std::time::Instant::now();
                let out = job();
                emit_cell_end(i, t0.elapsed());
                out
            })
            .collect();
    }
    // Indexed job queue (order of *execution* is irrelevant) and an
    // indexed result store (order of *reassembly* is everything).
    //
    // The recorder is thread-local, so each worker installs its own
    // ring (mirroring the caller's capacity) and hands the finished
    // recording back with the result; the caller absorbs them in
    // submission order. The *event stream* is therefore identical to
    // the inline path's — only the Cell wall-clock durations differ.
    let tracing = sat_obs::enabled();
    let capacity = sat_obs::ring_capacity().unwrap_or(sat_obs::DEFAULT_RING_CAPACITY);
    let queue: Mutex<Vec<(usize, F)>> = Mutex::new(jobs.into_iter().enumerate().collect());
    type CellResult<T> = (T, Option<sat_obs::Recording>, std::time::Duration);
    let results: Mutex<Vec<Option<CellResult<T>>>> = Mutex::new((0..n).map(|_| None).collect());
    // No lock is held while a job runs, so a panicking job poisons
    // neither mutex.
    const UNPOISONED: &str = "no worker panics while holding a pool lock";
    let panicked = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| loop {
                    let job = queue.lock().expect(UNPOISONED).pop();
                    let Some((i, job)) = job else { break };
                    if tracing {
                        sat_obs::install(capacity);
                    }
                    let t0 = std::time::Instant::now();
                    let out = job();
                    let elapsed = t0.elapsed();
                    let rec = if tracing { sat_obs::uninstall() } else { None };
                    results.lock().expect(UNPOISONED)[i] = Some((out, rec, elapsed));
                })
            })
            .collect();
        // Every worker is joined by hand (`last` drains the iterator):
        // the scope's implicit join would replace a job's panic
        // message with "a scoped thread panicked".
        handles.into_iter().filter_map(|h| h.join().err()).last()
    });
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    results
        .into_inner()
        .expect(UNPOISONED)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let (out, rec, elapsed) = r.expect("scope joined with every job completed");
            // Bracket the absorbed worker events with the cell's span,
            // so the merged stream nests exactly like the inline one.
            emit_cell_begin(i);
            if let Some(rec) = rec {
                sat_obs::absorb(rec);
            }
            emit_cell_end(i, elapsed);
            out
        })
        .collect()
}

/// Opens cell `i`'s `bench` span.
fn emit_cell_begin(i: usize) {
    if sat_obs::enabled() {
        sat_obs::emit(
            sat_obs::Subsystem::Bench,
            0,
            0,
            sat_obs::Payload::SpanBegin {
                name: format!("cell.{i}"),
            },
        );
    }
}

/// Closes cell `i`'s `bench` span with its wall-clock duration (µs).
fn emit_cell_end(i: usize, elapsed: std::time::Duration) {
    if sat_obs::enabled() {
        sat_obs::emit(
            sat_obs::Subsystem::Bench,
            0,
            0,
            sat_obs::Payload::SpanEnd {
                name: format!("cell.{i}"),
                value: elapsed.as_micros() as u64,
                unit: sat_obs::SpanUnit::Micros,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        // Force the threaded path even on single-core machines.
        let jobs: Vec<_> = (0..32)
            .map(|i| {
                move || {
                    // Stagger completion so late submissions finish
                    // first under any worker count.
                    std::thread::sleep(std::time::Duration::from_micros((32 - i) as u64 * 50));
                    i * 10
                }
            })
            .collect();
        let got = run_cells_with(4, jobs);
        assert_eq!(got, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    /// A panicking cell surfaces its own message on the threaded path —
    /// not a `PoisonError` from a pool lock, not the scope's generic
    /// "a scoped thread panicked" — while the other cells still run.
    #[test]
    #[should_panic(expected = "cell 5 exploded")]
    fn panicking_cell_surfaces_its_own_message() {
        let jobs: Vec<_> = (0..16)
            .map(|i| move || assert!(i != 5, "cell {i} exploded"))
            .collect();
        run_cells_with(4, jobs);
    }

    #[test]
    fn single_job_runs_inline() {
        let got = run_cells(vec![|| 7]);
        assert_eq!(got, vec![7]);
    }

    #[test]
    fn empty_grid_is_fine() {
        let got: Vec<i32> = run_cells(Vec::<fn() -> i32>::new());
        assert!(got.is_empty());
    }

    #[test]
    fn thread_count_parse_path() {
        assert_eq!(parse_thread_count(None), Ok(None));
        assert_eq!(parse_thread_count(Some("4")), Ok(Some(4)));
        assert_eq!(parse_thread_count(Some(" 1 ")), Ok(Some(1)));
        for bad in ["", "auto", "0", "-2", "2.5"] {
            let err = parse_thread_count(Some(bad)).unwrap_err();
            assert!(err.contains("SAT_BENCH_THREADS"), "{err}");
            assert!(err.contains("available cores"), "{err}");
        }
    }
}
