//! Worker-lane trace events from the persistent pool: with a sink installed
//! and the detail opt-in on, a multi-threaded `run_tasks` invocation emits
//! one `par/worker` event per *participant that ran at least one task*,
//! from that participant's own thread (so the Chrome export gets one track
//! per lane), and the lanes together account for every task exactly once.
//!
//! Unlike the old scoped pool — which always had exactly `threads()` lanes
//! because it spawned them per call — the persistent pool's parked workers
//! race the caller for claims: a short batch may drain before a slow-waking
//! worker joins, so the lane count is 1..=threads(), not a constant. The
//! tasks-sum invariant is what matters and is pinned exactly.
//!
//! Single test function on purpose: the sink and the pool's thread count
//! are process-wide globals, and this binary owning exactly one test is
//! what makes setting them race-free.

use snapea_obs::Json;
use snapea_tensor::par;

#[test]
fn worker_lanes_are_emitted_under_detail_tracing() {
    par::set_threads(3);
    let mem = snapea_obs::MemorySink::new();
    snapea_obs::sink::install(Box::new(mem.clone()));
    snapea_obs::set_detail_enabled(true);
    let out = par::run_tasks((0..64usize).collect::<Vec<_>>(), |i, t| {
        assert_eq!(i, t);
        // Enough work per task that parked workers get a chance to wake and
        // join before the batch drains (the assertions below still hold if
        // they don't — lane count is only bounded, not pinned).
        std::thread::sleep(std::time::Duration::from_micros(200));
        t * 2
    });
    snapea_obs::set_detail_enabled(false);
    snapea_obs::sink::clear();

    // Tracing must not perturb results or ordering.
    assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());

    let lanes: Vec<Json> = mem
        .events()
        .into_iter()
        .filter(|e| e.get("kind").and_then(Json::as_str) == Some("par/worker"))
        .collect();
    assert!(
        (1..=3).contains(&lanes.len()),
        "participants that ran tasks emit one lane each, got {}",
        lanes.len()
    );

    // Lane ids are the persistent pool's worker ids (0 = the dispatching
    // caller), distinct per lane, and bounded by the 3-participant cap.
    let mut workers: Vec<u64> = lanes
        .iter()
        .map(|e| e.get("worker").and_then(Json::as_u64).expect("worker id"))
        .collect();
    workers.sort_unstable();
    let mut distinct = workers.clone();
    distinct.dedup();
    assert_eq!(distinct, workers, "worker ids are distinct per lane");
    assert!(
        workers.iter().all(|&w| w <= 2),
        "ids within cap: {workers:?}"
    );

    let tasks: u64 = lanes
        .iter()
        .map(|e| e.get("tasks").and_then(Json::as_u64).expect("task count"))
        .sum();
    assert_eq!(tasks, 64, "every task charged to exactly one lane");

    let mut tids: Vec<u64> = lanes
        .iter()
        .map(|e| e.get("tid").and_then(Json::as_u64).expect("envelope tid"))
        .collect();
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(
        tids.len(),
        lanes.len(),
        "each lane emitted from its own thread"
    );

    for e in &lanes {
        let start = e.get("start_ms").and_then(Json::as_f64).expect("start_ms");
        let ms = e.get("ms").and_then(Json::as_f64).expect("ms");
        assert!(start >= 0.0 && ms >= 0.0 && start.is_finite() && ms.is_finite());
    }
}
