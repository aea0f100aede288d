//! Pool occupancy from the existing `edsr-par` counters.
//!
//! The pool accumulates per-participant busy time only while the
//! observability layer is on, and reports it as `pool/busy_ns` gauges
//! through `edsr_par::emit_pool_metrics`. [`Occupancy`] installs a sink
//! that keeps just those gauges, reads them before and after the measured
//! work, and turns the difference into a busy share.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use edsr_obs::{Event, EventKind, Sink};

type Busy = Arc<Mutex<Vec<f64>>>;

/// Keeps the latest `pool/busy_ns` gauge per participant slot.
struct BusySink(Busy);

impl Sink for BusySink {
    fn record(&mut self, event: &Event) {
        if event.kind == EventKind::Gauge && event.name == "pool/busy_ns" {
            let mut v = self.0.lock().unwrap_or_else(|e| e.into_inner());
            let slot = event.index as usize;
            if v.len() <= slot {
                v.resize(slot + 1, 0.0);
            }
            v[slot] = event.value;
        }
    }
}

fn read(busy: &Busy) -> Vec<f64> {
    edsr_par::emit_pool_metrics();
    busy.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// A running occupancy measurement (observability stays on until
/// [`finish`](Self::finish)).
pub struct Occupancy {
    busy: Busy,
    before: Vec<f64>,
    start: Instant,
}

impl Occupancy {
    /// Installs the sink and reads the starting counters.
    pub fn start() -> Self {
        let busy = Busy::default();
        edsr_obs::install(Box::new(BusySink(Arc::clone(&busy))));
        let before = read(&busy);
        Self {
            busy,
            before,
            start: Instant::now(),
        }
    }

    /// Busy time summed over participants, divided by participants ×
    /// wall time; removes the sink. 0 when the pool never ran.
    pub fn finish(self) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        let after = read(&self.busy);
        edsr_obs::uninstall();
        let busy_ns: f64 = after
            .iter()
            .enumerate()
            .map(|(i, a)| a - self.before.get(i).copied().unwrap_or(0.0))
            .sum();
        let participants = (edsr_par::pool_workers() + 1) as f64;
        busy_ns / 1e9 / (participants * wall)
    }
}
