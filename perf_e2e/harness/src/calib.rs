//! Machine-speed calibration. On a shared host the same code runs up to
//! ~2× slower from one second to the next (other tenants on the same
//! cores), which no amount of in-run medianing removes. Every time the
//! benchmark reports is therefore rescaled to a nominal machine speed: a
//! fixed kernel that belongs to the benchmark, not to the program, is
//! timed at least every [`PERIOD`], and each sample is multiplied by
//! `NOMINAL_MS / kernel time`. The program's code never runs inside the
//! kernel, and no operation of the program is in flight while it runs (a
//! gate held shared around each timed operation, exclusively around the
//! kernel), so no change to the program can move the factor.

use crate::stats;
use std::hint::black_box;
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// Kernel time (ms) on the reference host when uncontended (its fastest
/// decile; 2-vCPU Xeon, 105 MiB L3). A time at nominal speed equals the
/// wall time such a host shows when quiet.
pub const NOMINAL_MS: f64 = 0.16;
/// How often the factor is refreshed.
pub const PERIOD: Duration = Duration::from_millis(50);

/// 64 KiB of integer mixing in four independent chains: loads, stores,
/// multiplies and rotates, like the codecs and parsers it stands in for.
fn kernel(buf: &mut [u64]) -> u64 {
    let mut h = [1u64, 2, 3, 4];
    for _ in 0..32 {
        for chunk in buf.chunks_exact_mut(4) {
            for (x, hk) in chunk.iter_mut().zip(h.iter_mut()) {
                *hk = (*hk ^ *x)
                    .wrapping_mul(0x0000_0100_0000_01B3)
                    .rotate_left(17);
                *x = x.wrapping_add(*hk);
            }
        }
    }
    h.iter().fold(0, |a, b| a ^ b)
}

struct State {
    /// Kernels run at once, one per core the workload keeps busy.
    lanes: usize,
    /// Every calibration: when it ended and the factor it gave.
    log: Vec<(Instant, f64)>,
}

static STATE: Mutex<State> = Mutex::new(State {
    lanes: 1,
    log: Vec::new(),
});
static GATE: RwLock<()> = RwLock::new(());

fn state() -> std::sync::MutexGuard<'static, State> {
    STATE.lock().expect("calibration state is never poisoned")
}

/// Calibrate with `lanes` kernels at once. A workload that keeps both
/// cores busy (two connections, each with a daemon thread behind it) runs
/// at the mean speed of the cores, which a kernel on one thread does not
/// see when the host slows one core and not the other.
pub fn set_lanes(lanes: usize) {
    state().lanes = lanes;
    calibrate();
}

/// Median of five kernel runs, in ms.
fn kernel_ms() -> f64 {
    let mut buf: Vec<u64> = (0..8192u64).collect();
    let mut t = [0.0; 5];
    for slot in &mut t {
        let start = Instant::now();
        black_box(kernel(black_box(&mut buf)));
        *slot = start.elapsed().as_secs_f64() * 1e3;
    }
    stats::median(&t)
}

/// Wait until no timed operation is in flight, time the kernel on every
/// lane and record the new factor (nominal over the mean lane time).
pub fn calibrate() -> f64 {
    let _idle = GATE.write().expect("gate is never poisoned");
    let lanes = state().lanes;
    let times: Vec<f64> = std::thread::scope(|s| {
        let others: Vec<_> = (1..lanes).map(|_| s.spawn(kernel_ms)).collect();
        let mut t = vec![kernel_ms()];
        t.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("kernel thread panicked")),
        );
        t
    });
    let factor = NOMINAL_MS * times.len() as f64 / times.iter().sum::<f64>();
    state().log.push((Instant::now(), factor));
    factor
}

/// The current factor, recalibrating first when it is older than
/// [`PERIOD`].
pub fn factor() -> f64 {
    let last = state().log.last().copied();
    match last {
        Some((at, k)) if at.elapsed() < PERIOD => k,
        _ => calibrate(),
    }
}

/// Run one operation of the program and time it in nominal
/// milliseconds: wall time × the factor taken just before.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let k = factor();
    let _busy = GATE.read().expect("gate is never poisoned");
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3 * k)
}

/// Nominal seconds between `a` and `b`: each stretch of wall time weighed
/// by the factor in force during it (the last calibration before it).
pub fn nominal_secs(a: Instant, b: Instant) -> f64 {
    let log = &state().log;
    let mut k = log
        .iter()
        .take_while(|(t, _)| *t <= a)
        .last()
        .or(log.first())
        .map_or(1.0, |(_, k)| *k);
    let (mut from, mut total) = (a, 0.0);
    for &(t, next) in log.iter().filter(|(t, _)| *t > a && *t < b) {
        total += (t - from).as_secs_f64() * k;
        (from, k) = (t, next);
    }
    total + (b - from).as_secs_f64() * k
}
