//! The host-speed reference. On a shared host the CPU runs the same code
//! up to twice as fast at one minute as at the next, and every timing of a
//! run moves with it. A fixed floating-point kernel (`exp` and a divide
//! over 16 lanes, the operations the solver and the φ fixed point spend
//! their time in) slows and speeds up with the workloads, so the benchmark
//! runs short slices of it between ops, at a fixed share of wall time, and
//! reports every time in reference seconds: seconds measured × (kernel
//! rate / [`REF_RATE`]). On a host that runs the kernel at `REF_RATE`, a
//! reference second is a second. The kernel is the benchmark's own code,
//! so no change to the program can move it.

use std::hint::black_box;
use std::time::Instant;

/// Kernel iterations per second that make a reference second.
pub const REF_RATE: f64 = 7.0e6;
/// Kernel iterations per slice: about 0.3 ms at `REF_RATE`.
const SLICE: u64 = 2_000;
/// Wall time per slice: a slice is due for each period since the last.
const PERIOD_S: f64 = 0.01;

/// Kernel slices run at a fixed share of wall time over one window.
pub struct RefClock {
    x: [f64; 16],
    iters: u64,
    busy_s: f64,
    last: Instant,
}

impl RefClock {
    pub fn new() -> RefClock {
        RefClock { x: [0.3; 16], iters: 0, busy_s: 0.0, last: Instant::now() }
    }

    /// Starts a new window, forgetting the slices run so far.
    pub fn restart(&mut self) {
        self.iters = 0;
        self.busy_s = 0.0;
        self.last = Instant::now();
    }

    /// Runs the slices that fell due since the last ones and returns the
    /// seconds they took, which the caller leaves out of its timings.
    pub fn sample(&mut self) -> f64 {
        let due = (self.last.elapsed().as_secs_f64() / PERIOD_S) as u64;
        if due == 0 {
            return 0.0;
        }
        self.run(due)
    }

    /// Host speed over the window: kernel rate / `REF_RATE`, below 1 on
    /// a host slower than the reference. Runs one slice if none has run.
    pub fn speed(&mut self) -> f64 {
        if self.iters == 0 {
            self.run(1);
        }
        self.iters as f64 / self.busy_s / REF_RATE
    }

    fn run(&mut self, slices: u64) -> f64 {
        let t = Instant::now();
        for _ in 0..slices * SLICE {
            let mut sum = 0.0;
            for (i, x) in self.x.iter_mut().enumerate() {
                let a = 0.5 + 0.1 * i as f64;
                *x = (-a * *x).exp() / (1.0 + *x * *x);
                sum += *x;
            }
            self.x[0] += sum * 1e-12;
        }
        black_box(&mut self.x);
        let spent = t.elapsed().as_secs_f64();
        self.iters += slices * SLICE;
        self.busy_s += spent;
        self.last = Instant::now();
        spent
    }
}
