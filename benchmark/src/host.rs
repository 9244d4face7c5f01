//! What the host was doing while the benchmark ran.
//!
//! On a shared runner the hypervisor can take the cores away for minutes;
//! identical runs then differ by a factor of two or more. The record below
//! is printed with every result so that such a run is marked `noisy`, and
//! `compare` reports a noisy pair as unresolved.

use crate::json::Json;
use crate::rng::Rng;
use std::time::{Duration, Instant};

/// `(steal jiffies, total jiffies)` from the first line of `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// A fixed reference kernel in two parts, each run for a fixed time: an
/// integer-arithmetic loop, and a pointer chase through 32 MB. Their rates
/// depend on the host only, so two readings that differ say the host changed
/// under the run.
pub struct RefKernel {
    next: Vec<u32>,
}

const REF_SLOTS: usize = 8 << 20; // 8 Mi u32 = 32 MB
const REF_TIME: Duration = Duration::from_millis(125);

/// Million iterations of `step` per second over [`REF_TIME`].
fn rate(mut step: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut ops = 0u64;
    loop {
        for _ in 0..4096 {
            step();
        }
        ops += 4096;
        let elapsed = start.elapsed();
        if elapsed >= REF_TIME {
            return ops as f64 / elapsed.as_secs_f64() / 1e6;
        }
    }
}

impl RefKernel {
    pub fn new() -> Self {
        // Sattolo's algorithm: one cycle through every slot.
        let mut next: Vec<u32> = (0..REF_SLOTS as u32).collect();
        let mut rng = Rng::new(0x5EED, 99);
        for i in (1..REF_SLOTS).rev() {
            let j = rng.below(i as u64) as usize;
            next.swap(i, j);
        }
        RefKernel { next }
    }

    /// `(arithmetic, memory)` rates in million operations per second.
    pub fn mops(&self) -> (f64, f64) {
        let mut acc = 0x9E37_79B9u64;
        let alu = rate(|| acc = acc.rotate_left(5).wrapping_mul(0x0100_0000_01B3) ^ 0x5bd1);
        std::hint::black_box(acc);
        let mut at = 0u32;
        let mem = rate(|| at = self.next[at as usize]);
        std::hint::black_box(at);
        (alu, mem)
    }
}

/// The host record of one run.
pub struct HostRecord {
    pub steal_share: f64,
    /// `(arithmetic, memory)` reference rates.
    pub ref_mops_before: (f64, f64),
    pub ref_mops_after: (f64, f64),
    pub cores_available: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

impl HostRecord {
    /// A run is noisy when the hypervisor took more than 2 % of the CPU time
    /// or the arithmetic reference moved by more than 10 %. The memory
    /// reference is recorded but does not enter the flag: on a shared host
    /// it moves by 30 % between two idle readings, so it would flag every
    /// run.
    pub fn noisy(&self) -> bool {
        let (before, after) = (self.ref_mops_before.0, self.ref_mops_after.0);
        self.steal_share > 0.02 || before.max(after) > before.min(after) * 1.10
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("steal_share", Json::Num(self.steal_share)),
            ("ref_mops_before", Json::Num(self.ref_mops_before.0)),
            ("ref_mops_after", Json::Num(self.ref_mops_after.0)),
            ("ref_mem_mops_before", Json::Num(self.ref_mops_before.1)),
            ("ref_mem_mops_after", Json::Num(self.ref_mops_after.1)),
            ("cores_available", Json::Num(self.cores_available as f64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(&self.rustc)),
            ("commit", Json::str(&self.commit)),
            ("noisy", Json::Bool(self.noisy())),
        ])
    }
}

/// Brackets a run: construct before, [`HostProbe::finish`] after.
pub struct HostProbe {
    kernel: RefKernel,
    jiffies: Option<(u64, u64)>,
    ref_mops_before: (f64, f64),
}

impl HostProbe {
    pub fn start() -> Self {
        let kernel = RefKernel::new();
        let ref_mops_before = kernel.mops();
        HostProbe {
            kernel,
            jiffies: cpu_jiffies(),
            ref_mops_before,
        }
    }

    pub fn finish(self) -> HostRecord {
        let steal_share = match (self.jiffies, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        };
        HostRecord {
            steal_share,
            ref_mops_before: self.ref_mops_before,
            ref_mops_after: self.kernel.mops(),
            cores_available: cores_available(),
            cpu_model: cpu_model(),
            rustc: rustc_version(),
            commit: git_commit(),
        }
    }
}

pub fn cores_available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without starting a process; `unknown` outside a git checkout.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(steal: f64, before: f64, after: f64) -> HostRecord {
        HostRecord {
            steal_share: steal,
            ref_mops_before: (before, 6.0),
            ref_mops_after: (after, 4.0),
            cores_available: 2,
            cpu_model: String::new(),
            rustc: String::new(),
            commit: String::new(),
        }
    }

    #[test]
    fn noisy_when_cores_are_stolen_or_the_reference_moves() {
        assert!(!record(0.0, 100.0, 105.0).noisy());
        assert!(!record(0.02, 105.0, 100.0).noisy());
        assert!(record(0.03, 100.0, 100.0).noisy());
        assert!(record(0.0, 100.0, 111.0).noisy());
        assert!(record(0.0, 111.0, 100.0).noisy());
    }
}
