//! The benchmark's own statistics: percentile selection, the rule that
//! a reported percentile needs at least [`MIN_BEYOND`] samples beyond
//! it, windows of passes that each satisfy that rule, the windows the
//! hypervisor stole least from, medians, and peak resident memory from
//! `/proc/self/status`.

/// A reported percentile must have at least this many samples above it,
/// so one outlier cannot set it.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: the smallest rank whose cumulative share reaches `p`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    // Integer arithmetic in hundredths of a percent, so 99 % of 1000
    // is exactly rank 990 (float `ceil` would round 990.0000001 up).
    let hundredths = (p * 100.0).round() as usize;
    (n * hundredths).div_ceil(10_000).clamp(1, n)
}

/// The nearest-rank percentile of ascending-sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// How many samples lie strictly beyond the percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The fewest samples for which percentile `p` has [`MIN_BEYOND`]
/// samples beyond it.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= MIN_BEYOND)
        .expect("some sample size suffices")
}

/// One window's figures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    /// Correct replies per second of serving time.
    pub rate: f64,
    /// Median latency.
    pub p50: f64,
    /// Tail latency at the window's percentile.
    pub tail: f64,
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests while the window's requests were served.
    pub steal: f64,
}

/// CPU time counters of the whole machine, in clock ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Ticks {
    /// Time the hypervisor ran something else on these CPUs.
    pub steal: u64,
    /// All time: user, nice, system, idle, iowait, irq, softirq, steal.
    pub total: u64,
}

impl Ticks {
    /// The counters accumulated since `earlier`.
    pub fn since(self, earlier: Ticks) -> Ticks {
        Ticks {
            steal: self.steal.saturating_sub(earlier.steal),
            total: self.total.saturating_sub(earlier.total),
        }
    }
}

/// Groups consecutive passes into windows of at least
/// [`min_samples`]`(percentile)` latencies, so each window's tail has
/// [`MIN_BEYOND`] samples beyond it. A run reports the median over its
/// windows, which a burst of host noise in one window cannot move.
pub struct Windows {
    percentile: f64,
    open: Vec<f64>,
    open_correct: usize,
    open_ns: u64,
    open_ticks: Ticks,
    closed: Vec<Window>,
}

impl Windows {
    /// Empty, for a tail at `percentile`.
    pub fn new(percentile: f64) -> Windows {
        Windows {
            percentile,
            open: Vec::new(),
            open_correct: 0,
            open_ns: 0,
            open_ticks: Ticks::default(),
            closed: Vec::new(),
        }
    }

    /// Adds one pass: its latencies, correct replies, serving time and
    /// the machine's CPU ticks over that time. Closes the open window
    /// once it holds enough samples.
    pub fn add(
        &mut self,
        latencies: impl IntoIterator<Item = f64>,
        correct: usize,
        ns: u64,
        ticks: Ticks,
    ) {
        self.open.extend(latencies);
        self.open_correct += correct;
        self.open_ns += ns;
        self.open_ticks.steal += ticks.steal;
        self.open_ticks.total += ticks.total;
        if self.open.len() >= min_samples(self.percentile) {
            self.open.sort_by(f64::total_cmp);
            self.closed.push(Window {
                rate: self.open_correct as f64 / (self.open_ns as f64 / 1e9),
                p50: percentile(&self.open, 50.0),
                tail: percentile(&self.open, self.percentile),
                steal: self.open_ticks.steal as f64 / self.open_ticks.total.max(1) as f64,
            });
            self.open.clear();
            self.open_correct = 0;
            self.open_ns = 0;
            self.open_ticks = Ticks::default();
        }
    }

    /// The closed windows.
    pub fn closed(&self) -> &[Window] {
        &self.closed
    }

    /// The half of the closed windows (rounded up) with the least steal,
    /// earlier windows first among equals. On a shared host the
    /// hypervisor lends the benchmark's CPU to other guests in phases
    /// of seconds to minutes; a stolen stretch adds its length to the
    /// requests it falls in, which moves the rate and the tail but
    /// hardly the median. The least-stolen half measures the program
    /// while it had the CPU, however much of the run was stolen.
    pub fn least_stolen(&self) -> Vec<Window> {
        let mut by_steal = self.closed.clone();
        by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        by_steal.truncate(self.closed.len().div_ceil(2));
        by_steal
    }

    /// True when no pass is waiting in an unfinished window.
    pub fn at_boundary(&self) -> bool {
        self.open.is_empty()
    }
}

/// The median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The machine-wide line (`cpu `) of a `/proc/stat` text.
pub fn parse_ticks(stat: &str) -> Option<Ticks> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user time.
    let first = fields.get(..8)?;
    Some(Ticks {
        steal: first[7],
        total: first.iter().sum(),
    })
}

/// The machine's CPU ticks so far.
pub fn cpu_ticks() -> Result<Ticks, String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("reading /proc/stat: {e}"))?;
    parse_ticks(&stat).ok_or_else(|| "no cpu line in /proc/stat".to_string())
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(value)
}

/// This process's peak resident memory so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = parse_vm_hwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// Resets this process's peak resident memory to its current resident
/// memory, so a later [`peak_rss_mib`] covers only what follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak through /proc/self/clear_refs: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selects_the_covering_sample() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 500.0);
        assert_eq!(percentile(&sorted, 99.0), 990.0);
        assert_eq!(percentile(&sorted, 100.0), 1000.0);
        // Small samples: rank rounds up, never past the end.
        assert_eq!(percentile(&[3.0, 7.0], 50.0), 3.0);
        assert_eq!(percentile(&[3.0, 7.0], 51.0), 7.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        assert_eq!(nearest_rank(101, 99.0), 100);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(1100, 99.0), 11);
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(min_samples(50.0), 20);
    }

    #[test]
    fn windows_close_with_ten_samples_beyond_the_tail() {
        let mut w = Windows::new(99.0);
        // 400 samples a pass: the window closes on the third pass.
        let ticks = Ticks {
            steal: 1,
            total: 100,
        };
        for pass in 0..3 {
            assert!(w.closed().is_empty(), "closed after {pass} passes");
            w.add(
                (0..400).map(|i| f64::from(i + 1)),
                400,
                1_000_000_000,
                ticks,
            );
        }
        assert!(w.at_boundary());
        let [win] = w.closed() else {
            panic!("{:?}", w.closed())
        };
        assert_eq!(samples_beyond(1200, 99.0), 12);
        assert_eq!(win.p50, 200.0);
        assert_eq!(win.tail, 396.0);
        assert_eq!(win.rate, 400.0);
        assert_eq!(win.steal, 0.01);
        w.add([1.0], 1, 1, ticks);
        assert!(!w.at_boundary());
    }

    #[test]
    fn least_stolen_keeps_the_better_half() {
        let mut w = Windows::new(50.0);
        // Twenty samples close a window; each window's steal is `s`.
        for s in [5, 0, 9, 0, 2] {
            let ticks = Ticks {
                steal: s,
                total: 100,
            };
            w.add((0..20).map(|i| f64::from(i + 100 * s as u32)), 20, 1, ticks);
        }
        let kept: Vec<f64> = w.least_stolen().iter().map(|w| w.steal).collect();
        assert_eq!(kept, [0.0, 0.0, 0.02]);
        // Among equals, the earlier window comes first.
        assert_eq!(w.least_stolen()[0].p50, 9.0);
        assert_eq!(w.least_stolen()[1].p50, 9.0);
        assert_eq!(w.least_stolen()[2].p50, 209.0);
    }

    #[test]
    fn ticks_are_read_from_proc_stat() {
        let stat = "cpu  100 2 30 400 5 6 7 50 9 0\ncpu0 50 1 15 200 2 3 3 25 0 0\n";
        assert_eq!(
            parse_ticks(stat),
            Some(Ticks {
                steal: 50,
                total: 600
            })
        );
        assert_eq!(parse_ticks("cpu  1 2 3\n"), None);
        assert_eq!(parse_ticks("intr 5\n"), None);
        let later = Ticks {
            steal: 60,
            total: 700,
        };
        assert_eq!(
            later.since(parse_ticks(stat).unwrap()),
            Ticks {
                steal: 10,
                total: 100
            }
        );
        // The live counters exist and only grow.
        let a = cpu_ticks().expect("linux exposes /proc/stat");
        let b = cpu_ticks().unwrap();
        assert!(b.total >= a.total && a.total > 0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn vm_hwm_is_read_from_proc_status() {
        let status =
            "Name:\tservebench\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(5120));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t4096 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        // The live reading is positive and at least the current RSS.
        let peak = peak_rss_mib().expect("linux exposes VmHWM");
        assert!(peak > 0.0, "{peak}");
        reset_peak_rss().expect("linux resets VmHWM");
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
