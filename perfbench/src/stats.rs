//! Percentiles, the answer-path percentile guard, and process memory.

/// Nearest-rank percentile of ascending `sorted` samples: the value at
/// 1-based rank `ceil(q · n)`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of `xs` (upper median for an even count); sorts in place.
pub fn median(xs: &mut [f64]) -> f64 {
    sort(xs);
    xs[xs.len() / 2]
}

/// p50 and p99 of `xs`; both 0 for an empty set.
pub fn p50_p99(mut xs: Vec<f64>) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    sort(&mut xs);
    (percentile(&xs, 0.5), percentile(&xs, 0.99))
}

/// Ascending sort of finite samples.
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
}

/// One answer path inside a latency population: how many samples took
/// it (a deterministic tally from reply sources) and their median, which
/// orders the paths from cheapest to dearest.
#[derive(Debug, Clone, Copy)]
pub struct Path {
    pub name: &'static str,
    pub count: usize,
    pub median: f64,
}

/// Samples a reported percentile must keep beyond it and between it and
/// the nearest answer-path boundary.
pub const GUARD_MARGIN: usize = 10;

/// The percentile guard. Paths are ordered by median latency and taken to
/// fill consecutive rank ranges, so their cumulative tallies are the rank
/// boundaries where the percentile would jump from one path's latency to
/// the next. A percentile passes when at least [`GUARD_MARGIN`] samples
/// lie beyond its rank and at least as many lie between its rank and
/// every interior boundary.
pub fn guard(metric: &str, q: f64, paths: &[Path]) -> Result<(), String> {
    let mut ordered: Vec<Path> = paths.iter().copied().filter(|p| p.count > 0).collect();
    ordered.sort_by(|a, b| a.median.partial_cmp(&b.median).expect("medians are finite"));
    let n: usize = ordered.iter().map(|p| p.count).sum();
    if n == 0 {
        return Err(format!("{metric}: no samples"));
    }
    let r = rank(n, q);
    if n - r < GUARD_MARGIN {
        return Err(format!("{metric}: only {} of {n} samples beyond rank {r}", n - r));
    }
    let mut boundary = 0usize;
    for pair in ordered.windows(2) {
        boundary += pair[0].count;
        let gap = r.abs_diff(boundary);
        if gap < GUARD_MARGIN {
            return Err(format!(
                "{metric}: rank {r} of {n} sits {gap} samples from the {}|{} path boundary",
                pair[0].name, pair[1].name
            ));
        }
    }
    Ok(())
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(name: &'static str, count: usize, median: f64) -> Path {
        Path { name, count, median }
    }

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs[..1], 0.5), 1.0);
    }

    #[test]
    fn guard_needs_samples_beyond_the_rank() {
        assert!(guard("p99", 0.99, &[path("a", 999, 1.0)]).is_err());
        assert!(guard("p99", 0.99, &[path("a", 1000, 1.0)]).is_ok());
    }

    #[test]
    fn guard_rejects_ranks_near_a_path_boundary() {
        // p95 of 1000 is rank 950; the slow path starts after rank 955.
        let near = [path("fast", 955, 1.0), path("slow", 45, 9.0)];
        assert!(guard("p95", 0.95, &near).is_err());
        let far = [path("fast", 900, 1.0), path("slow", 100, 9.0)];
        assert!(guard("p95", 0.95, &far).is_ok());
        // Order comes from the medians, not from the slice order.
        let swapped = [path("slow", 45, 9.0), path("fast", 955, 1.0)];
        assert!(guard("p95", 0.95, &swapped).is_err());
    }
}
