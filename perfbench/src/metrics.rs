//! Metric records and the statistics helpers that produce them.

/// One reported number: its name, value, unit and how many samples it
/// summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics of one run, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics {
    list: Vec<Metric>,
}

impl Metrics {
    /// Records a metric. Panics on a name outside the metric grammar or a
    /// name recorded twice: both are bugs in the benchmark itself.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.list.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.list.iter().find(|m| m.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.list.iter()
    }
}

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok_char)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// The median of `samples` (mean of the middle two for an even count).
/// Sorts `samples` in place, so large sample sets need no copy.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    Some(if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    })
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None`
/// when fewer than ten samples lie beyond it: a tail read from fewer
/// points than that moves from run to run with single outliers. Sorts
/// `samples` in place.
pub fn tail_percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < 10 {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(samples[rank - 1])
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let mut xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&mut xs, 0.9),
            None,
            "99 samples leave 9 beyond p90"
        );
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&mut xs, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&mut xs, 0.99), None);
        assert_eq!(tail_percentile(&mut [], 0.5), None);
        let mut xs: Vec<f64> = (0..20).rev().map(f64::from).collect();
        assert_eq!(
            tail_percentile(&mut xs, 0.5),
            Some(9.0),
            "input order is irrelevant"
        );
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "engine.stalls.load_miss",
            "a",
            "0x-1",
            "l2.ns_per_access",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".x",
            "_x",
            "-x",
            "a b",
            "a/b",
            "é",
            "x\n",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn duplicate_metric_is_a_bug() {
        let mut m = Metrics::default();
        m.put("x", 1.0, "s", 1);
        m.put("x", 2.0, "s", 1);
    }

    #[test]
    fn geomean_of_positive_values() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
